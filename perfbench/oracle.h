#ifndef AUDITDB_PERFBENCH_ORACLE_H_
#define AUDITDB_PERFBENCH_ORACLE_H_

#include <set>
#include <string>
#include <vector>

#include "src/audit/target_view.h"
#include "src/backlog/backlog.h"
#include "src/storage/database.h"

namespace perfbench {

/// A fact of U rendered as one comparable string: its tids, then its
/// values, in the view's table and column order.
std::string FactKey(const std::vector<auditdb::Tid>& tids,
                    const std::vector<auditdb::Value>& values);

/// Independent history oracle for the canonical audit
///   FROM P-Personal, P-Health
///   WHERE P-Personal.pid = P-Health.pid AND P-Health.disease = 'diabetic'
/// It replays the first `event_limit` backlog events (read only through
/// Backlog::EventAt / event_count) forward into plain per-table maps and,
/// at every DATA-INTERVAL version, evaluates the join and filter by
/// nested loops. It never calls SnapshotAt, Execute or ComputeTargetView.
/// `live` supplies only the table schemas; `tables` and `columns` give the
/// layout the facts are rendered in. Fills `facts` with FactKeys and
/// returns "" on success, otherwise why the oracle could not run.
std::string OracleFacts(const auditdb::Backlog& backlog,
                        const auditdb::DatabaseView& live,
                        const auditdb::TimeInterval& interval,
                        const std::vector<std::string>& tables,
                        const std::vector<auditdb::ColumnRef>& columns,
                        size_t event_limit, std::set<std::string>* facts);

/// Compares a computed target view with the oracle: the same number of
/// facts and the same set of (tids, values). Returns "" when they match.
std::string CheckAgainstOracle(const auditdb::audit::TargetView& view,
                               const auditdb::Backlog& backlog,
                               const auditdb::DatabaseView& live,
                               const auditdb::TimeInterval& interval,
                               size_t event_limit);

}  // namespace perfbench

#endif  // AUDITDB_PERFBENCH_ORACLE_H_
