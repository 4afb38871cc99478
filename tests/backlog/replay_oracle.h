#ifndef AUDITDB_TESTS_BACKLOG_REPLAY_ORACLE_H_
#define AUDITDB_TESTS_BACKLOG_REPLAY_ORACLE_H_

/// Reference implementations of the history layer, kept as differential
/// oracles: every past state is rebuilt by replaying the backlog prefix
/// from event 0 into fresh tables, and the target view is recomputed in
/// full at every version. Slow (versions x events) and obviously right.

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/audit/target_view.h"
#include "src/backlog/backlog.h"
#include "src/common/hashing.h"

namespace auditdb {
namespace oracle {

/// Whether the backlog's timestamps never decrease in capture order (the
/// cursor's roll-forward case; otherwise it rebuilds).
inline bool InTimeOrder(const Backlog& backlog) {
  for (size_t i = 1; i < backlog.event_count(); ++i) {
    if (backlog.EventAt(i).timestamp < backlog.EventAt(i - 1).timestamp) {
      return false;
    }
  }
  return true;
}

/// The state at `t`: every event among the first min(limit,
/// event_count()) with timestamp <= t applied, in capture order, to
/// fresh tables with `db`'s live schemas.
inline Result<Snapshot> ReplaySnapshotAt(const Database& db,
                                         const Backlog& backlog, Timestamp t,
                                         size_t limit = Backlog::kNoLimit) {
  const size_t n = std::min(limit, backlog.event_count());
  Snapshot snapshot(t);
  DatabaseView live = db.Snapshot();
  for (const auto& name : live.TableNames()) {
    auto version = live.GetTable(name);
    if (!version.ok()) return version.status();
    auto added = snapshot.AddTable((*version)->schema());
    if (!added.ok()) return added.status();
  }
  for (size_t i = 0; i < n; ++i) {
    const ChangeEvent& event = backlog.EventAt(i);
    if (event.timestamp > t) continue;
    auto table = snapshot.GetTable(event.table);
    if (!table.ok()) return table.status();
    switch (event.op) {
      case ChangeEvent::Op::kInsert:
        AUDITDB_RETURN_IF_ERROR(
            (*table)->InsertWithTid(event.row.tid, event.row.values));
        break;
      case ChangeEvent::Op::kUpdate:
        AUDITDB_RETURN_IF_ERROR(
            (*table)->Update(event.row.tid, event.row.values));
        break;
      case ChangeEvent::Op::kDelete: {
        auto removed = (*table)->Delete(event.row.tid);
        if (!removed.ok()) return removed.status();
        break;
      }
    }
  }
  return snapshot;
}

/// U over every DATA-INTERVAL version, each version evaluated in full on
/// its replayed state and merged in first-observed order. The
/// nested-loop order (ascending FROM-order row positions) is the order
/// rule the delta evaluation must reproduce under any plan.
inline Result<audit::TargetView> RecomputeTargetViewOverVersions(
    const audit::AuditExpression& expr, const Database& db,
    const Backlog& backlog, const ExecOptions& options = ExecOptions{},
    size_t limit = Backlog::kNoLimit) {
  audit::TargetView merged;
  merged.tables = expr.from;
  std::unordered_set<std::pair<std::vector<Tid>, std::vector<Value>>,
                     PairHash<std::vector<Tid>, std::vector<Value>,
                              VectorHash<Tid>, VectorHash<Value>>>
      seen;
  for (Timestamp version :
       backlog.VersionTimestamps(expr.data_interval, limit)) {
    auto snapshot = ReplaySnapshotAt(db, backlog, version, limit);
    if (!snapshot.ok()) return snapshot.status();
    auto view =
        audit::ComputeTargetView(expr, snapshot->View(), version, options);
    if (!view.ok()) return view.status();
    merged.columns = view->columns;
    for (auto& fact : view->facts) {
      if (!seen.emplace(fact.tids, fact.values).second) continue;
      merged.facts.push_back(std::move(fact));
    }
  }
  merged.RebuildTidIndex();
  return merged;
}

}  // namespace oracle
}  // namespace auditdb

#endif  // AUDITDB_TESTS_BACKLOG_REPLAY_ORACLE_H_
