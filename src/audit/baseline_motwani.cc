#include "src/audit/baseline_motwani.h"

#include <algorithm>
#include <set>

#include "src/audit/audit_stages.h"
#include "src/audit/candidate.h"
#include "src/expr/analysis.h"
#include "src/expr/satisfiability.h"
#include "src/sql/parser.h"

namespace auditdb {
namespace audit {

Result<MotwaniAuditor::BatchResult> MotwaniAuditor::Audit(
    const AuditExpression& parsed, const ExecOptions& exec) const {
  AuditExpression expr = parsed.Clone();
  AUDITDB_RETURN_IF_ERROR(expr.Qualify(db_->catalog()));

  const std::set<ColumnRef> audit_columns = expr.attrs.AllAttributes();
  BatchResult result;
  std::set<ColumnRef> covered_by_sharing;

  // A query whose semantic test needs the state it ran against.
  struct SharingCheck {
    int64_t id;
    sql::SelectStatement stmt;
    std::vector<std::string> common;
    std::set<ColumnRef> accessed;
  };
  std::vector<SharingCheck> sharing;
  std::vector<Timestamp> times;

  const size_t num_logged = log_->size();
  for (size_t i = 0; i < num_logged; ++i) {
    const auto& logged = log_->Entry(i);
    if (!expr.filter.Admits(logged)) continue;
    auto stmt = sql::ParseSelect(logged.sql);
    if (!stmt.ok()) continue;

    auto accessed = StaticAccessedColumns(*stmt, db_->catalog(),
                                          /*outputs_only=*/false);
    if (!accessed.ok()) continue;

    bool touches_audit_column = false;
    for (const auto& attr : audit_columns) {
      if (accessed->count(attr) > 0) {
        touches_audit_column = true;
        break;
      }
    }
    if (!touches_audit_column) continue;

    // Predicate consistency (existence of an instance with a shared
    // indispensable tuple).
    bool consistent = true;
    if (stmt->where && expr.where) {
      auto where = stmt->where->Clone();
      auto qualify =
          QualifyColumns(where.get(), db_->catalog(), stmt->from);
      if (!qualify.ok()) continue;
      consistent = MaybeSatisfiable(where.get(), expr.where.get());
    }
    if (!consistent) continue;

    // Weak syntactic: consistent + touches >= 1 audit column.
    result.weakly_syntactically_suspicious = true;
    result.weak_ids.push_back(logged.id);

    // Semantic: the query must actually share an indispensable tuple with
    // A on the state it ran against. Unlike Agrawal, evaluation errors
    // just disqualify the query, they don't abort the batch.
    std::vector<std::string> common = CommonTables(*stmt, expr);
    if (common.empty()) continue;
    sharing.push_back(
        SharingCheck{logged.id, std::move(*stmt), std::move(common),
                     std::move(*accessed)});
    times.push_back(logged.timestamp);
  }

  // The states are visited in timestamp order through one history cursor;
  // the witnesses are then listed in log order.
  std::vector<char> shares(sharing.size(), 0);
  AUDITDB_RETURN_IF_ERROR(VisitStatesInTimeOrder(
      *backlog_, Backlog::kNoLimit, times,
      [&](size_t c, const DatabaseView& state, bool) {
        auto query_result = Execute(sharing[c].stmt, state, exec);
        if (!query_result.ok()) return Status::Ok();
        auto shared = SharesIndispensableTuple(
            *query_result, expr, sharing[c].common, state, exec);
        shares[c] = shared.ok() && *shared;
        return Status::Ok();
      }));
  for (size_t c = 0; c < sharing.size(); ++c) {
    if (shares[c] == 0) continue;
    result.sharing_ids.push_back(sharing[c].id);
    for (const auto& attr : audit_columns) {
      if (sharing[c].accessed.count(attr) > 0) covered_by_sharing.insert(attr);
    }
  }

  result.semantically_suspicious =
      !audit_columns.empty() &&
      std::includes(covered_by_sharing.begin(), covered_by_sharing.end(),
                    audit_columns.begin(), audit_columns.end());
  return result;
}

}  // namespace audit
}  // namespace auditdb
