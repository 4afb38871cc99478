#include "src/audit/baseline_agrawal.h"

#include "src/audit/audit_stages.h"
#include "src/audit/candidate.h"
#include "src/expr/analysis.h"
#include "src/expr/satisfiability.h"

namespace auditdb {
namespace audit {

Result<bool> AgrawalAuditor::IsSuspicious(const sql::SelectStatement& query,
                                          const AuditExpression& expr,
                                          const DatabaseView& state,
                                          const ExecOptions& exec) {
  // Candidate test: C_Q must contain every audited attribute, and the
  // predicates must be mutually satisfiable.
  auto accessed = StaticAccessedColumns(query, state.catalog(),
                                        /*outputs_only=*/false);
  if (!accessed.ok()) return accessed.status();
  for (const auto& attr : expr.attrs.AllAttributes()) {
    if (accessed->count(attr) == 0) return false;
  }
  if (query.where && expr.where) {
    auto where = query.where->Clone();
    AUDITDB_RETURN_IF_ERROR(
        QualifyColumns(where.get(), state.catalog(), query.from));
    if (!MaybeSatisfiable(where.get(), expr.where.get())) return false;
  }

  std::vector<std::string> common = CommonTables(query, expr);
  if (common.empty()) return false;

  // Shared indispensable tuple over the common tables: intersect the
  // lineage of the query's result with the lineage of the audit
  // expression's target view, both projected onto the common tables.
  auto query_result = Execute(query, state, exec);
  if (!query_result.ok()) return query_result.status();
  return SharesIndispensableTuple(*query_result, expr, common, state, exec);
}

Result<AgrawalAuditor::Result_> AgrawalAuditor::Audit(
    const AuditExpression& parsed, const ExecOptions& exec) const {
  AuditExpression expr = parsed.Clone();
  AUDITDB_RETURN_IF_ERROR(expr.Qualify(db_->catalog()));

  Result_ result;
  // Static phase in log order; the dynamic test then visits the
  // candidates' states in timestamp order through one history cursor.
  std::vector<int64_t> ids;
  std::vector<sql::SelectStatement> stmts;
  std::vector<Timestamp> times;
  const size_t num_logged = log_->size();
  for (size_t i = 0; i < num_logged; ++i) {
    const auto& logged = log_->Entry(i);
    if (!expr.filter.Admits(logged)) continue;
    auto stmt = sql::ParseSelect(logged.sql);
    if (!stmt.ok()) continue;

    // Cheap static phase first (mirrors the audit query generator's
    // static analysis over the logged queries).
    auto candidate = IsSingleCandidate(*stmt, expr, db_->catalog());
    if (!candidate.ok() || !*candidate) continue;
    ids.push_back(logged.id);
    stmts.push_back(std::move(*stmt));
    times.push_back(logged.timestamp);
  }
  result.num_candidates = ids.size();

  std::vector<char> suspicious(ids.size(), 0);
  AUDITDB_RETURN_IF_ERROR(VisitStatesInTimeOrder(
      *backlog_, Backlog::kNoLimit, times,
      [&](size_t c, const DatabaseView& state, bool) {
        auto verdict = IsSuspicious(stmts[c], expr, state, exec);
        suspicious[c] = verdict.ok() && *verdict;
        return Status::Ok();
      }));
  for (size_t c = 0; c < ids.size(); ++c) {
    if (suspicious[c] != 0) result.suspicious_ids.push_back(ids[c]);
  }
  return result;
}

}  // namespace audit
}  // namespace auditdb
