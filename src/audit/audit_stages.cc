#include "src/audit/audit_stages.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/audit/audit_index.h"
#include "src/audit/candidate.h"

namespace auditdb {
namespace audit {

namespace {

/// Shape-level outcome of parse + static candidacy, shared by every log
/// entry with that shape inside one screened range.
struct ShapeScreen {
  bool parse_failed = false;
  bool error = false;
  bool candidate = false;
  std::shared_ptr<const sql::SelectStatement> stmt;
};

}  // namespace

StaticScreenResult StaticScreenRange(const AuditExpression& expr,
                                     const QueryLog& log,
                                     const Catalog& catalog,
                                     const CandidateOptions& options,
                                     size_t begin, size_t end,
                                     const CandidateCacheContext& cache_ctx) {
  StaticScreenResult out;
  end = std::min(end, log.size());
  std::unordered_map<sql::QueryShape, ShapeScreen, sql::QueryShapeHash> memo;
  for (size_t i = begin; i < end; ++i) {
    const LoggedQuery& logged = log.Entry(i);
    QueryVerdict verdict;
    verdict.query_id = logged.id;
    verdict.admitted = expr.filter.Admits(logged);
    if (verdict.admitted) {
      ++out.num_admitted;
      sql::QueryShape shape = logged.shape.zero()
                                  ? sql::ComputeQueryShape(logged.sql)
                                  : logged.shape;
      auto [entry, inserted] = memo.try_emplace(shape);
      if (inserted) {
        auto stmt = sql::ParseSelect(logged.sql);
        if (!stmt.ok()) {
          entry->second.parse_failed = true;
        } else {
          auto shared = std::make_shared<const sql::SelectStatement>(
              std::move(*stmt));
          auto candidate = CachedBatchCandidate(
              cache_ctx.cache, shape, cache_ctx.expr_hash,
              cache_ctx.state_key, *shared, expr, catalog, options);
          if (!candidate.ok()) {
            // Unresolvable columns / unknown tables: the check proved
            // nothing about this query. Record an error verdict, distinct
            // from "statically cleared".
            entry->second.error = true;
          } else if (*candidate) {
            entry->second.candidate = true;
            entry->second.stmt = std::move(shared);
          }
        }
      }
      const ShapeScreen& screen = entry->second;
      verdict.parse_failed = screen.parse_failed;
      verdict.error = screen.error;
      if (screen.candidate) {
        verdict.candidate = true;
        out.candidates.push_back(ScreenedCandidate{i, screen.stmt});
      }
    }
    out.verdicts.push_back(verdict);
  }
  return out;
}

void StaticOnlyBatchVerdict(const AuditExpression& expr,
                            const Catalog& catalog,
                            const std::vector<const sql::SelectStatement*>&
                                candidate_stmts,
                            AuditReport* report) {
  std::unordered_set<ColumnRef, ColumnRefHash> covered;
  for (const sql::SelectStatement* stmt : candidate_stmts) {
    auto cols = StaticAccessedColumns(*stmt, catalog,
                                      /*outputs_only=*/!expr.indispensable);
    if (!cols.ok()) continue;
    covered.insert(cols->begin(), cols->end());
  }
  auto schemes = expr.attrs.EnumerateSchemes();
  report->num_schemes = schemes.size();
  for (const auto& scheme : schemes) {
    bool all = true;
    for (const auto& attr : scheme) {
      if (covered.count(attr) == 0) {
        all = false;
        break;
      }
    }
    if (all && !scheme.empty()) {
      report->batch_suspicious = true;
      report->evidence +=
          "static: candidates cover scheme {" + [&scheme] {
            std::string s;
            for (const auto& a : scheme) {
              if (!s.empty()) s += ",";
              s += a.ToString();
            }
            return s;
          }() + "}\n";
    }
  }
}

Result<std::vector<int64_t>> MinimizeBatch(
    const TargetView& view, const std::vector<GranuleScheme>& schemes,
    const AuditExpression& expr, const std::vector<AccessProfile>& profiles,
    const std::vector<int64_t>& profile_ids, const SuspicionOptions& options) {
  std::vector<size_t> kept;
  for (size_t i = 0; i < profiles.size(); ++i) kept.push_back(i);
  for (size_t i = 0; i < profiles.size(); ++i) {
    std::vector<const AccessProfile*> reduced;
    for (size_t j : kept) {
      if (j != i) reduced.push_back(&profiles[j]);
    }
    if (reduced.size() == kept.size()) continue;  // i already dropped
    auto reduced_result = CheckBatchSuspicion(view, schemes, expr.threshold,
                                              expr.indispensable, reduced,
                                              options);
    if (!reduced_result.ok()) return reduced_result.status();
    if (reduced_result->suspicious) {
      kept.erase(std::remove(kept.begin(), kept.end(), i), kept.end());
    }
  }
  std::vector<int64_t> out;
  out.reserve(kept.size());
  for (size_t j : kept) out.push_back(profile_ids[j]);
  return out;
}

std::vector<std::string> CommonTables(const sql::SelectStatement& query,
                                      const AuditExpression& expr) {
  std::vector<std::string> out;
  for (const auto& table : expr.from) {
    if (std::find(query.from.begin(), query.from.end(), table) !=
        query.from.end()) {
      out.push_back(table);
    }
  }
  return out;
}

Result<bool> SharesIndispensableTuple(const QueryResult& query_result,
                                      const AuditExpression& expr,
                                      const std::vector<std::string>& common,
                                      const DatabaseView& state,
                                      const ExecOptions& exec) {
  // Runs only once the query's projection is known to be non-empty.
  auto execute_audit_query = [&]() {
    sql::SelectStatement audit_query;
    audit_query.select_star = true;
    audit_query.from = expr.from;
    audit_query.where = expr.where ? expr.where->Clone() : nullptr;
    return Execute(audit_query, state, exec);
  };

  if (common.size() == 1) {
    // Single common table: both projections are plain tid sets, so the
    // intersection test is one word-wide bitmap Intersects.
    auto query_tids = query_result.ProjectLineageBitmap(common[0]);
    if (!query_tids.ok()) return query_tids.status();
    if (query_tids->Empty()) return false;
    auto audit_result = execute_audit_query();
    if (!audit_result.ok()) return audit_result.status();
    auto audit_tids = audit_result->ProjectLineageBitmap(common[0]);
    if (!audit_tids.ok()) return audit_tids.status();
    return query_tids->Intersects(*audit_tids);
  }

  auto query_tuples = query_result.ProjectLineage(common);
  if (!query_tuples.ok()) return query_tuples.status();
  if (query_tuples->empty()) return false;
  auto audit_result = execute_audit_query();
  if (!audit_result.ok()) return audit_result.status();
  auto audit_tuples = audit_result->ProjectLineage(common);
  if (!audit_tuples.ok()) return audit_tuples.status();

  for (const auto& tuple : *query_tuples) {
    if (audit_tuples->count(tuple) > 0) return true;
  }
  return false;
}

}  // namespace audit
}  // namespace auditdb
