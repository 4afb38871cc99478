// Set-based reference for the suspicion check. Every indispensable-tid
// union is a std::set<Tid>, every joint witness a std::set of lineage
// tuples (QueryResult::ProjectLineage, also for one table), every output
// value set a std::set<Value>, and the NULL screen a row-by-row scan. No
// bitmap, prescreen or single-table fast path: differential tests compare
// CheckBatchSuspicion, MinimizeBatch and the granule validity screen
// against it.
#ifndef AUDITDB_TESTS_AUDIT_SUSPICION_ORACLE_H_
#define AUDITDB_TESTS_AUDIT_SUSPICION_ORACLE_H_

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/audit/suspicion.h"
#include "src/types/column_vector.h"

namespace auditdb {
namespace audit {
namespace oracle {

/// Ascending indices of the rows whose cells are non-NULL in every listed
/// column.
inline std::vector<size_t> NonNullRows(const Batch& batch,
                                       const std::vector<size_t>& columns) {
  std::vector<size_t> out;
  for (size_t i = 0; i < batch.num_rows; ++i) {
    bool valid = true;
    for (size_t c : columns) {
      if (batch.columns[c].IsNull(i)) {
        valid = false;
        break;
      }
    }
    if (valid) out.push_back(i);
  }
  return out;
}

/// Tids of `table` in the lineage of some output row of `result` (empty
/// if the table is not in FROM).
inline std::set<Tid> IndispensableTids(const QueryResult& result,
                                       const std::string& table) {
  std::set<Tid> out;
  for (size_t j = 0; j < result.from.size(); ++j) {
    if (result.from[j] != table) continue;
    for (const auto& tuple : result.lineage) {
      if (j < tuple.size()) out.insert(tuple[j]);
    }
  }
  return out;
}

/// Whether some query of `batch`, in batch order, has `tids` among its
/// lineage projected onto `tables`. Queries whose FROM lacks one of the
/// tables are skipped; a projection error of any query reached first
/// propagates.
inline Result<bool> JointlyWitnessed(
    const std::vector<const AccessProfile*>& batch,
    const std::vector<std::string>& tables, const std::vector<Tid>& tids) {
  for (const AccessProfile* profile : batch) {
    const auto& from = profile->result.from;
    bool covers = true;
    for (const auto& t : tables) {
      covers = covers && std::find(from.begin(), from.end(), t) != from.end();
    }
    if (!covers) continue;
    auto projected = profile->result.ProjectLineage(tables);
    if (!projected.ok()) return projected.status();
    if (projected->count(tids) > 0) return true;
  }
  return false;
}

/// Reference for audit::CheckBatchSuspicion: the same SuspicionResult,
/// per scheme and fact.
inline Result<SuspicionResult> CheckBatchSuspicion(
    const TargetView& view, const std::vector<GranuleScheme>& schemes,
    Threshold threshold, bool indispensable,
    const std::vector<const AccessProfile*>& batch,
    IndispensabilityMode mode) {
  SuspicionResult result;
  const Batch view_batch = view.ToBatch();
  for (size_t s = 0; s < schemes.size(); ++s) {
    const GranuleScheme& scheme = schemes[s];
    SchemeAccess access;
    access.scheme_index = s;
    access.attrs_covered = true;
    for (const auto& attr : scheme.attrs) {
      bool covered = false;
      for (const AccessProfile* profile : batch) {
        covered = covered || (indispensable ? profile->Accesses(attr)
                                            : profile->Outputs(attr));
      }
      access.attrs_covered = access.attrs_covered && covered;
    }
    size_t valid_count = 0;
    if (access.attrs_covered) {
      std::vector<size_t> attr_cols;
      std::vector<size_t> tid_positions;
      bool resolved = true;
      for (const auto& attr : scheme.attrs) {
        auto idx = view.ColumnIndex(attr);
        resolved = resolved && idx.ok();
        if (idx.ok()) attr_cols.push_back(*idx);
      }
      for (const auto& table : scheme.tid_tables) {
        auto idx = view.TableIndex(table);
        resolved = resolved && idx.ok();
        if (idx.ok()) tid_positions.push_back(*idx);
      }
      if (!resolved) {
        result.per_scheme.push_back(std::move(access));
        continue;
      }
      const std::vector<size_t> valid = NonNullRows(view_batch, attr_cols);
      valid_count = valid.size();
      // Per scheme table, the union of the batch's indispensable tids.
      std::vector<std::set<Tid>> unions(tid_positions.size());
      for (size_t i = 0; i < tid_positions.size(); ++i) {
        for (const AccessProfile* profile : batch) {
          auto per_query =
              IndispensableTids(profile->result, scheme.tid_tables[i]);
          unions[i].insert(per_query.begin(), per_query.end());
        }
      }
      for (size_t f : valid) {
        const TargetView::Fact& fact = view.facts[f];
        bool accessed = true;
        if (!indispensable) {
          size_t a = 0;
          for (const auto& attr : scheme.attrs) {
            const Value& value = fact.values[attr_cols[a++]];
            bool output = false;
            for (const AccessProfile* profile : batch) {
              output = output || (profile->Outputs(attr) &&
                                  profile->result.ColumnValues(attr).count(
                                      value) > 0);
            }
            accessed = accessed && output;
          }
        } else if (mode == IndispensabilityMode::kPerTable) {
          for (size_t i = 0; i < tid_positions.size(); ++i) {
            accessed =
                accessed && unions[i].count(fact.tids[tid_positions[i]]) > 0;
          }
        } else {
          std::vector<Tid> tuple;
          for (size_t p : tid_positions) tuple.push_back(fact.tids[p]);
          auto witnessed = JointlyWitnessed(batch, scheme.tid_tables, tuple);
          if (!witnessed.ok()) return witnessed.status();
          accessed = *witnessed;
        }
        if (accessed) access.accessed_facts.push_back(f);
      }
    }
    const size_t k =
        threshold.all ? valid_count : static_cast<size_t>(threshold.n);
    access.suspicious = access.attrs_covered && k > 0 &&
                        access.accessed_facts.size() >= k;
    result.suspicious = result.suspicious || access.suspicious;
    result.per_scheme.push_back(std::move(access));
  }
  return result;
}

/// Reference for audit::MinimizeBatch: drops each profile, in order, when
/// the rest stays suspicious; returns the kept ids.
inline Result<std::vector<int64_t>> MinimizeBatch(
    const TargetView& view, const std::vector<GranuleScheme>& schemes,
    const AuditExpression& expr, const std::vector<AccessProfile>& profiles,
    const std::vector<int64_t>& profile_ids, IndispensabilityMode mode) {
  std::vector<bool> kept(profiles.size(), true);
  for (size_t i = 0; i < profiles.size(); ++i) {
    std::vector<const AccessProfile*> reduced;
    for (size_t j = 0; j < profiles.size(); ++j) {
      if (kept[j] && j != i) reduced.push_back(&profiles[j]);
    }
    auto check = CheckBatchSuspicion(view, schemes, expr.threshold,
                                     expr.indispensable, reduced, mode);
    if (!check.ok()) return check.status();
    if (check->suspicious) kept[i] = false;
  }
  std::vector<int64_t> out;
  for (size_t j = 0; j < profiles.size(); ++j) {
    if (kept[j]) out.push_back(profile_ids[j]);
  }
  return out;
}

}  // namespace oracle
}  // namespace audit
}  // namespace auditdb

#endif  // AUDITDB_TESTS_AUDIT_SUSPICION_ORACLE_H_
