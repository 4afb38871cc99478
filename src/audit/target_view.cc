#include "src/audit/target_view.h"

#include <algorithm>
#include <iterator>
#include <unordered_set>
#include <utility>

#include "src/common/hashing.h"
#include "src/expr/analysis.h"

namespace auditdb {
namespace audit {

namespace {

/// Membership-only dedup key for facts: (tid tuple, value tuple).
using FactKey = std::pair<std::vector<Tid>, std::vector<Value>>;
using FactKeyHash =
    PairHash<std::vector<Tid>, std::vector<Value>, VectorHash<Tid>,
             VectorHash<Value>>;
using FactSet = std::unordered_set<FactKey, FactKeyHash>;

}  // namespace

Result<size_t> TargetView::ColumnIndex(const ColumnRef& col) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == col) return i;
  }
  return Status::NotFound("no column " + col.ToString() +
                          " in target view");
}

Result<size_t> TargetView::TableIndex(const std::string& table) const {
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i] == table) return i;
  }
  return Status::NotFound("no table " + table + " in target view");
}

void TargetView::RebuildTidIndex() {
  table_tids.assign(tables.size(), TidBitmap());
  for (const Fact& fact : facts) {
    for (size_t i = 0; i < fact.tids.size() && i < table_tids.size(); ++i) {
      table_tids[i].Add(fact.tids[i]);
    }
  }
}

Batch TargetView::ToBatch() const {
  Batch batch;
  batch.num_rows = facts.size();
  batch.columns.reserve(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    batch.columns.push_back(ColumnVector::Gather(
        facts.size(),
        [&](size_t i) -> const Value& { return facts[i].values[c]; }));
  }
  return batch;
}

std::string TargetView::ToString() const {
  std::string out;
  for (size_t i = 0; i < tables.size(); ++i) {
    if (i > 0) out += " | ";
    out += "tid_" + tables[i];
  }
  for (const auto& col : columns) {
    out += " | " + col.ToString();
  }
  out += "\n";
  for (const auto& fact : facts) {
    for (size_t i = 0; i < fact.tids.size(); ++i) {
      if (i > 0) out += " | ";
      out += TidToString(fact.tids[i]);
    }
    for (const auto& v : fact.values) {
      out += " | " + v.ToDisplayString();
    }
    out += "\n";
  }
  return out;
}

namespace {

/// The value columns of U: audit attributes in first-appearance order,
/// then WHERE-only columns in sorted order.
std::vector<ColumnRef> ViewColumns(const AuditExpression& expr) {
  std::vector<ColumnRef> columns;
  std::unordered_set<ColumnRef, ColumnRefHash> seen;
  for (const auto& group : expr.attrs.groups) {
    for (const auto& attr : group.attrs) {
      if (seen.insert(attr).second) columns.push_back(attr);
    }
  }
  for (const auto& col : CollectColumns(expr.where.get())) {
    if (seen.insert(col).second) columns.push_back(col);
  }
  return columns;
}

/// The query whose result rows (with lineage) are U's facts.
sql::SelectStatement ViewQuery(const AuditExpression& expr,
                               const std::vector<ColumnRef>& columns) {
  sql::SelectStatement stmt;
  stmt.from = expr.from;
  stmt.select_list = columns;
  stmt.where = expr.where ? expr.where->Clone() : nullptr;
  return stmt;
}

/// Runs the view query on `db` and appends the facts not in `seen`,
/// labelled `version`, to `out`.
Status CollectNewFacts(const sql::SelectStatement& stmt,
                       const DatabaseView& db, Timestamp version,
                       const ExecOptions& options, FactSet* seen,
                       std::vector<TargetView::Fact>* out) {
  auto result = Execute(stmt, db, options);
  if (!result.ok()) return result.status();
  for (size_t i = 0; i < result->rows.size(); ++i) {
    if (!seen->emplace(result->lineage[i], result->rows[i]).second) continue;
    out->push_back(TargetView::Fact{std::move(result->lineage[i]),
                                    std::move(result->rows[i]), version});
  }
  return Status::Ok();
}

/// Sorts facts of one version by their FROM-order row positions in `db`
/// (lexicographically): the nested-loop executor's output order, whatever
/// join plan produced them.
Status SortByRowPositions(const DatabaseView& db,
                          const std::vector<std::string>& from,
                          std::vector<TargetView::Fact>* facts) {
  if (facts->size() < 2) return Status::Ok();
  std::vector<const TableVersion*> tables;
  for (const auto& name : from) {
    auto table = db.GetTable(name);
    if (!table.ok()) return table.status();
    tables.push_back(*table);
  }
  std::vector<std::pair<std::vector<size_t>, size_t>> keyed;
  keyed.reserve(facts->size());
  for (size_t f = 0; f < facts->size(); ++f) {
    std::vector<size_t> positions;
    positions.reserve(tables.size());
    for (size_t i = 0; i < tables.size(); ++i) {
      auto pos = tables[i]->GetPosition((*facts)[f].tids[i]);
      if (!pos.ok()) return pos.status();
      positions.push_back(*pos);
    }
    keyed.emplace_back(std::move(positions), f);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<TargetView::Fact> sorted;
  sorted.reserve(facts->size());
  for (const auto& [positions, f] : keyed) {
    sorted.push_back(std::move((*facts)[f]));
  }
  *facts = std::move(sorted);
  return Status::Ok();
}

/// Positions in `table`, ascending, of the rows of `tids` it still holds.
std::vector<size_t> RowPositions(const TableVersion& table,
                                 const std::vector<Tid>& tids) {
  std::vector<size_t> positions;
  for (Tid tid : tids) {
    auto pos = table.GetPosition(tid);
    if (pos.ok()) positions.push_back(*pos);
  }
  std::sort(positions.begin(), positions.end());
  return positions;
}

/// `db` with `table` narrowed to the rows at `positions` (in row order).
Result<DatabaseView> Narrow(const DatabaseView& db, const TableVersion& table,
                            const std::vector<size_t>& positions) {
  Table narrowed(table.schema());
  for (size_t pos : positions) {
    const Row& row = table.rows()[pos];
    AUDITDB_RETURN_IF_ERROR(narrowed.InsertWithTid(row.tid, row.values));
  }
  DatabaseView out = db;
  out.AddTable(narrowed.CurrentVersion());
  return out;
}

/// The views whose query results hold every fact of `state` that has a
/// row touched since the previous version: per FROM table with touched
/// rows still present, `state` with that table narrowed to them — or
/// `state` itself once some table is touched in every row.
Result<std::vector<DatabaseView>> DeltaViews(
    const DatabaseView& state, const std::vector<std::string>& from,
    const HistoryCursor& cursor) {
  std::vector<DatabaseView> out;
  for (const auto& name : from) {
    auto table = state.GetTable(name);
    if (!table.ok()) return table.status();
    std::vector<size_t> positions = RowPositions(**table, cursor.Touched(name));
    if (positions.empty()) continue;
    if (positions.size() == (*table)->size()) {
      return std::vector<DatabaseView>{state};
    }
    auto narrowed = Narrow(state, **table, positions);
    if (!narrowed.ok()) return narrowed.status();
    out.push_back(std::move(*narrowed));
  }
  return out;
}

}  // namespace

Result<TargetView> ComputeTargetView(const AuditExpression& expr,
                                     const DatabaseView& db,
                                     Timestamp version,
                                     const ExecOptions& options) {
  TargetView view;
  view.tables = expr.from;
  view.columns = ViewColumns(expr);
  FactSet seen;
  AUDITDB_RETURN_IF_ERROR(CollectNewFacts(ViewQuery(expr, view.columns), db,
                                          version, options, &seen,
                                          &view.facts));
  view.RebuildTidIndex();
  return view;
}

Result<TargetView> ComputeTargetViewOverVersions(const AuditExpression& expr,
                                                 const Backlog& backlog,
                                                 const ExecOptions& options,
                                                 size_t event_limit) {
  TargetView merged;
  merged.tables = expr.from;
  merged.columns = ViewColumns(expr);
  const sql::SelectStatement stmt = ViewQuery(expr, merged.columns);

  auto cursor = backlog.OpenCursor(event_limit);
  if (!cursor.ok()) return cursor.status();
  FactSet seen;
  bool first = true;
  for (Timestamp version :
       backlog.VersionTimestamps(expr.data_interval, event_limit)) {
    AUDITDB_RETURN_IF_ERROR(cursor->AdvanceTo(version));
    const DatabaseView state = cursor->View();
    // The first version is evaluated in full. A fact new at a later
    // version has a row touched since the previous one, so the query runs
    // once per FROM table with touched rows, reading only those rows of
    // that table and the others in full.
    Result<std::vector<DatabaseView>> views = std::vector<DatabaseView>{state};
    if (!first) views = DeltaViews(state, expr.from, *cursor);
    if (!views.ok()) return views.status();
    first = false;
    std::vector<TargetView::Fact> fresh;
    for (const DatabaseView& view : *views) {
      AUDITDB_RETURN_IF_ERROR(
          CollectNewFacts(stmt, view, version, options, &seen, &fresh));
    }
    AUDITDB_RETURN_IF_ERROR(SortByRowPositions(state, expr.from, &fresh));
    std::move(fresh.begin(), fresh.end(), std::back_inserter(merged.facts));
  }
  merged.RebuildTidIndex();
  return merged;
}

}  // namespace audit
}  // namespace auditdb
