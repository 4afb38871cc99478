#include "src/engine/table_scan.h"

#include <algorithm>
#include <numeric>

namespace auditdb {

PredicateProgram::Outcome RunChunked(const PredicateProgram& program,
                                     const Batch& batch,
                                     const std::vector<uint32_t>& sel,
                                     size_t batch_size) {
  if (batch_size == 0 || sel.size() <= batch_size) {
    return program.Run(batch, sel);
  }
  PredicateProgram::Outcome out;
  std::vector<uint32_t> chunk;
  for (size_t i = 0; i < sel.size(); i += batch_size) {
    size_t end = std::min(i + batch_size, sel.size());
    chunk.assign(sel.begin() + static_cast<ptrdiff_t>(i),
                 sel.begin() + static_cast<ptrdiff_t>(end));
    auto o = program.Run(batch, chunk);
    out.passed.insert(out.passed.end(), o.passed.begin(), o.passed.end());
    out.errors.insert(out.errors.end(),
                      std::make_move_iterator(o.errors.begin()),
                      std::make_move_iterator(o.errors.end()));
  }
  return out;
}

TidBitmap SelectionToBitmap(const std::vector<uint32_t>& sel) {
  TidBitmap out;
  for (uint32_t r : sel) out.Add(static_cast<int64_t>(r));
  return out;
}

std::vector<uint32_t> BitmapToSelection(const TidBitmap& bitmap) {
  std::vector<uint32_t> out;
  out.reserve(static_cast<size_t>(bitmap.Cardinality()));
  bitmap.ForEach(
      [&](int64_t row) { out.push_back(static_cast<uint32_t>(row)); });
  return out;
}

PredicateProgram::BitmapOutcome RunChunkedToBitmap(
    const PredicateProgram& program, const Batch& batch, const TidBitmap& sel,
    size_t batch_size) {
  PredicateProgram::BitmapOutcome out;
  std::vector<uint32_t> chunk;
  auto flush = [&] {
    if (chunk.empty()) return;
    auto o = program.RunToBitmap(batch, chunk);
    // Chunks ascend, so the union is a cheap high-key append merge.
    out.passed.Or(o.passed);
    out.errors.insert(out.errors.end(),
                      std::make_move_iterator(o.errors.begin()),
                      std::make_move_iterator(o.errors.end()));
    chunk.clear();
  };
  sel.ForEach([&](int64_t row) {
    chunk.push_back(static_cast<uint32_t>(row));
    if (batch_size != 0 && chunk.size() >= batch_size) flush();
  });
  flush();
  return out;
}

TableFilter BuildTableFilter(
    const Batch& batch, const std::vector<ScanStage>& stages,
    const std::optional<std::vector<uint32_t>>& selection,
    const ScanOptions& opts) {
  TableFilter f;
  std::vector<uint32_t> cur;
  if (selection.has_value()) {
    cur = *selection;
  } else {
    cur.resize(batch.num_rows);
    std::iota(cur.begin(), cur.end(), 0u);
  }
  f.states_.resize(stages.size());
  f.errors_.resize(stages.size());
  for (size_t s = 0; s < stages.size(); ++s) {
    if (!stages[s].local) continue;  // cross stages run per combined row
    auto outcome = RunChunked(stages[s].program, batch, cur, opts.batch_size);
    auto& st = f.states_[s];
    st.assign(batch.num_rows, 0);
    for (uint32_t r : outcome.passed) {
      st[r] = static_cast<uint8_t>(TableFilter::RowState::kPass);
    }
    for (auto& [r, status] : outcome.errors) {
      st[r] = static_cast<uint8_t>(TableFilter::RowState::kError);
      f.errors_[s].emplace(r, std::move(status));
      ++f.total_errors_;
    }
    cur = std::move(outcome.passed);
  }
  f.passing_ = std::move(cur);
  return f;
}

}  // namespace auditdb
