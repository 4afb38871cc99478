#include "src/types/column_vector.h"

namespace auditdb {

TidBitmap NonNullBitmap(const Batch& batch,
                        const std::vector<size_t>& columns) {
  TidBitmap out;
  bool any_nulls = false;
  for (size_t c : columns) {
    if (batch.columns[c].has_nulls()) {
      any_nulls = true;
      break;
    }
  }
  if (!any_nulls) {
    // No NULLs anywhere: materialize whole chunks word-at-a-time.
    out.AddRange(0, static_cast<int64_t>(batch.num_rows));
    return out;
  }
  for (size_t i = 0; i < batch.num_rows; ++i) {
    bool valid = true;
    for (size_t c : columns) {
      if (batch.columns[c].IsNull(i)) {
        valid = false;
        break;
      }
    }
    // Rows arrive ascending, so every Add hits the append fast path.
    if (valid) out.Add(static_cast<int64_t>(i));
  }
  return out;
}

}  // namespace auditdb
