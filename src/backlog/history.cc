#include "src/backlog/history.h"

#include <algorithm>
#include <numeric>

#include "src/backlog/backlog.h"

namespace auditdb {

HistoryCursor::HistoryCursor(const Backlog* backlog, size_t limit,
                             std::vector<TableSchema> tables)
    : backlog_(backlog),
      limit_(limit),
      schemas_(std::move(tables)),
      base_(Timestamp()) {
  Timestamp latest;
  for (size_t i = 0; i < limit_; ++i) {
    const Timestamp ts = backlog_->EventAt(i).timestamp;
    if (i > 0 && ts < latest) {
      ++out_of_order_;
    } else {
      latest = ts;
    }
  }
  if (out_of_order_ == 0) return;
  earliest_from_.resize(limit_);
  for (size_t i = limit_; i-- > 0;) {
    const Timestamp ts = backlog_->EventAt(i).timestamp;
    earliest_from_[i] =
        i + 1 < limit_ ? std::min(ts, earliest_from_[i + 1]) : ts;
  }
}

Timestamp HistoryCursor::EarliestFrom(size_t i) const {
  return earliest_from_.empty() ? backlog_->EventAt(i).timestamp
                                : earliest_from_[i];
}

DatabaseView HistoryCursor::View() const {
  DatabaseView view = base_.View();
  for (const auto& [name, table] : forks_) view.AddTable(table.get());
  return view;
}

Snapshot HistoryCursor::Release() && {
  for (auto& [name, table] : forks_) base_.PutTable(std::move(table));
  base_.set_time(time_);
  return std::move(base_);
}

std::vector<Tid> HistoryCursor::Touched(const std::string& table) const {
  std::vector<Tid> tids;
  for (size_t i = delta_begin_; i < delta_end_; ++i) {
    const ChangeEvent& event = backlog_->EventAt(i);
    if (event.table == table && InDelta(i)) tids.push_back(event.row.tid);
  }
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  return tids;
}

bool HistoryCursor::InDelta(size_t i) const {
  const Timestamp ts = backlog_->EventAt(i).timestamp;
  return (!delta_lo_.has_value() || *delta_lo_ < ts) && ts <= delta_hi_;
}

Status HistoryCursor::AdvanceTo(Timestamp t) {
  AUDITDB_RETURN_IF_ERROR(error_);
  error_ = Move(t);
  return error_;
}

Status HistoryCursor::Move(Timestamp t) {
  if (started_ && t < time_) {
    // A move backwards: the rows that differ are those of events between
    // the two times; rebuild from empty tables only if there are any.
    delta_begin_ = 0;
    delta_end_ = limit_;
    delta_lo_ = t;
    delta_hi_ = time_;
    changed_ = false;
    for (size_t i = 0; i < limit_ && !changed_; ++i) changed_ = InDelta(i);
    time_ = t;
    if (!changed_) return Status::Ok();
    AUDITDB_RETURN_IF_ERROR(Reset());
  } else {
    // Every event between the two times lies in [next_, end): the base
    // holds all before next_, and none from end on is stamped <= t.
    size_t end = next_;
    while (end < limit_ && EarliestFrom(end) <= t) ++end;
    delta_begin_ = next_;
    delta_end_ = end;
    delta_lo_ = started_ ? std::optional<Timestamp>(time_) : std::nullopt;
    delta_hi_ = t;
    changed_ = false;
    for (size_t i = delta_begin_; i < delta_end_ && !changed_; ++i) {
      changed_ = InDelta(i);
    }
    time_ = t;
    if (!started_) {
      started_ = true;
      AUDITDB_RETURN_IF_ERROR(Reset());
    } else if (!changed_) {
      return Status::Ok();
    }
  }
  // The forks are rebuilt below; dropping them first lets the base write
  // in place.
  forks_.clear();
  for (; next_ < limit_; ++next_) {
    const ChangeEvent& event = backlog_->EventAt(next_);
    if (event.timestamp > t) break;
    auto table = base_.GetTable(event.table);
    if (!table.ok()) return table.status();
    AUDITDB_RETURN_IF_ERROR(Apply(event, *table));
  }
  // Events stamped <= t but captured after one stamped later.
  for (size_t i = next_; i < limit_ && EarliestFrom(i) <= t; ++i) {
    const ChangeEvent& event = backlog_->EventAt(i);
    if (event.timestamp > t) continue;
    auto fork = forks_.find(event.table);
    if (fork == forks_.end()) {
      auto table = base_.GetTable(event.table);
      if (!table.ok()) return table.status();
      fork = forks_.emplace(event.table, (*table)->Fork()).first;
    }
    AUDITDB_RETURN_IF_ERROR(Apply(event, fork->second.get()));
  }
  return Status::Ok();
}

Status HistoryCursor::Reset() {
  base_ = Snapshot(time_);
  forks_.clear();
  next_ = 0;
  for (const TableSchema& schema : schemas_) {
    auto table = base_.AddTable(schema);
    if (!table.ok()) return table.status();
  }
  return Status::Ok();
}

Status HistoryCursor::Apply(const ChangeEvent& event, Table* table) {
  ++events_applied_;
  switch (event.op) {
    case ChangeEvent::Op::kInsert:
      return table->InsertWithTid(event.row.tid, event.row.values);
    case ChangeEvent::Op::kUpdate:
      return table->Update(event.row.tid, event.row.values);
    case ChangeEvent::Op::kDelete:
      return table->Delete(event.row.tid).status();
  }
  return Status::Internal("unknown backlog event op");
}

Status VisitStatesInTimeOrder(
    const Backlog& backlog, size_t limit, const std::vector<Timestamp>& times,
    const std::function<Status(size_t k, const DatabaseView& state,
                               bool changed)>& visit) {
  auto cursor = backlog.OpenCursor(limit);
  if (!cursor.ok()) return cursor.status();
  std::vector<size_t> order(times.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return times[a] < times[b]; });
  bool first = true;
  for (size_t k : order) {
    AUDITDB_RETURN_IF_ERROR(cursor->AdvanceTo(times[k]));
    AUDITDB_RETURN_IF_ERROR(
        visit(k, cursor->View(), first || cursor->changed()));
    first = false;
  }
  return Status::Ok();
}

}  // namespace auditdb
