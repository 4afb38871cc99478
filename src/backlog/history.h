#ifndef AUDITDB_BACKLOG_HISTORY_H_
#define AUDITDB_BACKLOG_HISTORY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/backlog/snapshot.h"
#include "src/common/status.h"
#include "src/common/timestamp.h"
#include "src/storage/database.h"

namespace auditdb {

class Backlog;

/// A forward cursor over the past database states of one pinned backlog
/// prefix: the single place where backlog events are applied to tables.
///
/// The cursor owns one table per live table (same schema). AdvanceTo(t) brings them to the state at time `t` (every event
/// of the prefix with timestamp <= t applied, in capture order), and View()
/// pins that state as a DatabaseView. Tables are copy-on-write, so a pinned
/// view stays valid while the cursor moves on: later events copy only the
/// row segments they touch, and a table no event touches keeps its version
/// (and that version's built-once columnar batch) across pins.
///
/// The state at `t` is kept in two parts. The base holds the longest
/// capture-order run of events stamped at or before `t`; moving forward
/// extends it by the events in between, never replaying it. An event
/// stamped at or before `t` but captured after one stamped later (writers
/// whose clocks disagree stamp such backlogs) cannot join the base yet: it
/// goes to copy-on-write forks of the base tables it touches, rebuilt at
/// each move from the events of that skew window alone. A move backwards
/// rebuilds from empty tables.
///
/// Not thread-safe; the views it hands out are. The backlog must outlive
/// the cursor.
class HistoryCursor {
 public:
  /// Use Backlog::OpenCursor. `tables` are the schemas of the tables to
  /// maintain; `limit` must not exceed the backlog's published event
  /// count.
  HistoryCursor(const Backlog* backlog, size_t limit,
                std::vector<TableSchema> tables);

  /// Moves the state to time `t`. An error (an event that cannot apply)
  /// is sticky: every later call returns it.
  Status AdvanceTo(Timestamp t);

  /// Pins the current state. Drop the view before the next AdvanceTo when
  /// it is no longer needed, so the cursor can write in place instead of
  /// copying shared segments.
  DatabaseView View() const;

  /// Tids of `table`, ascending, whose row may differ between the state
  /// before the last AdvanceTo and the state after it: the tids of every
  /// event with a timestamp between the two times (after the first move:
  /// every event applied). Every other row is unchanged in values and
  /// presence. Computed on demand from the events in between.
  std::vector<Tid> Touched(const std::string& table) const;

  /// Whether the last AdvanceTo changed anything (some event lies
  /// between the two times).
  bool changed() const { return changed_; }

  /// Events applied to tables so far, over all moves and rebuilds.
  uint64_t events_applied() const { return events_applied_; }

  /// Events of the prefix stamped earlier than an event captured before
  /// them: the ones that may have to wait outside the base.
  size_t out_of_order_events() const { return out_of_order_; }

  /// Hands over the current state as a Snapshot at the last AdvanceTo
  /// time.
  Snapshot Release() &&;

 private:
  Status Move(Timestamp t);
  /// Fresh empty tables.
  Status Reset();
  Status Apply(const ChangeEvent& event, Table* table);
  /// Whether event `i` lies between the previous state and this one.
  bool InDelta(size_t i) const;
  /// The earliest timestamp among events [i, limit_).
  Timestamp EarliestFrom(size_t i) const;

  const Backlog* backlog_;
  size_t limit_;
  std::vector<TableSchema> schemas_;
  size_t out_of_order_ = 0;
  /// EarliestFrom's table; empty when the prefix is in timestamp order
  /// (then it is each event's own timestamp).
  std::vector<Timestamp> earliest_from_;
  Timestamp time_;
  /// The base: events [0, next_) applied, all stamped at or before time_.
  Snapshot base_;
  size_t next_ = 0;
  /// Forks of base tables with the later-captured events stamped at or
  /// before time_ applied.
  std::map<std::string, std::unique_ptr<Table>> forks_;
  bool started_ = false;
  /// The events between the previous state and this one: those of
  /// [delta_begin_, delta_end_) stamped in (delta_lo_, delta_hi_], with
  /// no lower bound after the first move.
  size_t delta_begin_ = 0;
  size_t delta_end_ = 0;
  std::optional<Timestamp> delta_lo_;
  Timestamp delta_hi_;
  bool changed_ = false;
  uint64_t events_applied_ = 0;
  Status error_;
};

/// Visits the database state each of `times` saw, in ascending time order
/// (ties in input order), through one cursor over the first
/// min(limit, event_count()) events of `backlog`. Calls
/// `visit(k, state, changed)` with the state at times[k]; `changed` is false
/// when the state is the one the previous call saw. The state is unpinned
/// after the call unless `visit` keeps a copy. Stops at the first error.
Status VisitStatesInTimeOrder(
    const Backlog& backlog, size_t limit, const std::vector<Timestamp>& times,
    const std::function<Status(size_t k, const DatabaseView& state,
                               bool changed)>& visit);

}  // namespace auditdb

#endif  // AUDITDB_BACKLOG_HISTORY_H_
