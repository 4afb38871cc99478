#ifndef AUDITDB_BACKLOG_BACKLOG_H_
#define AUDITDB_BACKLOG_BACKLOG_H_

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/backlog/history.h"
#include "src/backlog/snapshot.h"
#include "src/common/append_log.h"
#include "src/common/timestamp.h"
#include "src/storage/database.h"

namespace auditdb {

/// The paper's backlog mechanism: database triggers record every insert,
/// update and delete into per-table backlog relations (b-<table>), from
/// which the state of the database at any past point in time can be
/// recovered. Attach() must run before data is loaded so the event stream
/// is complete.
///
/// Events live in an append-only chunked log: audits read any prefix
/// wait-free while the writer keeps appending. A pinned audit captures
/// event_count() once and passes it as `limit` to the history entry points
/// below, so the whole audit sees one frozen backlog no matter how many
/// writes land meanwhile.
class Backlog {
 public:
  /// "No limit": read the backlog up to its current published size.
  static constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();

  Backlog() = default;
  Backlog(const Backlog&) = delete;
  Backlog& operator=(const Backlog&) = delete;

  /// Hooks this backlog into `db`'s trigger stream and remembers `db` for
  /// schema lookup. `db` must outlive the backlog.
  void Attach(Database* db);

  /// Number of events captured so far. Everything below this index is
  /// immutable and safe to read concurrently with appends.
  size_t event_count() const { return events_.size(); }

  /// Event `i` (capture order); the caller must have observed
  /// event_count() > i.
  const ChangeEvent& EventAt(size_t i) const { return events_.At(i); }

  /// Events for one table, in capture order — the contents of the paper's
  /// b-<table> backlog relation. Only the first min(limit, event_count())
  /// events are considered.
  std::vector<ChangeEvent> EventsForTable(const std::string& table,
                                          size_t limit = kNoLimit) const;

  /// Materializes the paper's b-<table> backlog relation as an ordinary
  /// queryable table named `b-<table>`, with schema
  ///   (op STRING, ts TIMESTAMP, tid INT, <original columns>)
  /// and one row per captured event (the after-image for inserts and
  /// updates, the before-image for deletes). The auditor's queries like
  /// `SELECT zipcode FROM b-Patients` run on it through the normal
  /// executor via View()/DatabaseView.
  Result<std::unique_ptr<Table>> MaterializeBacklogTable(
      const std::string& table, size_t limit = kNoLimit) const;

  /// Opens a history cursor over the first min(limit, event_count())
  /// events, with one table per live table (schemas taken from the live
  /// database now).
  Result<HistoryCursor> OpenCursor(size_t limit = kNoLimit) const;

  /// Reconstructs the state of every table at time `t` (all events with
  /// timestamp <= t applied, in capture order, drawn from the first
  /// min(limit, event_count()) events): one cursor moved once.
  Result<Snapshot> SnapshotAt(Timestamp t, size_t limit = kNoLimit) const;

  /// Number of captured events with timestamp <= t among the first
  /// min(limit, event_count()). Two timestamps with equal counts see the
  /// identical database state.
  size_t EventCountAt(Timestamp t, size_t limit = kNoLimit) const;

  /// The timestamps at which a distinct database version exists within the
  /// closed interval: the state at `interval.start` plus the state after
  /// each captured change in (start, end]. This is the version set the
  /// audit DATA-INTERVAL clause ranges over.
  std::vector<Timestamp> VersionTimestamps(const TimeInterval& interval,
                                           size_t limit = kNoLimit) const;

 private:
  size_t ClampLimit(size_t limit) const {
    size_t published = events_.size();
    return limit < published ? limit : published;
  }

  Database* db_ = nullptr;
  AppendOnlyLog<ChangeEvent> events_;
};

}  // namespace auditdb

#endif  // AUDITDB_BACKLOG_BACKLOG_H_
