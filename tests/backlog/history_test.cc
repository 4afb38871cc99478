/// The history cursor against the replay-from-zero oracle: at every
/// version of seeded random histories (inserts, updates, deletes,
/// re-inserts of retired tids, equal timestamps, several tables,
/// out-of-order prefixes) a cursor view must equal the replayed state in
/// rows, row order and tids, and the tids it reports as touched must
/// cover every row that changed.

#include "src/backlog/history.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/backlog/backlog.h"
#include "src/common/random.h"
#include "tests/backlog/replay_oracle.h"

namespace auditdb {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

/// Renders everything a reader of a table version can observe: rows in
/// order with tids and values.
std::string Observe(const TableVersion& table) {
  std::string out = table.name() + " size=" + std::to_string(table.size());
  for (const Row& row : table.rows()) {
    out += "\n  " + TidToString(row.tid) + ":";
    for (const Value& v : row.values) out += " " + v.ToDisplayString();
  }
  return out;
}

std::string Observe(const DatabaseView& view) {
  std::string out;
  for (const auto& name : view.TableNames()) {
    out += Observe(**view.GetTable(name)) + "\n";
  }
  return out;
}

/// Row of `tid` rendered, or "absent".
std::string RowOf(const DatabaseView& view, const std::string& table,
                  Tid tid) {
  auto version = view.GetTable(table);
  if (!version.ok()) return "no table";
  auto row = (*version)->Get(tid);
  if (!row.ok()) return "absent";
  std::string out;
  for (const Value& v : (*row)->values) out += v.ToDisplayString() + ",";
  return out;
}

/// A seeded random history over three tables: A(k, n), B(k, w) and C(x),
/// which no audit reads.
struct RandomHistory {
  Database db;
  Backlog backlog;
  std::vector<Timestamp> stamps;

  RandomHistory(uint64_t seed, size_t events, bool out_of_order) {
    backlog.Attach(&db);
    EXPECT_TRUE(db.CreateTable(TableSchema("A", {{"k", ValueType::kInt},
                                                 {"n", ValueType::kInt}}))
                    .ok());
    EXPECT_TRUE(db.CreateTable(TableSchema("B", {{"k", ValueType::kInt},
                                                 {"w", ValueType::kInt}}))
                    .ok());
    EXPECT_TRUE(
        db.CreateTable(TableSchema("C", {{"x", ValueType::kInt}})).ok());

    Random rng(seed);
    const char* kTables[] = {"A", "B", "C"};
    std::map<std::string, std::vector<Tid>> live, retired;
    // Each tid's own events stay in time order, so every prefix replays
    // (an update stamped before its tuple's insert could not).
    std::map<std::pair<std::string, Tid>, int64_t> last;
    int64_t ts = 10;
    for (size_t i = 0; i < events; ++i) {
      // Equal timestamps are common; an out-of-order history sometimes
      // steps back in time.
      if (out_of_order && rng.OneIn(0.3)) {
        ts = std::max<int64_t>(1, ts - static_cast<int64_t>(rng.Uniform(8)));
      } else {
        ts += static_cast<int64_t>(rng.Uniform(3));
      }
      const std::string table = kTables[rng.Uniform(3)];
      auto values = [&] {
        std::vector<Value> out = {Value::Int(rng.UniformInt(0, 9))};
        if (table != "C") out.push_back(Value::Int(rng.UniformInt(0, 9)));
        return out;
      };
      auto stamp = [&](Tid tid) {
        int64_t& at = last[{table, tid}];
        at = std::max(at, ts);
        stamps.push_back(Ts(at));
        return Ts(at);
      };
      std::vector<Tid>& rows = live[table];
      uint64_t op = rows.size() < 3 ? 0 : rng.Uniform(10);
      if (op <= 2) {
        Tid tid = (*db.GetTable(table))->next_tid();
        EXPECT_TRUE(db.InsertWithTid(table, tid, values(), stamp(tid)).ok());
        rows.push_back(tid);
      } else if (op == 3 && !retired[table].empty()) {
        // Re-insert a retired tid.
        std::vector<Tid>& gone = retired[table];
        size_t at = rng.Uniform(gone.size());
        EXPECT_TRUE(
            db.InsertWithTid(table, gone[at], values(), stamp(gone[at])).ok());
        rows.push_back(gone[at]);
        gone.erase(gone.begin() + static_cast<ptrdiff_t>(at));
      } else if (op <= 5) {
        size_t at = rng.Uniform(rows.size());
        EXPECT_TRUE(db.Delete(table, rows[at], stamp(rows[at])).ok());
        retired[table].push_back(rows[at]);
        rows.erase(rows.begin() + static_cast<ptrdiff_t>(at));
      } else {
        Tid tid = rows[rng.Uniform(rows.size())];
        EXPECT_TRUE(db.Update(table, tid, values(), stamp(tid)).ok());
      }
    }
    std::sort(stamps.begin(), stamps.end());
    stamps.erase(std::unique(stamps.begin(), stamps.end()), stamps.end());
  }

  /// Every event time, the instants just before and between them, and
  /// times before the first and after the last event.
  std::vector<Timestamp> ProbeTimes() const {
    std::vector<Timestamp> out = {Ts(0)};
    for (Timestamp t : stamps) {
      out.push_back(t.AddMicros(-1));
      out.push_back(t);
    }
    out.push_back(Ts(1000000));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
};

/// Walks `times` with one cursor and checks every state against the
/// oracle, and that Touched() covers every changed row.
void CheckWalk(const RandomHistory& history,
               const std::vector<Timestamp>& times, size_t limit) {
  auto cursor = history.backlog.OpenCursor(limit);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::optional<Snapshot> previous;
  for (Timestamp t : times) {
    ASSERT_TRUE(cursor->AdvanceTo(t).ok());
    auto expected =
        oracle::ReplaySnapshotAt(history.db, history.backlog, t, limit);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    const DatabaseView got = cursor->View();
    const DatabaseView want = expected->View();
    ASSERT_EQ(Observe(got), Observe(want)) << "at " << t.ToString();
    if (previous.has_value()) {
      const DatabaseView before = previous->View();
      bool any_change = false;
      for (const std::string table : {"A", "B", "C"}) {
        std::set<Tid> tids;
        for (const Row& row : (*before.GetTable(table))->rows()) {
          tids.insert(row.tid);
        }
        for (const Row& row : (*want.GetTable(table))->rows()) {
          tids.insert(row.tid);
        }
        const std::vector<Tid>& touched = cursor->Touched(table);
        ASSERT_TRUE(std::is_sorted(touched.begin(), touched.end()));
        for (Tid tid : tids) {
          if (RowOf(before, table, tid) == RowOf(want, table, tid)) continue;
          any_change = true;
          EXPECT_TRUE(std::binary_search(touched.begin(), touched.end(), tid))
              << table << " " << TidToString(tid) << " changed but was not "
              << "touched, at " << t.ToString();
        }
      }
      if (any_change) {
        EXPECT_TRUE(cursor->changed());
      }
    }
    previous = std::move(*expected);
  }
}

class HistoryCursorDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistoryCursorDifferentialTest, ForwardWalkMatchesReplay) {
  RandomHistory history(GetParam(), 300, /*out_of_order=*/false);
  ASSERT_TRUE(oracle::InTimeOrder(history.backlog));
  CheckWalk(history, history.ProbeTimes(), Backlog::kNoLimit);
}

TEST_P(HistoryCursorDifferentialTest, OutOfOrderPrefixMatchesReplay) {
  RandomHistory history(GetParam(), 200, /*out_of_order=*/true);
  ASSERT_FALSE(oracle::InTimeOrder(history.backlog));
  CheckWalk(history, history.ProbeTimes(), Backlog::kNoLimit);
}

TEST_P(HistoryCursorDifferentialTest, PinnedPrefixHidesLaterEvents) {
  RandomHistory history(GetParam(), 200, /*out_of_order=*/false);
  CheckWalk(history, history.ProbeTimes(),
            history.backlog.event_count() / 2);
}

TEST_P(HistoryCursorDifferentialTest, RandomJumpsMatchReplay) {
  RandomHistory history(GetParam(), 150, /*out_of_order=*/GetParam() % 2);
  std::vector<Timestamp> times = history.ProbeTimes();
  Random rng(GetParam() * 31 + 1);
  std::vector<Timestamp> jumps;
  for (size_t i = 0; i < 40; ++i) {
    jumps.push_back(times[rng.Uniform(times.size())]);
  }
  CheckWalk(history, jumps, Backlog::kNoLimit);
}

TEST_P(HistoryCursorDifferentialTest, SnapshotAtMatchesReplay) {
  RandomHistory history(GetParam(), 200, /*out_of_order=*/GetParam() % 2);
  for (Timestamp t : history.ProbeTimes()) {
    auto got = history.backlog.SnapshotAt(t);
    auto want = oracle::ReplaySnapshotAt(history.db, history.backlog, t);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(got->time(), t);
    ASSERT_EQ(Observe(got->View()), Observe(want->View()))
        << "at " << t.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistoryCursorDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(HistoryCursorTest, SkewedClocksRollForwardWithoutReplay) {
  // Two writers take turns; the second one's clock runs 5 s behind, so
  // every event it writes is stamped before the one captured just before
  // it. Every state must still match the replay, and the walk must apply
  // each event a bounded number of times (a replay per version would
  // apply ~versions x events / 2).
  RandomHistory history(21, 0, /*out_of_order=*/false);
  Random rng(21);
  for (int64_t k = 1; k <= 40; ++k) {
    ASSERT_TRUE(history.db
                    .InsertWithTid("A", k, {Value::Int(k % 10), Value::Int(0)},
                                   Ts(1))
                    .ok());
  }
  constexpr int64_t kEvents = 400;
  for (int64_t i = 0; i < kEvents; ++i) {
    const Tid tid = 1 + static_cast<Tid>(rng.Uniform(40));
    const int64_t at = 100 + 2 * i - (i % 2 == 1 ? 5 : 0);
    ASSERT_TRUE(history.db
                    .Update("A", tid,
                            {Value::Int(rng.UniformInt(0, 9)),
                             Value::Int(rng.UniformInt(0, 9))},
                            Ts(at))
                    .ok());
  }
  ASSERT_FALSE(oracle::InTimeOrder(history.backlog));
  std::vector<Timestamp> times = {Ts(1)};
  for (int64_t at = 90; at <= 100 + 2 * kEvents; ++at) times.push_back(Ts(at));
  CheckWalk(history, times, Backlog::kNoLimit);

  auto cursor = history.backlog.OpenCursor();
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor->out_of_order_events(), static_cast<size_t>(kEvents / 2));
  for (Timestamp t : times) ASSERT_TRUE(cursor->AdvanceTo(t).ok());
  const uint64_t events = history.backlog.event_count();
  EXPECT_LT(cursor->events_applied(), 4 * events);
}

TEST(HistoryCursorTest, PinnedViewsSurviveLaterMoves) {
  RandomHistory history(9, 200, /*out_of_order=*/false);
  auto cursor = history.backlog.OpenCursor();
  ASSERT_TRUE(cursor.ok());
  std::vector<std::pair<Timestamp, DatabaseView>> kept;
  for (Timestamp t : history.ProbeTimes()) {
    ASSERT_TRUE(cursor->AdvanceTo(t).ok());
    kept.emplace_back(t, cursor->View());
  }
  for (const auto& [t, view] : kept) {
    auto want = oracle::ReplaySnapshotAt(history.db, history.backlog, t);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(Observe(view), Observe(want->View())) << "at " << t.ToString();
  }
}

TEST(HistoryCursorTest, UntouchedTableKeepsItsVersion) {
  RandomHistory history(11, 0, /*out_of_order=*/false);
  ASSERT_TRUE(history.db.Insert("A", {Value::Int(1), Value::Int(1)}, Ts(1))
                  .ok());
  ASSERT_TRUE(history.db.Insert("B", {Value::Int(1), Value::Int(1)}, Ts(1))
                  .ok());
  ASSERT_TRUE(history.db.Insert("B", {Value::Int(2), Value::Int(2)}, Ts(2))
                  .ok());
  auto cursor = history.backlog.OpenCursor();
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE(cursor->AdvanceTo(Ts(1)).ok());
  const DatabaseView first = cursor->View();
  ASSERT_TRUE(cursor->AdvanceTo(Ts(2)).ok());
  const DatabaseView second = cursor->View();
  // Same version object, so the columnar batch built for one pin serves
  // the next.
  EXPECT_EQ(*first.GetTable("A"), *second.GetTable("A"));
  EXPECT_NE(*first.GetTable("B"), *second.GetTable("B"));
  EXPECT_TRUE(cursor->Touched("A").empty());
  EXPECT_EQ(cursor->Touched("B"), std::vector<Tid>{2});
  EXPECT_EQ(cursor->events_applied(), 3u);
}

TEST(HistoryCursorTest, QuietMoveChangesNothing) {
  RandomHistory history(12, 0, /*out_of_order=*/false);
  ASSERT_TRUE(history.db.Insert("C", {Value::Int(1)}, Ts(5)).ok());
  auto cursor = history.backlog.OpenCursor();
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE(cursor->AdvanceTo(Ts(1)).ok());
  EXPECT_FALSE(cursor->changed());
  ASSERT_TRUE(cursor->AdvanceTo(Ts(5)).ok());
  EXPECT_TRUE(cursor->changed());
  ASSERT_TRUE(cursor->AdvanceTo(Ts(9)).ok());
  EXPECT_FALSE(cursor->changed());
}

TEST(HistoryCursorTest, UnattachedBacklogFails) {
  Backlog backlog;
  EXPECT_FALSE(backlog.OpenCursor().ok());
}

TEST(HistoryCursorTest, VisitsStatesInTimeOrderAndReportsChanges) {
  RandomHistory history(13, 0, /*out_of_order=*/false);
  ASSERT_TRUE(history.db.Insert("A", {Value::Int(1), Value::Int(1)}, Ts(2))
                  .ok());
  ASSERT_TRUE(history.db.Insert("A", {Value::Int(2), Value::Int(2)}, Ts(4))
                  .ok());
  const std::vector<Timestamp> times = {Ts(5), Ts(1), Ts(3), Ts(4), Ts(3)};
  std::vector<size_t> order;
  std::vector<bool> changed;
  std::vector<size_t> sizes(times.size());
  ASSERT_TRUE(VisitStatesInTimeOrder(
                  history.backlog, Backlog::kNoLimit, times,
                  [&](size_t k, const DatabaseView& state, bool fresh) {
                    order.push_back(k);
                    changed.push_back(fresh);
                    sizes[k] = (*state.GetTable("A"))->size();
                    return Status::Ok();
                  })
                  .ok());
  EXPECT_EQ(order, (std::vector<size_t>{1, 2, 4, 3, 0}));
  EXPECT_EQ(changed, (std::vector<bool>{true, true, false, true, false}));
  EXPECT_EQ(sizes, (std::vector<size_t>{2, 0, 1, 2, 1}));
}

}  // namespace
}  // namespace auditdb
