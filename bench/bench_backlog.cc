/// Experiment P5: backlog history — past states and DATA-INTERVAL
/// versions.
///
/// Sweeps the number of captured update events and the width of the
/// DATA-INTERVAL, measuring (a) point-in-time snapshot materialization,
/// (b) target-view computation across all versions in an interval, (c)
/// the cost of candidates that share one database state vs one state
/// each, (d) pinning every version of a churned world by one roll-forward
/// history cursor vs replaying each from event 0 (the reference in
/// tests/backlog/replay_oracle.h), and (e) the phase split of one full
/// audit of such a world (the ROADMAP probe rows: patients x churn
/// updates over a 1,000-query log, in time order or stamped by two
/// skewed clocks).
///
/// Run: build/bench/bench_backlog (writes BENCH_backlog.json)

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/audit/target_view.h"
#include "src/common/random.h"
#include "tests/backlog/replay_oracle.h"

namespace {

using namespace auditdb;
using bench::Ts;

/// A world whose P-Health table receives `updates` single-column updates
/// spread over t = 1000..1000+updates seconds.
std::unique_ptr<bench::World> MakeUpdatedWorld(size_t patients,
                                               size_t updates) {
  auto world = bench::MakeWorld(patients, /*queries=*/1);
  Random rng(7);
  auto health = world->db.GetTable("P-Health");
  if (!health.ok()) std::abort();
  std::vector<Tid> tids;
  for (const auto& row : (*health)->rows()) tids.push_back(row.tid);
  static const char* kDiseases[] = {"flu", "diabetic", "asthma", "anemia"};
  for (size_t i = 0; i < updates; ++i) {
    Tid tid = tids[rng.Uniform(tids.size())];
    auto status = world->db.UpdateColumn(
        "P-Health", tid, "disease",
        Value::String(kDiseases[rng.Uniform(4)]),
        Ts(1000 + static_cast<int64_t>(i)));
    if (!status.ok()) std::abort();
  }
  return world;
}

void BM_SnapshotReconstruction(benchmark::State& state) {
  const size_t updates = static_cast<size_t>(state.range(0));
  auto world = MakeUpdatedWorld(/*patients=*/500, updates);
  // Snapshot in the middle of the update stream.
  Timestamp at = Ts(1000 + static_cast<int64_t>(updates) / 2);
  for (auto _ : state) {
    auto snapshot = world->backlog.SnapshotAt(at);
    if (!snapshot.ok()) std::abort();
    benchmark::DoNotOptimize(snapshot);
  }
  state.counters["events"] =
      static_cast<double>(world->backlog.event_count());
}
BENCHMARK(BM_SnapshotReconstruction)
    ->Arg(0)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_TargetViewOverInterval(benchmark::State& state) {
  const size_t versions = static_cast<size_t>(state.range(0));
  auto world = MakeUpdatedWorld(/*patients=*/300, /*updates=*/2000);
  // Interval spanning `versions` update events.
  std::string text =
      "DATA-INTERVAL 1/1/1970:00-16-40 to " +
      Ts(1000 + static_cast<int64_t>(versions) - 1).ToString() + " " +
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'";
  auto expr = audit::ParseAudit(text, Ts(1000000));
  if (!expr.ok() || !expr->Qualify(world->db.catalog()).ok()) std::abort();
  size_t view_size = 0;
  for (auto _ : state) {
    auto view = audit::ComputeTargetViewOverVersions(*expr, world->backlog);
    if (!view.ok()) std::abort();
    view_size = view->size();
  }
  state.counters["versions"] = static_cast<double>(versions);
  state.counters["view_size"] = static_cast<double>(view_size);
}
BENCHMARK(BM_TargetViewOverInterval)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

/// State sharing: audit a log whose queries all ran between the same two
/// updates (one shared state) vs spread across update events (one state
/// per query).
void BM_AuditSnapshotLocality(benchmark::State& state) {
  const bool shared_state = state.range(0) != 0;
  const size_t queries = 200;

  auto world = bench::MakeWorld(/*patients=*/200, /*queries=*/1);
  QueryLog log;
  Random rng(11);
  for (size_t i = 0; i < queries; ++i) {
    int64_t at = shared_state ? 500 : 2000 + static_cast<int64_t>(i) * 2;
    log.Append(
        "SELECT name, disease FROM P-Personal, P-Health "
        "WHERE P-Personal.pid=P-Health.pid AND disease='diabetic'",
        Ts(at), "alice", "doctor", "treatment");
    if (!shared_state) {
      // Interleave an update so consecutive queries see distinct states.
      auto status = world->db.UpdateColumn(
          "P-Health", static_cast<Tid>(1 + rng.Uniform(200)), "ward",
          Value::String("W" + std::to_string(rng.Uniform(20) + 1)),
          Ts(2000 + static_cast<int64_t>(i) * 2 + 1));
      if (!status.ok()) std::abort();
    }
  }

  audit::Auditor auditor(&world->db, &world->backlog, &log);
  audit::AuditOptions options;
  options.minimize_batch = false;
  options.per_query_verdicts = false;
  // Pin DATA-INTERVAL to a single version so the measured difference is
  // purely the per-query state cost.
  const std::string audit_text =
      "DURING 1/1/1970 to 2/1/1970 "
      "DATA-INTERVAL 1/1/1970:00-08-20 to 1/1/1970:00-08-20 "
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'";
  for (auto _ : state) {
    auto report = auditor.Audit(audit_text, Ts(1000000), options);
    if (!report.ok()) std::abort();
    benchmark::DoNotOptimize(report);
  }
  state.SetLabel(shared_state ? "one-shared-state" : "state-per-query");
}
BENCHMARK(BM_AuditSnapshotLocality)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

/// A world shaped like the ROADMAP probe: `patients` hospital rows, a
/// 1,000-query log from t = 100 s, and `updates` GenerateChurn updates
/// from t = 100⅓ s, spaced to span the log. With `skew_s` > 0 every second
/// update comes from a writer whose clock runs `skew_s` seconds behind:
/// captured in turn, but stamped earlier than the update captured just
/// before it (an out-of-order backlog).
std::unique_ptr<bench::World> MakeChurnWorld(size_t patients, size_t updates,
                                             int64_t skew_s) {
  constexpr size_t kQueries = 1000;
  auto world = bench::MakeWorld(patients, kQueries);
  if (updates == 0) return world;
  workload::ChurnConfig churn;
  churn.num_updates = updates;
  churn.start = Ts(100).AddMicros(1000000 / 3);
  churn.spacing_micros = static_cast<int64_t>(kQueries * 1000000 / updates);
  if (skew_s == 0) {
    if (!workload::GenerateChurn(&world->db, churn, world->hospital).ok()) {
      std::abort();
    }
    return world;
  }
  for (size_t i = 0; i < updates; ++i) {
    workload::ChurnConfig one = churn;
    one.num_updates = 1;
    one.seed = churn.seed + i;
    one.start = churn.start.AddMicros(
        static_cast<int64_t>(i) * churn.spacing_micros -
        (i % 2 == 1 ? skew_s * 1000000 : 0));
    if (!workload::GenerateChurn(&world->db, one, world->hospital).ok()) {
      std::abort();
    }
  }
  return world;
}

std::unique_ptr<bench::World> MakeChurnWorld(const benchmark::State& state) {
  return MakeChurnWorld(static_cast<size_t>(state.range(0)),
                        static_cast<size_t>(state.range(1)), state.range(2));
}

std::vector<Timestamp> AllVersions(const bench::World& world) {
  return world.backlog.VersionTimestamps({Ts(0), Ts(86400)});
}

/// Every version of a churned world pinned through one history cursor.
void BM_HistoryRollForward(benchmark::State& state) {
  auto world = MakeChurnWorld(state);
  const std::vector<Timestamp> versions = AllVersions(*world);
  uint64_t events_applied = 0;
  size_t out_of_order = 0;
  for (auto _ : state) {
    auto cursor = world->backlog.OpenCursor();
    if (!cursor.ok()) std::abort();
    for (Timestamp version : versions) {
      if (!cursor->AdvanceTo(version).ok()) std::abort();
      DatabaseView view = cursor->View();
      benchmark::DoNotOptimize(view);
    }
    events_applied = cursor->events_applied();
    out_of_order = cursor->out_of_order_events();
  }
  state.counters["events_applied"] = static_cast<double>(events_applied);
  state.counters["versions_pinned"] = static_cast<double>(versions.size());
  state.counters["out_of_order_share"] =
      static_cast<double>(out_of_order) /
      static_cast<double>(world->backlog.event_count());
}

/// The same versions, each replayed into fresh tables from event 0.
void BM_HistoryReplayFromZero(benchmark::State& state) {
  auto world = MakeChurnWorld(state);
  const std::vector<Timestamp> versions = AllVersions(*world);
  uint64_t events_applied = 0;
  for (Timestamp version : versions) {
    events_applied += world->backlog.EventCountAt(version);
  }
  for (auto _ : state) {
    for (Timestamp version : versions) {
      auto snapshot =
          oracle::ReplaySnapshotAt(world->db, world->backlog, version);
      if (!snapshot.ok()) std::abort();
      DatabaseView view = snapshot->View();
      benchmark::DoNotOptimize(view);
    }
  }
  state.counters["events_applied"] = static_cast<double>(events_applied);
  state.counters["versions_pinned"] = static_cast<double>(versions.size());
}

/// Patients x churn updates x clock skew (s): the ROADMAP probe rows in
/// time order, and two of them written by two clocks 5 s apart.
void ProbeRows(benchmark::internal::Benchmark* b) {
  b->Args({300, 0, 0})
      ->Args({300, 1600, 0})
      ->Args({300, 3200, 0})
      ->Args({1000, 3200, 0})
      ->Args({300, 1600, 5})
      ->Args({1000, 3200, 5});
}
BENCHMARK(BM_HistoryRollForward)
    ->Apply(ProbeRows)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HistoryReplayFromZero)
    ->Apply(ProbeRows)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/// One default serial audit of a churned world, split by phase.
void BM_ChurnAuditPhases(benchmark::State& state) {
  auto world = MakeChurnWorld(state);
  audit::Auditor auditor(&world->db, &world->backlog, &world->log);
  double phase_ms[4] = {0, 0, 0, 0};
  size_t executed = 0;
  for (auto _ : state) {
    auto report = auditor.Audit(bench::CanonicalAudit(), Ts(1000000));
    if (!report.ok()) std::abort();
    phase_ms[0] += report->static_seconds * 1e3;
    phase_ms[1] += report->view_seconds * 1e3;
    phase_ms[2] += report->exec_seconds * 1e3;
    phase_ms[3] += report->check_seconds * 1e3;
    executed = report->num_executed;
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["static_ms"] = phase_ms[0] / n;
  state.counters["view_ms"] = phase_ms[1] / n;
  state.counters["exec_ms"] = phase_ms[2] / n;
  state.counters["check_ms"] = phase_ms[3] / n;
  state.counters["versions"] =
      static_cast<double>(AllVersions(*world).size());
  state.counters["candidates_executed"] = static_cast<double>(executed);
}
BENCHMARK(BM_ChurnAuditPhases)
    ->Apply(ProbeRows)
    ->Unit(benchmark::kMillisecond);

}  // namespace

AUDITDB_BENCH_MAIN(backlog);
