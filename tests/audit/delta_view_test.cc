/// The delta target view and the cursor-driven audit paths against the
/// replay oracles (tests/backlog/replay_oracle.h):
///   - ComputeTargetViewOverVersions equals a full recompute at every
///     version (facts, their order, version labels, tid bitmaps) under
///     every executor option combination (hash join and compiled scan,
///     each on and off);
///   - the serial Auditor and the AuditScheduler produce the oracle
///     audit's CanonicalString on churned hospital worlds, in order and
///     out of timestamp order;
///   - an error in a delta evaluation stays an error.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/audit/audit_parser.h"
#include "src/audit/audit_stages.h"
#include "src/audit/auditor.h"
#include "src/audit/target_view.h"
#include "src/common/random.h"
#include "src/service/scheduler.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"
#include "tests/backlog/replay_oracle.h"

namespace auditdb {
namespace audit {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

constexpr char kWindow[] =
    "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 ";

const std::vector<std::string>& Audits() {
  static const std::vector<std::string> audits = {
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'",
      "THRESHOLD 3 AUDIT (zipcode),[disease] FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid",
      "AUDIT disease FROM P-Health WHERE ward = 'W3'",
      "AUDIT (name,salary) FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid = P-Health.pid AND "
      "P-Personal.pid = P-Employ.pid AND disease = 'diabetic'",
      "AUDIT (name,zipcode) FROM P-Health, P-Personal "
      "WHERE P-Personal.pid = P-Health.pid AND zipcode > '1450'",
  };
  return audits;
}

/// A churned hospital: a populated world, a generated query log, churn
/// updates interleaved with it, plus inserts, deletes and re-inserts of
/// P-Health and P-Personal rows. Out of order, those extra writes are
/// stamped anywhere in the log's span, so capture order is not time
/// order.
struct ChurnWorld {
  Database db;
  Backlog backlog;
  QueryLog log;

  ChurnWorld(uint64_t seed, size_t patients, size_t queries, size_t updates,
             bool out_of_order) {
    backlog.Attach(&db);
    workload::HospitalConfig hospital;
    hospital.num_patients = patients;
    hospital.seed = seed;
    hospital.diabetic_fraction = 0.3;
    hospital.num_zipcodes = 8;
    hospital.num_wards = 5;
    EXPECT_TRUE(workload::PopulateHospital(&db, hospital, Ts(1)).ok());
    workload::WorkloadConfig config;
    config.num_queries = queries;
    config.start = Ts(100);
    config.seed = seed;
    EXPECT_TRUE(workload::GenerateWorkload(&log, config, hospital).ok());
    rng_ = Random(seed * 7 + 3);

    // Churn in small GenerateChurn batches. In order, each batch is
    // followed by an insert, delete or re-insert of a P-Health or
    // P-Personal row stamped where it falls in the timeline. Out of order,
    // those writes come after all the churn, stamped anywhere in the log's
    // span (never before an earlier event of the same tuple, so every
    // prefix replays).
    const int64_t spacing =
        static_cast<int64_t>(queries) * 1000000 /
        static_cast<int64_t>(std::max<size_t>(updates, 1));
    Timestamp ts = Ts(100).AddMicros(1000000 / 3);
    for (size_t done = 0; done < updates; done += 4) {
      workload::ChurnConfig churn;
      churn.num_updates = std::min<size_t>(4, updates - done);
      churn.seed = seed * 1000 + done;
      churn.start = ts;
      churn.spacing_micros = spacing;
      EXPECT_TRUE(workload::GenerateChurn(&db, churn, hospital).ok());
      ts = ts.AddMicros(spacing * static_cast<int64_t>(churn.num_updates));
      if (!out_of_order) ExtraWrite(ts);
    }
    for (size_t i = 0; out_of_order && i < updates / 4; ++i) {
      ExtraWrite(Ts(100 + static_cast<int64_t>(rng_.Uniform(queries))));
    }
  }

 private:
  /// The latest timestamp of any event of `tid` in `table`, or `at`.
  Timestamp NotBeforeHistory(const std::string& table, Tid tid,
                             Timestamp at) const {
    for (size_t i = 0; i < backlog.event_count(); ++i) {
      const ChangeEvent& event = backlog.EventAt(i);
      if (event.table == table && event.row.tid == tid &&
          at < event.timestamp) {
        at = event.timestamp;
      }
    }
    return at;
  }

  void ExtraWrite(Timestamp at) {
    const std::string table = rng_.OneIn(0.5) ? "P-Health" : "P-Personal";
    auto live = db.GetTable(table);
    uint64_t op = rng_.Uniform(3);
    if (op == 0 && !retired_.empty()) {
      auto [name, row] = retired_.back();
      retired_.pop_back();
      EXPECT_TRUE(db.InsertWithTid(name, row.tid, row.values,
                                   NotBeforeHistory(name, row.tid, at))
                      .ok());
    } else if (op == 1 && (*live)->size() > 1) {
      const Row row = (*live)->rows()[rng_.Uniform((*live)->size())];
      retired_.emplace_back(table, row);
      EXPECT_TRUE(
          db.Delete(table, row.tid, NotBeforeHistory(table, row.tid, at))
              .ok());
    } else if ((*live)->size() > 0) {
      std::vector<Value> values =
          (*live)->rows()[rng_.Uniform((*live)->size())].values;
      EXPECT_TRUE(db.Insert(table, std::move(values), at).ok());
    }
  }

  Random rng_{0};
  std::vector<std::pair<std::string, Row>> retired_;
};

std::string Render(const TargetView& view) {
  std::string out = view.ToString();
  for (const auto& fact : view.facts) {
    out += "@" + fact.version.ToString() + "\n";
  }
  return out;
}

AuditExpression Parse(const std::string& text, const Database& db) {
  auto expr = ParseAudit(kWindow + text, Ts(1000000));
  EXPECT_TRUE(expr.ok()) << expr.status().ToString();
  EXPECT_TRUE(expr->Qualify(db.catalog()).ok());
  return std::move(*expr);
}

void ExpectSameView(const AuditExpression& expr, const ChurnWorld& world,
                    const ExecOptions& options, const std::string& label) {
  auto got = ComputeTargetViewOverVersions(expr, world.backlog, options);
  auto want = oracle::RecomputeTargetViewOverVersions(expr, world.db,
                                                      world.backlog, options);
  ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
  ASSERT_TRUE(want.ok()) << label << ": " << want.status().ToString();
  EXPECT_EQ(got->tables, want->tables) << label;
  EXPECT_EQ(got->columns, want->columns) << label;
  ASSERT_EQ(got->size(), want->size()) << label;
  EXPECT_EQ(Render(*got), Render(*want)) << label;
  EXPECT_TRUE(got->table_tids == want->table_tids) << label;
}

class DeltaTargetViewDifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(DeltaTargetViewDifferentialTest, MatchesFullRecomputeUnderAllPlans) {
  auto [seed, out_of_order] = GetParam();
  ChurnWorld world(seed, 40, 120, 160, out_of_order);
  ASSERT_EQ(oracle::InTimeOrder(world.backlog), !out_of_order);
  for (const std::string& text : Audits()) {
    AuditExpression expr = Parse(text, world.db);
    for (int mask = 0; mask < 4; ++mask) {
      ExecOptions options;
      options.hash_join = (mask & 1) != 0;
      options.compiled_scan = (mask & 2) != 0;
      ExpectSameView(expr, world, options,
                     text + " mask=" + std::to_string(mask));
    }
  }
}

TEST_P(DeltaTargetViewDifferentialTest, PinnedPrefixMatchesRecompute) {
  auto [seed, out_of_order] = GetParam();
  ChurnWorld world(seed, 30, 80, 120, out_of_order);
  const size_t limit = world.backlog.event_count() * 2 / 3;
  for (const std::string& text : Audits()) {
    AuditExpression expr = Parse(text, world.db);
    auto got = ComputeTargetViewOverVersions(expr, world.backlog,
                                             ExecOptions{}, limit);
    auto want = oracle::RecomputeTargetViewOverVersions(
        expr, world.db, world.backlog, ExecOptions{}, limit);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(Render(*got), Render(*want)) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DeltaTargetViewDifferentialTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u), ::testing::Bool()));

/// The serial audit pipeline with every past state replayed from event 0
/// and U recomputed in full per version: the reference the cursor-driven
/// Auditor and AuditScheduler must match byte for byte.
Result<AuditReport> OracleAudit(const ChurnWorld& world,
                                const std::string& text,
                                const AuditOptions& options) {
  auto parsed = ParseAudit(kWindow + text, Ts(1000000));
  if (!parsed.ok()) return parsed.status();
  AuditExpression expr = std::move(*parsed);
  const DatabaseView live = world.db.Snapshot();
  AUDITDB_RETURN_IF_ERROR(expr.Qualify(live.catalog()));
  AuditReport report;
  report.expression = expr.ToString();
  report.num_logged = world.log.size();
  StaticScreenResult screened =
      StaticScreenRange(expr, world.log, live.catalog(), options.candidate, 0,
                        world.log.size());
  report.verdicts = std::move(screened.verdicts);
  report.num_admitted = screened.num_admitted;
  report.num_candidates = screened.candidates.size();

  auto view = oracle::RecomputeTargetViewOverVersions(
      expr, world.db, world.backlog, options.exec);
  if (!view.ok()) return view.status();
  report.target_view_size = view->size();
  auto schemes = BuildSchemes(expr);
  report.num_schemes = schemes.size();

  std::vector<AccessProfile> profiles;
  std::vector<int64_t> profile_ids;
  for (const auto& candidate : screened.candidates) {
    const LoggedQuery& logged = world.log.Entry(candidate.log_index);
    auto state =
        oracle::ReplaySnapshotAt(world.db, world.backlog, logged.timestamp);
    if (!state.ok()) return state.status();
    auto profile =
        ComputeAccessProfile(*candidate.stmt, state->View(), options.exec);
    if (!profile.ok()) continue;
    profiles.push_back(std::move(*profile));
    profile_ids.push_back(logged.id);
    ++report.num_executed;
  }

  std::vector<const AccessProfile*> batch;
  for (const auto& p : profiles) batch.push_back(&p);
  auto verdict = CheckBatchSuspicion(*view, schemes, expr.threshold,
                                     expr.indispensable, batch,
                                     options.suspicion);
  if (!verdict.ok()) return verdict.status();
  report.batch_suspicious = verdict->suspicious;
  report.evidence = verdict->Describe(*view, schemes);
  if (options.per_query_verdicts) {
    std::unordered_map<int64_t, size_t> profile_of;
    for (size_t i = 0; i < profile_ids.size(); ++i) {
      profile_of[profile_ids[i]] = i;
    }
    for (auto& v : report.verdicts) {
      auto it = profile_of.find(v.query_id);
      if (it == profile_of.end()) continue;
      auto single = CheckBatchSuspicion(*view, schemes, expr.threshold,
                                        expr.indispensable,
                                        {&profiles[it->second]},
                                        options.suspicion);
      if (!single.ok()) return single.status();
      v.suspicious_alone = single->suspicious;
    }
  }
  if (options.minimize_batch && report.batch_suspicious) {
    auto minimal = MinimizeBatch(*view, schemes, expr, profiles, profile_ids,
                                 options.suspicion);
    if (!minimal.ok()) return minimal.status();
    report.minimal_batch = std::move(*minimal);
  }
  return report;
}

class HistoryAuditDifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(HistoryAuditDifferentialTest, AuditorAndSchedulerMatchOracle) {
  auto [seed, out_of_order] = GetParam();
  ChurnWorld world(seed, 40, 150, 200, out_of_order);
  ASSERT_EQ(oracle::InTimeOrder(world.backlog), !out_of_order);
  Auditor auditor(&world.db, &world.backlog, &world.log);
  service::ThreadPoolOptions pool_options;
  pool_options.num_threads = 3;
  service::ThreadPool pool(pool_options);
  service::SchedulerOptions scheduler_options;
  scheduler_options.exec_shard_size = 5;
  service::AuditScheduler scheduler(&pool, scheduler_options);
  for (const std::string& text : Audits()) {
    AuditOptions options;
    auto want = OracleAudit(world, text, options);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto serial = auditor.Audit(kWindow + text, Ts(1000000), options);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_EQ(serial->CanonicalString(), want->CanonicalString()) << text;
    auto parallel = scheduler.Run(world.db, world.backlog, world.log,
                                  kWindow + text, Ts(1000000), options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel->CanonicalString(), want->CanonicalString()) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, HistoryAuditDifferentialTest,
    ::testing::Combine(::testing::Values(1u, 2u), ::testing::Bool()));

/// T(a, b): `10 / b` divides by zero once a row's b becomes 0.
class DeltaTargetViewErrorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backlog_.Attach(&db_);
    ASSERT_TRUE(db_.CreateTable(TableSchema("T", {{"a", ValueType::kInt},
                                                  {"b", ValueType::kInt}}))
                    .ok());
    ASSERT_TRUE(
        db_.CreateTable(TableSchema("U", {{"a", ValueType::kInt}})).ok());
    for (int64_t i = 1; i <= 5; ++i) {
      ASSERT_TRUE(db_.Insert("T", {Value::Int(i), Value::Int(2)}, Ts(1)).ok());
      ASSERT_TRUE(db_.Insert("U", {Value::Int(i)}, Ts(1)).ok());
    }
  }

  AuditExpression MustParse(const std::string& text) {
    auto expr = ParseAudit(
        "DATA-INTERVAL 1/1/1970 to 2/1/1970 " + text, Ts(1000000));
    EXPECT_TRUE(expr.ok()) << expr.status().ToString();
    EXPECT_TRUE(expr->Qualify(db_.catalog()).ok());
    return std::move(*expr);
  }

  Database db_;
  Backlog backlog_;
};

TEST_F(DeltaTargetViewErrorTest, ErrorInDeltaRunFailsTheView) {
  ASSERT_TRUE(db_.Update("T", 3, {Value::Int(3), Value::Int(0)}, Ts(50)).ok());
  for (const std::string text :
       {"AUDIT a FROM T WHERE 10 / b > 1",
        "AUDIT T.a FROM U, T WHERE U.a = T.a AND 10 / T.b > 1"}) {
    AuditExpression expr = MustParse(text);
    for (int mask = 0; mask < 4; ++mask) {
      ExecOptions options;
      options.hash_join = (mask & 1) != 0;
      options.compiled_scan = (mask & 2) != 0;
      auto want = oracle::RecomputeTargetViewOverVersions(expr, db_,
                                                          backlog_, options);
      ASSERT_FALSE(want.ok()) << text;
      auto got = ComputeTargetViewOverVersions(expr, backlog_, options);
      EXPECT_FALSE(got.ok()) << text << " mask=" << mask;
      if (!got.ok()) {
        EXPECT_EQ(got.status().code(), want.status().code());
      }
    }
  }
}

TEST_F(DeltaTargetViewErrorTest, ErrorFailsTheAuditNotTheFact) {
  ASSERT_TRUE(db_.Update("T", 3, {Value::Int(3), Value::Int(0)}, Ts(50)).ok());
  QueryLog log;
  log.Append("SELECT a FROM T", Ts(60), "alice", "doctor", "treatment");
  Auditor auditor(&db_, &backlog_, &log);
  auto report = auditor.Audit(
      "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 "
      "AUDIT a FROM T WHERE 10 / b > 1",
      Ts(1000000));
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace audit
}  // namespace auditdb
