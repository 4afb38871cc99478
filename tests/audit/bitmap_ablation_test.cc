// The audit check phase against the set-based oracle (suspicion_oracle.h),
// which holds the hash/tuple-set reference the compressed tid bitmaps
// replaced: a full Auditor report must be byte-identical (CanonicalString)
// to the same report with its check-phase fields (batch verdict, evidence,
// per-query verdicts, minimal batch) recomputed by the oracle, across
// indispensability modes, value containment, and a generated workload.
// Also differentials the GranuleEnumerator validity screen against the
// oracle's NULL screen.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/audit/audit_parser.h"
#include "src/audit/auditor.h"
#include "src/audit/granule.h"
#include "src/backlog/history.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"
#include "tests/audit/suspicion_oracle.h"

namespace auditdb {
namespace audit {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

/// Audits `text` with the Auditor, recomputes the report's check phase
/// with the oracle from the same target view and the candidates' profiles
/// (each executed on its own historical state), and expects both reports
/// byte-identical. Returns the Auditor's report.
AuditReport ExpectMatchesOracle(const Database& db, const Backlog& backlog,
                                const QueryLog& log, const std::string& text,
                                const AuditOptions& options) {
  Auditor auditor(&db, &backlog, &log);
  auto report = auditor.Audit(text, Ts(1000), options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return AuditReport{};

  auto expr = ParseAudit(text, Ts(1000));
  EXPECT_TRUE(expr.ok());
  EXPECT_TRUE(expr->Qualify(db.View().catalog()).ok());
  auto view = ComputeTargetViewOverVersions(*expr, backlog);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  if (!view.ok()) return *report;
  const auto schemes = BuildSchemes(*expr);

  // Verdicts are in log order, one per entry.
  std::vector<size_t> candidates;
  std::vector<Timestamp> times;
  for (size_t i = 0; i < report->verdicts.size(); ++i) {
    if (!report->verdicts[i].candidate) continue;
    candidates.push_back(i);
    times.push_back(log.Entry(i).timestamp);
  }
  std::vector<std::optional<AccessProfile>> slots(candidates.size());
  EXPECT_TRUE(VisitStatesInTimeOrder(
                  backlog, Backlog::kNoLimit, times,
                  [&](size_t c, const DatabaseView& state, bool) {
                    auto stmt =
                        sql::ParseSelect(log.Entry(candidates[c]).sql);
                    if (!stmt.ok()) return stmt.status();
                    auto profile = ComputeAccessProfile(*stmt, state);
                    if (profile.ok()) slots[c] = std::move(*profile);
                    return Status::Ok();
                  })
                  .ok());
  std::vector<AccessProfile> profiles;
  std::vector<int64_t> ids;
  std::vector<size_t> verdict_of;
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (!slots[c].has_value()) continue;
    profiles.push_back(std::move(*slots[c]));
    ids.push_back(report->verdicts[candidates[c]].query_id);
    verdict_of.push_back(candidates[c]);
  }
  std::vector<const AccessProfile*> batch;
  for (const auto& profile : profiles) batch.push_back(&profile);

  const IndispensabilityMode mode = options.suspicion.mode;
  AuditReport recheck = *report;
  recheck.minimal_batch.clear();
  for (auto& verdict : recheck.verdicts) verdict.suspicious_alone = false;
  auto batch_result =
      oracle::CheckBatchSuspicion(*view, schemes, expr->threshold,
                                  expr->indispensable, batch, mode);
  EXPECT_TRUE(batch_result.ok());
  if (!batch_result.ok()) return *report;
  recheck.batch_suspicious = batch_result->suspicious;
  recheck.evidence = batch_result->Describe(*view, schemes);
  for (size_t p = 0; p < profiles.size(); ++p) {
    auto single = oracle::CheckBatchSuspicion(*view, schemes,
                                              expr->threshold,
                                              expr->indispensable,
                                              {&profiles[p]}, mode);
    EXPECT_TRUE(single.ok());
    recheck.verdicts[verdict_of[p]].suspicious_alone =
        single.ok() && single->suspicious;
  }
  if (recheck.batch_suspicious) {
    auto minimal =
        oracle::MinimizeBatch(*view, schemes, *expr, profiles, ids, mode);
    EXPECT_TRUE(minimal.ok());
    if (minimal.ok()) recheck.minimal_batch = *minimal;
  }
  EXPECT_EQ(report->CanonicalString(), recheck.CanonicalString());
  return *report;
}

class BitmapAblationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backlog_.Attach(&db_);
    ASSERT_TRUE(workload::BuildPaperDatabase(&db_, Ts(1)).ok());
  }

  int64_t Log(const std::string& sql, int64_t at_seconds) {
    return log_.Append(sql, Ts(at_seconds), "alice", "doctor", "treatment");
  }

  /// Audits `text` and expects the report to match the oracle's. The
  /// scenarios are built to disclose: a vacuous match on a clean report
  /// would prove nothing.
  void ExpectByteIdentical(const std::string& text,
                           const AuditOptions& options = AuditOptions{}) {
    auto report = ExpectMatchesOracle(db_, backlog_, log_, text, options);
    EXPECT_TRUE(report.batch_suspicious);
  }

  const std::string kSpan =
      "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 ";

  Database db_;
  Backlog backlog_;
  QueryLog log_;
};

TEST_F(BitmapAblationTest, PerTableModeByteIdentical) {
  Log("SELECT ward FROM P-Health WHERE ward='W11'", 10);
  Log("SELECT name, address FROM P-Personal WHERE zipcode='145568'", 20);
  Log("SELECT disease FROM P-Health WHERE disease='diabetic'", 30);
  Log("SELECT name, disease, address FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid AND P-Health.pid=P-Employ.pid "
      "AND zipcode='145568' AND disease='diabetic' AND salary > 10000",
      40);
  ExpectByteIdentical(
      kSpan +
      "AUDIT (name,disease,address) FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid and P-Health.pid=P-Employ.pid "
      "and P-Personal.zipcode='145568' and P-Employ.salary > 10000 "
      "and P-Health.disease='diabetic'");
}

TEST_F(BitmapAblationTest, JointModeByteIdentical) {
  Log("SELECT name, address FROM P-Personal WHERE zipcode='145568'", 10);
  Log("SELECT disease FROM P-Health WHERE disease='diabetic'", 20);
  Log("SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND zipcode='145568' "
      "AND disease='diabetic'",
      30);
  AuditOptions joint;
  joint.suspicion.mode = IndispensabilityMode::kJointPerQuery;
  ExpectByteIdentical(
      kSpan +
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'",
      joint);
}

TEST_F(BitmapAblationTest, ValueContainmentByteIdentical) {
  Log("SELECT name FROM P-Personal WHERE zipcode='145568'", 10);
  Log("SELECT pid FROM P-Personal WHERE name='Reku'", 20);
  Log("SELECT name FROM P-Personal", 30);
  ExpectByteIdentical(kSpan +
                      "INDISPENSABLE false AUDIT (name) FROM P-Personal "
                      "WHERE zipcode = '145568'");
}

TEST_F(BitmapAblationTest, GeneratedWorkloadByteIdentical) {
  // A denser hospital and a generated mixed workload: joins, point reads,
  // dumps — with a healthy fraction touching the audited columns.
  Database db;
  Backlog backlog;
  backlog.Attach(&db);
  workload::HospitalConfig hospital;
  hospital.num_patients = 200;
  hospital.seed = 13;
  ASSERT_TRUE(workload::PopulateHospital(&db, hospital, Ts(1)).ok());
  QueryLog log;
  workload::WorkloadConfig config;
  config.num_queries = 120;
  config.seed = 20260809;
  config.start = Ts(100);
  config.sensitive_fraction = 0.5;
  ASSERT_TRUE(workload::GenerateWorkload(&log, config, hospital).ok());

  const std::string text =
      kSpan +
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'";
  for (auto mode : {IndispensabilityMode::kPerTable,
                    IndispensabilityMode::kJointPerQuery}) {
    AuditOptions options;
    options.suspicion.mode = mode;
    auto report = ExpectMatchesOracle(db, backlog, log, text, options);
    // The workload is built to contain at least some disclosing queries;
    // guard against the comparison passing vacuously on empty verdicts.
    EXPECT_GT(report.num_candidates, 0u);
  }
}

TEST_F(BitmapAblationTest, GranuleScreenKernelsAgree) {
  // P-Personal.age holds a NULL in the paper database, so the screen has
  // a fact to drop.
  auto parsed = ParseAudit(
      "AUDIT (name,age,disease) "
      "FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid",
      Ts(1000));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->Qualify(db_.catalog()).ok());
  auto view = ComputeTargetView(*parsed, db_.View(), Ts(1));
  ASSERT_TRUE(view.ok());
  const Batch batch = view->ToBatch();
  GranuleEnumerator granules(*view, BuildSchemes(*parsed), parsed->threshold);
  bool dropped = false;
  for (size_t s = 0; s < granules.schemes().size(); ++s) {
    std::vector<size_t> columns;
    for (const auto& attr : granules.schemes()[s].attrs) {
      auto idx = view->ColumnIndex(attr);
      ASSERT_TRUE(idx.ok());
      columns.push_back(*idx);
    }
    const auto expected = oracle::NonNullRows(batch, columns);
    EXPECT_EQ(granules.ValidFacts(s), expected);
    dropped = dropped || expected.size() < view->size();
  }
  EXPECT_TRUE(dropped);
}

}  // namespace
}  // namespace audit
}  // namespace auditdb
