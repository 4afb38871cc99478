/// End-to-end audit benchmark. One run builds a world from --seed, drives
/// the auditdb public API for --seconds, checks every output, and prints
/// one JSON line: {"correct", "attempted", "failed", "metrics"}.
///
///   audit_bench --workload churn_audit|steady_audit
///               --seed N --seconds S --trace 0|1
///               [--trace-out spans.json] [--run-dir DIR]
///
/// --trace 0 reports the end-to-end metrics from untraced runs; --trace 1
/// repeats the work with a span around every public call and reports the
/// per-layer metrics instead (README.md lists both sets).

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flat_json.h"
#include "inputs.h"
#include "oracle.h"
#include "src/audit/audit_parser.h"
#include "src/audit/auditor.h"
#include "src/audit/target_view.h"
#include "src/engine/executor.h"
#include "src/io/store.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/policy/policy_engine.h"
#include "src/service/audit_service.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"
#include "staged.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace auditdb;  // NOLINT: benchmark driver over the whole API

constexpr int64_t kSecond = 1000000;
constexpr int64_t kDay = 86400 * kSecond;

/// The canonical audit: identity plus diagnosis of diabetic patients, over
/// every query and every data version of 1 January 1970 (dates are
/// d/m/yyyy). Every generated query and every churn update lies inside.
const char kCanonicalAudit[] =
    "DURING 1/1/1970 to 2/1/1970 "
    "DATA-INTERVAL 1/1/1970 to 2/1/1970 "
    "AUDIT (name,disease) FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'";

/// The standing expression the served stack's writer subscribes to. Its DURING
/// window holds the served writes (stamped from kWriteStart) and its
/// DATA-INTERVAL is one instant after all churn. THRESHOLD 1000 exceeds
/// |U| (tens of facts), so the rank climbs with every newly accessed fact
/// (one progress push each) but never fires: whether an alert fires, and
/// the verdict audit it runs under the server's writer lock, would
/// otherwise depend on the seed.
const char kSubscription[] =
    "DURING 3/1/1970 to 1/1/1971 "
    "DATA-INTERVAL 2/1/1970:12-00-00 to 2/1/1970:12-00-00 THRESHOLD 1000 "
    "AUDIT (name,disease) FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'";

/// Anchor for parsing (the expressions above name no relative dates).
const Timestamp kNow(40 * kDay);
/// Served writes are stamped from here on: after the canonical audit's
/// DURING window, so they are filtered and never change its verdicts.
const Timestamp kWriteStart(2 * kDay);
const Timestamp kPopulateTime(1 * kSecond);
const Timestamp kLogStart(100 * kSecond);

/// Generated queries per world that the serial workloads execute every
/// round, so a run holds thousands of executes: a p99 with well over ten
/// samples beyond it.
constexpr size_t kExecutesPerWorld = 100;
/// Static-only audits per round (they are ~200x cheaper than full ones).
constexpr int kStaticAuditsPerRound = 5;
/// The served stack's writer: an open loop at this rate.
constexpr int kWritesPerSecond = 200;
/// Every this many writes matches the served stack's policy rule (25%).
constexpr size_t kRuleWriteEvery = 4;
/// Set-up runs this many times per run, after one untimed warm-up;
/// setup_s is the median.
constexpr int kSetupRepeats = 7;

/// A workload's inputs. A run audits `worlds` independently generated
/// worlds in turn and averages over them, so one run's figures do not
/// hang on a single draw of the generator (the number of diabetic
/// patients or of candidates moves one world's audit time by tens of
/// percent). A workload with `served_in_trace` spends the second half of
/// its traced runs on the served stack (RunServedLoad).
struct WorkloadSpec {
  std::string name;
  size_t patients = 0;
  size_t queries = 0;
  size_t updates = 0;
  size_t worlds = 1;
  bool served_in_trace = false;
};

const WorkloadSpec kWorkloads[] = {
    {"churn_audit", 300, 1000, 1600, 8, false},
    {"steady_audit", 1000, 1000, 0, 16, true},
};

/// The served stack's world: a loopback auditd over a smaller churned
/// hospital, loaded with writes beside audits.
const WorkloadSpec kServedWorld = {"served", 150, 500, 400, 1, false};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string run_dir = ".bench_build/run";
};

/// A populated hospital with its backlog and a generated query log; with
/// `updates` > 0, GenerateChurn updates are interleaved in time with the
/// logged queries.
struct World {
  Database db;
  Backlog backlog;
  QueryLog log;
  workload::HospitalConfig hospital;
  workload::WorkloadConfig workload;
};

/// Appends `config.num_queries` stratified queries (inputs.h) to `log`,
/// stamped `config.spacing_micros` apart from `config.start` and annotated
/// from the config's user/role/purpose pools; every `rule_every`-th entry
/// (when non-zero) carries the config's policy-rule triple instead.
Status AppendQueries(const workload::WorkloadConfig& config,
                     const workload::HospitalConfig& hospital, QueryLog* log,
                     size_t rule_every = 0) {
  std::string error;
  std::vector<std::string> queries = StratifiedQueries(
      config.seed, config.num_queries, config, hospital, &error);
  if (!error.empty()) return Status::Internal(error);
  uint64_t state = config.seed ^ 0x5eedULL;
  auto pick = [&state](const std::vector<std::string>& pool) {
    return pool[NextRandom(&state) % pool.size()];
  };
  for (size_t i = 0; i < queries.size(); ++i) {
    Timestamp ts(config.start.micros() +
                 static_cast<int64_t>(i) * config.spacing_micros);
    if (rule_every > 0 && i % rule_every == 0) {
      log->Append(std::move(queries[i]), ts, config.rule_user,
                  config.rule_role, config.rule_purpose);
    } else {
      log->Append(std::move(queries[i]), ts, pick(config.users),
                  pick(config.roles), pick(config.purposes));
    }
  }
  return Status::Ok();
}

std::unique_ptr<World> MakeWorld(const WorkloadSpec& spec, uint64_t seed,
                                 std::string* error) {
  auto world = std::make_unique<World>();
  world->backlog.Attach(&world->db);
  world->hospital.num_patients = spec.patients;
  world->hospital.seed = seed;
  Status status =
      workload::PopulateHospital(&world->db, world->hospital, kPopulateTime);
  world->workload.num_queries = spec.queries;
  world->workload.seed = seed * 7919 + 1;
  world->workload.start = kLogStart;
  if (status.ok()) {
    status = AppendQueries(world->workload, world->hospital, &world->log);
  }
  if (status.ok() && spec.updates > 0) {
    workload::ChurnConfig churn;
    churn.num_updates = spec.updates;
    churn.seed = seed * 104729 + 3;
    // Offset by a third of a second so no update shares a query's stamp.
    churn.start = Timestamp(kLogStart.micros() + kSecond / 3);
    churn.spacing_micros = static_cast<int64_t>(spec.queries) *
                           world->workload.spacing_micros /
                           static_cast<int64_t>(spec.updates);
    status = workload::GenerateChurn(&world->db, churn, world->hospital);
  }
  if (!status.ok()) {
    *error = status.ToString();
    return nullptr;
  }
  return world;
}

// ---------------------------------------------------------------------
// Result collection.

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MsSince(Clock::time_point start) { return SecondsSince(start) * 1e3; }

/// Nearest-rank quantile of `values` (q in [0,1]).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

class Outcome {
 public:
  /// One operation attempted; `why` non-empty marks it failed.
  void Attempt(const std::string& why = "") {
    ++attempted_;
    if (why.empty()) return;
    ++failed_;
    Note("failed: " + why);
  }
  /// An output that does not match its check: the run is incorrect.
  void Wrong(const std::string& why) {
    correct_ = false;
    Note("incorrect: " + why);
  }
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }

  void Print() const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct_ ? "true" : "false", attempted_, failed_);
    bool first = true;
    for (const auto& [name, metric] : metrics_) {
      std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), metric.first,
                  metric.second.c_str());
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  void Note(const std::string& message) {
    // Only the first few of a kind: a broken build can fail every op.
    if (++notes_ <= 20) std::fprintf(stderr, "%s\n", message.c_str());
  }

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  int notes_ = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

// ---------------------------------------------------------------------
// Paper-model checks over the canonical rendering of a report, so local
// AuditReports and remote (wire) reports are checked by the same code.

struct Canon {
  std::map<std::string, uint64_t> counts;
  std::map<int64_t, std::set<std::string>> verdicts;
  bool batch_suspicious = false;
  std::vector<int64_t> minimal_batch;
};

bool Has(const std::set<std::string>& flags, const char* flag) {
  return flags.count(flag) > 0;
}

Canon ParseCanonical(const std::string& text) {
  Canon canon;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("counts:", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string field;
      while (fields >> field) {
        size_t eq = field.find('=');
        if (eq == std::string::npos) continue;
        canon.counts[field.substr(0, eq)] =
            std::strtoull(field.c_str() + eq + 1, nullptr, 10);
      }
    } else if (line.rfind("verdict ", 0) == 0) {
      size_t colon = line.find(':');
      int64_t id = std::strtoll(line.c_str() + 8, nullptr, 10);
      std::istringstream flags(line.substr(colon + 1));
      std::set<std::string>& set = canon.verdicts[id];
      std::string flag;
      while (flags >> flag) set.insert(flag);
    } else if (line.rfind("batch_suspicious=", 0) == 0) {
      canon.batch_suspicious = line == "batch_suspicious=true";
    } else if (line.rfind("minimal_batch=[", 0) == 0) {
      std::string list = line.substr(15);
      for (char& c : list) c = c == ',' || c == ']' ? ' ' : c;
      std::istringstream ids(list);
      int64_t id = 0;
      while (ids >> id) canon.minimal_batch.push_back(id);
    } else if (line == "evidence:") {
      break;
    }
  }
  return canon;
}

/// The paper-model properties of one full audit and a static-only audit
/// of the same state; "" when all hold.
std::string PaperModelViolation(const Canon& full, const Canon& static_only) {
  bool any_alone = false;
  for (const auto& [id, flags] : full.verdicts) {
    if (!Has(flags, "suspicious_alone")) continue;
    any_alone = true;
    if (!Has(flags, "admitted") || !Has(flags, "candidate")) {
      return "query " + std::to_string(id) +
             " is suspicious alone but not an admitted candidate";
    }
    auto it = static_only.verdicts.find(id);
    if (it == static_only.verdicts.end() ||
        !Has(it->second, "suspicious_alone")) {
      return "query " + std::to_string(id) +
             " is suspicious alone but the static-only audit clears it";
    }
  }
  if (any_alone && !full.batch_suspicious) {
    return "a query is suspicious alone but the batch is not";
  }
  if (full.minimal_batch.empty() == full.batch_suspicious) {
    return "minimal batch is empty iff the batch is suspicious fails";
  }
  for (int64_t id : full.minimal_batch) {
    auto it = full.verdicts.find(id);
    if (it == full.verdicts.end() || !Has(it->second, "candidate")) {
      return "minimal batch member " + std::to_string(id) +
             " is not an executed candidate";
    }
  }
  if (full.counts.count("executed") == 0 ||
      full.counts.at("executed") != full.counts.at("candidates")) {
    return "executed != candidates: a re-execution failed";
  }
  return "";
}

/// Whether `report` is an audit the checks accept: it ran, and it keeps
/// the paper-model properties against `static_report`.
std::string AuditViolation(const Result<audit::AuditReport>& report,
                           const Result<audit::AuditReport>& static_report) {
  if (!report.ok()) return "audit: " + report.status().ToString();
  if (!static_report.ok()) {
    return "static audit: " + static_report.status().ToString();
  }
  return PaperModelViolation(ParseCanonical(report->CanonicalString()),
                             ParseCanonical(static_report->CanonicalString()));
}

/// Checks a report's |U| against the history oracle. With `full_view`,
/// also recomputes U with ComputeTargetViewOverVersions on a pin of the
/// world and compares the set of facts (tids and values) too.
std::string CheckHistory(const World& world, size_t report_view_size,
                         bool full_view) {
  audit::Auditor auditor(&world.db, &world.backlog, &world.log);
  audit::AuditPin pin = auditor.Pin();
  auto expr = audit::ParseAudit(kCanonicalAudit, kNow);
  if (!expr.ok()) return expr.status().ToString();
  Status qualified = expr->Qualify(pin.db.catalog());
  if (!qualified.ok()) return qualified.ToString();
  if (!full_view) {
    // The canonical audit's view layout: audited attributes, then the
    // WHERE-only columns.
    std::set<std::string> facts;
    std::string error = OracleFacts(
        world.backlog, pin.db, expr->data_interval, expr->from,
        {{"P-Personal", "name"}, {"P-Health", "disease"},
         {"P-Personal", "pid"}, {"P-Health", "pid"}},
        pin.backlog_events, &facts);
    if (!error.empty()) return error;
    if (facts.size() != report_view_size) {
      return "report |U| " + std::to_string(report_view_size) +
             " but the oracle finds " + std::to_string(facts.size());
    }
    return "";
  }
  auto view = audit::ComputeTargetViewOverVersions(
      *expr, world.backlog, ExecOptions{}, pin.backlog_events);
  if (!view.ok()) return view.status().ToString();
  if (view->size() != report_view_size) {
    return "report |U| " + std::to_string(report_view_size) +
           " but the view has " + std::to_string(view->size());
  }
  return CheckAgainstOracle(*view, world.backlog, pin.db,
                            expr->data_interval, pin.backlog_events);
}

void ReportVersionStats(const std::vector<const Database*>& dbs,
                        Outcome* out) {
  double cow_bytes = 0, live_versions = 0;
  for (const Database* db : dbs) {
    for (const auto& name : db->TableNames()) {
      auto table = db->GetTable(name);
      if (!table.ok()) continue;
      cow_bytes += static_cast<double>((*table)->stats().cow_bytes.load());
      live_versions +=
          static_cast<double>((*table)->stats().live_versions.load());
    }
  }
  out->Metric("versions.cow_bytes", cow_bytes, "bytes");
  out->Metric("versions.live_versions", live_versions, "count");
}

// ---------------------------------------------------------------------
// Traced runs: per-layer metrics from the spans of staged audits.

/// Per-layer metrics every traced run reports; a layer a workload does
/// not reach reads 0.
const char* const kLayerMetrics[][2] = {
    {"audit.static_screen_ms", "ms"},   {"sql.distinct_shapes", "count"},
    {"backlog.snapshot_ms", "ms"},      {"backlog.view_snapshot_ms", "ms"},
    {"backlog.version_timestamps_ms", "ms"},
    {"backlog.snapshot_calls", "count"}, {"backlog.versions", "count"},
    {"backlog.events_scanned", "count"}, {"backlog.event_count_at_ms", "ms"},
    {"target_view.compute_ms", "ms"},   {"target_view.facts", "count"},
    {"engine.access_profile_ms", "ms"}, {"engine.candidates_executed", "count"},
    {"suspicion.batch_ms", "ms"},       {"suspicion.singletons_ms", "ms"},
    {"suspicion.minimize_ms", "ms"},    {"phase.static_ms", "ms"},
    {"phase.view_ms", "ms"},            {"phase.exec_ms", "ms"},
    {"phase.check_ms", "ms"},           {"service.pool_wait_ms", "ms"},
    {"service.pool_run_ms", "ms"},      {"scheduler.static_stage_ms", "ms"},
    {"scheduler.exec_stage_ms", "ms"},  {"scheduler.check_stage_ms", "ms"},
    {"net.audit_overhead_ms", "ms"},    {"net.execute_overhead_ms", "ms"},
    {"wal.records", "count"},           {"wal.bytes_per_write", "bytes"},
    {"policy.rule_hits", "count"},      {"push.sent", "count"},
    {"push.gap_frames", "count"},       {"index.cache_hit_rate", "ratio"},
    {"index.cache_lookups", "count"},   {"versions.cow_bytes", "bytes"},
    {"versions.live_versions", "count"}, {"loadgen.late_ms", "ms"},
    {"self.sql_ms", "ms"},              {"self.audit_ms", "ms"},
    {"self.backlog_ms", "ms"},          {"self.target_view_ms", "ms"},
    {"self.engine_ms", "ms"},           {"self.suspicion_ms", "ms"},
    {"self.net_ms", "ms"},              {"trace.audit_ms", "ms"},
    {"trace.staged_audit_ms", "ms"},
};

void ZeroLayerMetrics(Outcome* out) {
  for (const auto& metric : kLayerMetrics) out->Metric(metric[0], 0, metric[1]);
}

/// What the traced rounds of a run add up to; ReportStagedLayers divides
/// by `audits`.
struct TracedTotals {
  size_t audits = 0;
  double phase_ms[4] = {0, 0, 0, 0};  // static, view, exec, check
  double distinct_shapes = 0;
  double snapshot_calls = 0;
  double versions = 0;
  double events_scanned = 0;
  double facts = 0;
  double executed = 0;
};

/// Layer metrics per audit: span times of the staged audits, their work
/// counts, and the phase split of the Auditor reports run beside them.
void ReportStagedLayers(const Tracer& tracer, const TracedTotals& totals,
                        Outcome* out) {
  if (totals.audits == 0) return;
  const double audits = static_cast<double>(totals.audits);
  std::vector<Span> spans = tracer.spans();
  std::map<std::string, double> ms;
  for (const Span& span : spans) {
    ms[span.name] += span.ms();
    if (span.name == "backlog.snapshot" && span.parent >= 0 &&
        spans[static_cast<size_t>(span.parent)].name == "audit.view_phase") {
      ms["backlog.view_snapshot"] += span.ms();
    }
  }
  for (const char* name :
       {"audit.static_screen", "backlog.snapshot", "backlog.view_snapshot",
        "backlog.version_timestamps", "backlog.event_count_at",
        "target_view.compute", "engine.access_profile", "suspicion.batch",
        "suspicion.singletons", "suspicion.minimize"}) {
    out->Metric(std::string(name) + "_ms", ms[name] / audits, "ms");
  }
  out->Metric("trace.audit_ms", ms["auditor.audit"] / audits, "ms");
  out->Metric("trace.staged_audit_ms", ms["audit.staged"] / audits, "ms");
  for (const auto& [layer, self_ms] : tracer.SelfMsByLayer()) {
    if (layer == "auditor" || layer == "net") continue;  // not staged
    out->Metric("self." + layer + "_ms", self_ms / audits, "ms");
  }
  out->Metric("sql.distinct_shapes", totals.distinct_shapes / audits, "count");
  out->Metric("backlog.snapshot_calls", totals.snapshot_calls / audits,
              "count");
  out->Metric("backlog.versions", totals.versions / audits, "count");
  out->Metric("backlog.events_scanned", totals.events_scanned / audits,
              "count");
  out->Metric("target_view.facts", totals.facts / audits, "count");
  out->Metric("engine.candidates_executed", totals.executed / audits, "count");
  const char* names[4] = {"phase.static_ms", "phase.view_ms",
                          "phase.exec_ms", "phase.check_ms"};
  for (int i = 0; i < 4; ++i) {
    out->Metric(names[i], totals.phase_ms[i] / audits, "ms");
  }
}

/// One traced round on a quiesced world: the Auditor's audit (one span),
/// a static-only audit for the paper-model check, and a staged audit
/// whose outcome must match the Auditor's. The first round also checks
/// the staged view against the history oracle.
void TracedRound(const World& world, int round, Tracer* tracer,
                 TracedTotals* totals, Outcome* out) {
  audit::Auditor auditor(&world.db, &world.backlog, &world.log);
  std::string id = "audit-" + std::to_string(round);
  Result<audit::AuditReport> report = Status::Internal("not run");
  {
    ScopedSpan span(tracer, "auditor.audit", -1, id);
    report = auditor.Audit(kCanonicalAudit, kNow);
  }
  audit::AuditOptions static_only;
  static_only.static_only = true;
  auto static_report = auditor.Audit(kCanonicalAudit, kNow, static_only);
  out->Attempt(AuditViolation(report, static_report));
  out->Attempt(static_report.ok() ? "" : static_report.status().ToString());

  StagedAudit staged;
  std::string error;
  bool ran = RunStagedAudit(world.db, world.backlog, world.log,
                            kCanonicalAudit, kNow, tracer,
                            "staged-" + std::to_string(round), &staged, &error);
  out->Attempt(ran ? "" : "staged audit: " + error);
  if (!ran || !report.ok()) return;
  std::string mismatch = CompareWithReport(staged, *report);
  if (!mismatch.empty()) out->Wrong("staged reproduction: " + mismatch);
  if (round == 0) {
    std::string history = CheckAgainstOracle(
        staged.view, world.backlog, world.db.Snapshot(), staged.data_interval,
        staged.backlog_events);
    if (!history.empty()) out->Wrong("staged view: " + history);
  }
  ++totals->audits;
  totals->phase_ms[0] += report->static_seconds * 1e3;
  totals->phase_ms[1] += report->view_seconds * 1e3;
  totals->phase_ms[2] += report->exec_seconds * 1e3;
  totals->phase_ms[3] += report->check_seconds * 1e3;
  totals->distinct_shapes += static_cast<double>(world.log.distinct_shapes());
  totals->snapshot_calls += static_cast<double>(staged.snapshot_calls);
  totals->versions += static_cast<double>(staged.versions);
  totals->events_scanned += static_cast<double>(staged.events_scanned);
  totals->facts += static_cast<double>(staged.view.size());
  totals->executed += static_cast<double>(staged.num_executed);
}

// ---------------------------------------------------------------------
// churn_audit and steady_audit: the serial Auditor, closed loop.

/// One of a serial run's worlds with its execute pool and what was seen
/// of it so far.
struct SerialWorld {
  std::unique_ptr<World> world;
  std::vector<std::string> pool;
  std::vector<std::string> pool_results;
  std::string first_full, first_static;
  size_t view_size = 0;
  std::vector<double> audit_ms, static_ms;
};

void RunServedLoad(const Options& options, double seconds, Outcome* out);

/// World `index` of a run: its own seed, derived from the run's.
uint64_t WorldSeed(uint64_t seed, size_t index) { return seed * 64 + index; }

void RunSerial(const Options& options, const WorkloadSpec& spec,
               Outcome* out) {
  // Set-up: the run's worlds, built once untimed and then kSetupRepeats
  // times; the last set is kept.
  std::vector<double> setup_seconds;
  std::vector<SerialWorld> worlds;
  for (int i = 0; i <= kSetupRepeats; ++i) {
    worlds.clear();
    auto start = Clock::now();
    for (size_t w = 0; w < spec.worlds; ++w) {
      std::string error;
      SerialWorld sw;
      sw.world = MakeWorld(spec, WorldSeed(options.seed, w), &error);
      if (sw.world == nullptr) {
        out->Attempt("world: " + error);
        return;
      }
      worlds.push_back(std::move(sw));
    }
    if (i > 0) setup_seconds.push_back(SecondsSince(start));
  }
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));

  if (options.trace) {
    const double staged_seconds =
        spec.served_in_trace ? options.seconds / 2 : options.seconds;
    const auto staged_deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(staged_seconds));
    Tracer tracer(true);
    TracedTotals totals;
    int round = 0;
    do {
      TracedRound(*worlds[static_cast<size_t>(round) % worlds.size()].world,
                  round, &tracer, &totals, out);
      ++round;
    } while (Clock::now() < staged_deadline);
    ZeroLayerMetrics(out);
    ReportStagedLayers(tracer, totals, out);
    std::vector<const Database*> dbs;
    for (const auto& sw : worlds) dbs.push_back(&sw.world->db);
    ReportVersionStats(dbs, out);
    if (!options.trace_out.empty() && !tracer.WriteJson(options.trace_out)) {
      out->Wrong("cannot write " + options.trace_out);
    }
    if (spec.served_in_trace) {
      RunServedLoad(options, options.seconds - staged_seconds, out);
    }
    return;
  }

  // Execute pools: generated queries outside the audited logs.
  for (size_t w = 0; w < worlds.size(); ++w) {
    SerialWorld& sw = worlds[w];
    std::string error;
    sw.pool = StratifiedQueries(WorldSeed(options.seed, w) * 1000003,
                                kExecutesPerWorld, sw.world->workload,
                                sw.world->hospital, &error);
    if (!error.empty()) {
      out->Attempt("execute pool: " + error);
      return;
    }
    sw.pool_results.resize(sw.pool.size());
  }

  // Rounds: a full audit of one world (round-robin) with static-only
  // audits of it, then every world's execute pool. The run goes on until
  // the deadline and until every world has been audited once.
  audit::AuditOptions static_only;
  static_only.static_only = true;
  std::vector<double> execute_ms;
  size_t round = 0;
  for (; round < worlds.size() || Clock::now() < deadline; ++round) {
    SerialWorld& sw = worlds[round % worlds.size()];
    audit::Auditor auditor(&sw.world->db, &sw.world->backlog, &sw.world->log);
    auto start = Clock::now();
    auto report = auditor.Audit(kCanonicalAudit, kNow);
    sw.audit_ms.push_back(MsSince(start));
    Result<audit::AuditReport> static_report = Status::Internal("not run");
    for (int i = 0; i < kStaticAuditsPerRound; ++i) {
      start = Clock::now();
      static_report = auditor.Audit(kCanonicalAudit, kNow, static_only);
      sw.static_ms.push_back(MsSince(start));
      out->Attempt(static_report.ok() ? ""
                                      : static_report.status().ToString());
    }
    out->Attempt(AuditViolation(report, static_report));
    if (report.ok() && static_report.ok()) {
      // The worlds are quiescent: every audit must give the first report.
      if (sw.first_full.empty()) {
        sw.first_full = report->CanonicalString();
        sw.first_static = static_report->CanonicalString();
        sw.view_size = report->target_view_size;
      } else if (report->CanonicalString() != sw.first_full ||
                 static_report->CanonicalString() != sw.first_static) {
        out->Wrong("a repeated audit of an unchanged world differs");
      }
    }

    for (SerialWorld& target : worlds) {
      DatabaseView view = target.world->db.Snapshot();
      for (size_t i = 0; i < target.pool.size(); ++i) {
        start = Clock::now();
        auto result = ExecuteSql(target.pool[i], view);
        execute_ms.push_back(MsSince(start));
        out->Attempt(result.ok() ? ""
                                 : "execute: " + result.status().ToString());
        if (!result.ok()) continue;
        std::string rendered = result->ToString();
        if (target.pool_results[i].empty()) {
          target.pool_results[i] = std::move(rendered);
        } else if (target.pool_results[i] != rendered) {
          out->Wrong("a repeated query over an unchanged world differs");
        }
      }
    }
  }

  // |U| of every world against the oracle; the full fact set on world 0.
  std::vector<double> world_audit_ms, world_static_ms;
  for (size_t w = 0; w < worlds.size(); ++w) {
    const SerialWorld& sw = worlds[w];
    world_audit_ms.push_back(Median(sw.audit_ms));
    world_static_ms.push_back(Median(sw.static_ms));
    if (sw.first_full.empty()) continue;
    std::string history = CheckHistory(*sw.world, sw.view_size, w == 0);
    if (!history.empty()) out->Wrong("history: " + history);
  }
  out->Metric("setup_s", Median(setup_seconds), "s");
  out->Metric("audit_ms", Mean(world_audit_ms), "ms");
  out->Metric("static_audit_ms", Mean(world_static_ms), "ms");
  out->Metric("execute_ms", Median(execute_ms), "ms");
  out->Metric("execute_p99_ms", Quantile(execute_ms, 0.99), "ms");
  out->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

// ---------------------------------------------------------------------
// The served stack: a loopback auditd in this process.

/// The served stack. Members are torn down in reverse dependency order by
/// the destructor: clients, server, service, durable store, policy
/// engine, world, data directory.
struct ServeStack {
  ServeStack() = default;
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
  ~ServeStack() {
    writer.reset();
    auditor.reset();
    if (server != nullptr) server->Shutdown();
    server.reset();
    service.reset();
    store.reset();
    engine.reset();
    world.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }

  std::string dir;
  std::unique_ptr<World> world;
  std::unique_ptr<io::DurableStore> store;
  std::unique_ptr<policy::PolicyEngine> engine;
  std::unique_ptr<service::AuditService> service;
  std::unique_ptr<net::AuditServer> server;
  /// Streaming connection: sends the writes and holds the subscription.
  std::unique_ptr<net::AuditClient> writer;
  /// Plain connection for audits and METRICS.
  std::unique_ptr<net::AuditClient> auditor;

  std::mutex push_mutex;
  std::vector<net::PushEvent> pushes;  // guarded by push_mutex
};

/// Durability: WAL with fsync=never (the page cache absorbs writes, so
/// the figures do not depend on the disk) and no automatic checkpoints,
/// so the WAL holds exactly the acknowledged writes.
constexpr querylog::FsyncPolicy kFsync = querylog::FsyncPolicy::kNever;
/// One audit-service thread and two request handlers: with the server's
/// event loop and the writer, auditor and push-receiver threads, the
/// process then keeps its busy threads within four cores, so write
/// latency shows less of the OS scheduler than with a wider pool.
constexpr size_t kServiceThreads = 1;
constexpr size_t kHandlerThreads = 2;

std::unique_ptr<ServeStack> BuildServeStack(const WorkloadSpec& spec,
                                            uint64_t seed,
                                            const std::string& dir,
                                            const std::string& rules,
                                            std::string* error) {
  auto stack = std::make_unique<ServeStack>();
  stack->dir = dir;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    *error = "cannot create " + dir;
    return nullptr;
  }
  stack->world = MakeWorld(spec, seed, error);
  if (stack->world == nullptr) return nullptr;
  World& world = *stack->world;

  io::DurableStoreOptions store_options;
  store_options.fsync = kFsync;
  store_options.checkpoint_every_records = 0;
  auto store = io::DurableStore::Open(io::Env::Default(), dir, &world.db,
                                      &world.log, kPopulateTime, store_options);
  if (!store.ok()) {
    *error = "store: " + store.status().ToString();
    return nullptr;
  }
  stack->store = std::move(*store);

  stack->engine = std::make_unique<policy::PolicyEngine>();
  Status loaded = stack->engine->LoadText(rules, kNow);
  if (!loaded.ok()) {
    *error = "rules: " + loaded.ToString();
    return nullptr;
  }

  service::AuditServiceOptions service_options;
  service_options.pool.num_threads = kServiceThreads;
  stack->service = std::make_unique<service::AuditService>(
      &world.db, &world.backlog, &world.log, service_options);
  net::AuditServerOptions server_options;
  server_options.handlers.num_threads = kHandlerThreads;
  server_options.durable_store = stack->store.get();
  server_options.policy = stack->engine.get();
  stack->server = std::make_unique<net::AuditServer>(
      stack->service.get(), &world.db, &world.backlog, &world.log,
      server_options);
  Status started = stack->server->Start();
  if (!started.ok()) {
    *error = "server: " + started.ToString();
    return nullptr;
  }

  const uint16_t port = stack->server->port();
  stack->writer = std::make_unique<net::AuditClient>("127.0.0.1", port);
  ServeStack* raw = stack.get();
  auto subscribed = stack->writer->Subscribe(
      kSubscription, kNow, [raw](const net::PushEvent& event) {
        std::lock_guard<std::mutex> lock(raw->push_mutex);
        raw->pushes.push_back(event);
      });
  if (!subscribed.ok()) {
    *error = "subscribe: " + subscribed.status().ToString();
    return nullptr;
  }
  stack->auditor = std::make_unique<net::AuditClient>("127.0.0.1", port);
  Status connected = stack->auditor->Connect();
  if (!connected.ok()) {
    *error = "connect: " + connected.ToString();
    return nullptr;
  }
  return stack;
}

/// A mid-run remote canonical report with the appended (filtered) entries
/// removed and its logged count set back to the pre-built `prefix`, so it
/// can be compared with the serial reference byte for byte. Appended
/// entries that are not plain filtered verdicts are reported in `why`.
std::string NormalizeToPrefix(const std::string& canonical, size_t prefix,
                              std::string* why) {
  std::istringstream in(canonical);
  std::string line, out;
  bool in_evidence = false;
  while (std::getline(in, line)) {
    if (!in_evidence && line.rfind("verdict ", 0) == 0) {
      int64_t id = std::strtoll(line.c_str() + 8, nullptr, 10);
      if (id > static_cast<int64_t>(prefix)) {
        if (line != "verdict " + std::to_string(id) + ":") {
          *why = "appended entry not filtered: " + line;
        }
        continue;
      }
    } else if (!in_evidence && line.rfind("counts: logged=", 0) == 0) {
      line = "counts: logged=" + std::to_string(prefix) +
             line.substr(line.find(' ', 15));
    }
    in_evidence = in_evidence || line == "evidence:";
    out += line + "\n";
  }
  // getline drops the final newline's absence; match the source's ending.
  if (!canonical.empty() && canonical.back() != '\n' && !out.empty()) {
    out.pop_back();
  }
  return out;
}

/// Mean of a server histogram over the run, in ms per observation.
double HistogramMeanMs(const std::map<std::string, double>& before,
                       const std::map<std::string, double>& after,
                       const std::string& key) {
  double count = Get(after, key + "/count") - Get(before, key + "/count");
  double sum =
      Get(after, key + "/sum_micros") - Get(before, key + "/sum_micros");
  return count > 0 ? sum / count / 1e3 : 0.0;
}

/// The served stack under load for `seconds`: one writer connection sends
/// ExecuteQuery in an open loop (fixed rate and count, each write timed
/// from when it was due) and holds one standing subscription, while one
/// auditor connection alternates full and static-only audits, closed
/// loop. Checks every remote outcome and reports the per-layer metrics of
/// the served layers (net, service, WAL, policy, push, decision cache,
/// versions, load generator).
void RunServedLoad(const Options& options, double seconds, Outcome* out) {
  const WorkloadSpec& spec = kServedWorld;
  // The writes: stratified queries stamped from kWriteStart on, every
  // kRuleWriteEvery-th annotated for the single policy rule.
  const size_t num_writes = static_cast<size_t>(
      std::max(1.0, std::round(seconds * kWritesPerSecond)));
  workload::WorkloadConfig write_config;
  write_config.num_queries = num_writes;
  write_config.seed = options.seed * 15485863 + 5;
  write_config.start = kWriteStart;
  write_config.spacing_micros = 1000;
  QueryLog writes;
  {
    workload::HospitalConfig hospital;
    hospital.num_patients = spec.patients;
    hospital.seed = options.seed;
    Status generated = AppendQueries(write_config, hospital, &writes,
                                     kRuleWriteEvery);
    if (!generated.ok()) {
      out->Attempt("writes: " + generated.ToString());
      return;
    }
  }
  const std::string rules =
      workload::MatchingRuleText(write_config, "log-only", false);

  std::string error;
  std::unique_ptr<ServeStack> stack = BuildServeStack(
      spec, options.seed, options.run_dir + "/served", rules, &error);
  if (stack == nullptr) {
    out->Attempt("set-up: " + error);
    return;
  }
  World& world = *stack->world;
  const size_t prefix = world.log.size();

  // Serial references over the pre-built log.
  audit::Auditor serial(&world.db, &world.backlog, &world.log);
  audit::AuditOptions static_only;
  static_only.static_only = true;
  auto ref_full = serial.Audit(kCanonicalAudit, kNow);
  auto ref_static = serial.Audit(kCanonicalAudit, kNow, static_only);
  out->Attempt(AuditViolation(ref_full, ref_static));
  if (!ref_full.ok() || !ref_static.ok()) return;
  const std::string ref_full_text = ref_full->CanonicalString();
  const std::string ref_static_text = ref_static->CanonicalString();

  Tracer tracer(true);
  auto metrics_before = stack->auditor->MetricsJson();
  out->Attempt(metrics_before.ok() ? "" : "metrics: " +
                                              metrics_before.status().ToString());
  if (!metrics_before.ok()) return;

  // Writer: open loop, fixed rate, fixed count; each write is timed from
  // when it was due.
  std::vector<double> latency_ms(num_writes), late_ms(num_writes),
      rtt_ms(num_writes);
  std::vector<int> acked(num_writes, 0);
  std::vector<std::string> write_errors(num_writes);
  std::vector<size_t> remote_rows(num_writes, 0);
  std::atomic<bool> writer_done{false};
  const auto load_start = Clock::now();
  std::thread writer([&] {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kWritesPerSecond));
    for (size_t i = 0; i < num_writes; ++i) {
      const auto due = load_start + period * static_cast<int64_t>(i);
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      const LoggedQuery& q = writes.Entry(i);
      ScopedSpan span(&tracer, "net.execute", -1, "write-" + std::to_string(i));
      auto result = stack->writer->ExecuteQuery(q.sql, q.user, q.role,
                                                q.purpose, q.timestamp);
      const auto done = Clock::now();
      latency_ms[i] = std::chrono::duration<double, std::milli>(done - due)
                          .count();
      late_ms[i] = std::chrono::duration<double, std::milli>(sent - due)
                       .count();
      rtt_ms[i] = std::chrono::duration<double, std::milli>(done - sent)
                      .count();
      if (result.ok()) {
        acked[i] = 1;
        remote_rows[i] = result->num_rows;
      } else {
        write_errors[i] = result.status().ToString();
      }
    }
    writer_done.store(true);
  });

  // Auditor: closed loop alternating full and static-only audits until
  // the writer finishes.
  std::vector<double> audit_ms, static_ms;
  int request = 0;
  do {
    auto start = Clock::now();
    Result<net::AuditClient::RemoteReport> full =
        Status::Internal("not sent");
    {
      ScopedSpan span(&tracer, "net.audit", -1,
                      "audit-" + std::to_string(request++));
      full = stack->auditor->Audit(kCanonicalAudit, kNow, false);
    }
    audit_ms.push_back(MsSince(start));
    start = Clock::now();
    Result<net::AuditClient::RemoteReport> stat =
        Status::Internal("not sent");
    {
      ScopedSpan span(&tracer, "net.audit_static", -1,
                      "audit-" + std::to_string(request++));
      stat = stack->auditor->Audit(kCanonicalAudit, kNow, true);
    }
    static_ms.push_back(MsSince(start));
    if (!full.ok() || !stat.ok()) {
      out->Attempt(full.ok() ? "" : "remote audit: " + full.status().ToString());
      out->Attempt(stat.ok() ? "" : "remote static audit: " +
                                        stat.status().ToString());
      continue;
    }
    out->Attempt(PaperModelViolation(ParseCanonical(full->canonical),
                                     ParseCanonical(stat->canonical)));
    out->Attempt();
    std::string why;
    if (NormalizeToPrefix(full->canonical, prefix, &why) != ref_full_text ||
        NormalizeToPrefix(stat->canonical, prefix, &why) != ref_static_text) {
      out->Wrong("a mid-run remote audit disagrees with the serial "
                 "reference over the pre-built log");
    }
    if (!why.empty()) out->Wrong(why);
  } while (!writer_done.load());
  writer.join();

  size_t num_acked = 0;
  size_t rule_writes = 0;
  for (size_t i = 0; i < num_writes; ++i) {
    out->Attempt(acked[i] ? "" : "write: " + write_errors[i]);
    num_acked += acked[i];
    if (acked[i] && writes.Entry(i).role == write_config.rule_role) {
      ++rule_writes;
    }
  }
  auto metrics_after = stack->auditor->MetricsJson();
  out->Attempt(metrics_after.ok() ? "" : "metrics: " +
                                             metrics_after.status().ToString());
  if (!metrics_after.ok()) return;
  std::map<std::string, double> before, after;
  if (!FlattenJsonNumbers(*metrics_before, &before) ||
      !FlattenJsonNumbers(*metrics_after, &after)) {
    out->Wrong("METRICS is not JSON");
  }

  // Quiesced: the remote audits must equal the serial Auditor's over the
  // very stores the server serves, byte for byte.
  auto remote_full = stack->auditor->Audit(kCanonicalAudit, kNow, false);
  auto remote_static = stack->auditor->Audit(kCanonicalAudit, kNow, true);
  auto final_full = serial.Audit(kCanonicalAudit, kNow);
  auto final_static = serial.Audit(kCanonicalAudit, kNow, static_only);
  out->Attempt(remote_full.ok() ? "" : remote_full.status().ToString());
  out->Attempt(remote_static.ok() ? "" : remote_static.status().ToString());
  out->Attempt(AuditViolation(final_full, final_static));
  if (remote_full.ok() && final_full.ok() &&
      remote_full->canonical != final_full->CanonicalString()) {
    out->Wrong("final remote audit differs from the serial Auditor");
  }
  if (remote_static.ok() && final_static.ok() &&
      remote_static->canonical != final_static->CanonicalString()) {
    out->Wrong("final remote static audit differs from the serial Auditor");
  }

  // Pushes: dense sequence numbers from 1, no gap frames.
  std::vector<net::PushEvent> pushes;
  {
    std::lock_guard<std::mutex> lock(stack->push_mutex);
    pushes = stack->pushes;
  }
  for (size_t i = 0; i < pushes.size(); ++i) {
    if (pushes[i].kind == net::PushKind::kGap || pushes[i].seq != i + 1) {
      out->Wrong("push sequence is not dense at frame " + std::to_string(i));
      break;
    }
  }
  const double gap_frames = Get(after, "push/gap_frames_sent") -
                            Get(before, "push/gap_frames_sent");
  if (gap_frames != 0) out->Wrong("the server sent gap frames");
  const double wal_records = Get(after, "durability/wal_records");
  if (wal_records != static_cast<double>(num_acked)) {
    out->Wrong("wal_records " + std::to_string(wal_records) + " != " +
               std::to_string(num_acked) + " acknowledged writes");
  }
  const std::string rule_key = "policy/rule_hits.workload-hits";
  const double rule_hits = Get(after, rule_key) - Get(before, rule_key);
  if (rule_hits != static_cast<double>(rule_writes)) {
    out->Wrong("policy rule hits " + std::to_string(rule_hits) + " != " +
               std::to_string(rule_writes) + " matching writes");
  }
  // The served database never changes, so each remote result
  // must have the row count of the same query executed in process.
  DatabaseView live = world.db.Snapshot();
  for (size_t i = 0; i < num_writes; ++i) {
    if (!acked[i]) continue;
    auto local = ExecuteSql(writes.Entry(i).sql, live);
    if (!local.ok() || local->rows.size() != remote_rows[i]) {
      out->Wrong("remote execute " + std::to_string(i) +
                 " disagrees with in-process execution");
      break;
    }
  }
  if (final_full.ok()) {
    std::string history =
        CheckHistory(world, final_full->target_view_size, true);
    if (!history.empty()) out->Wrong("history: " + history);
  }

  std::vector<double> acked_latency;
  for (size_t i = 0; i < num_writes; ++i) {
    if (acked[i]) acked_latency.push_back(latency_ms[i]);
  }
  std::fprintf(stderr,
               "served: %zu writes, latency from due p50 %.3f p90 %.3f "
               "p99 %.3f p99.9 %.3f max %.3f ms; %zu full audits\n",
               acked_latency.size(), Quantile(acked_latency, 0.5),
               Quantile(acked_latency, 0.9), Quantile(acked_latency, 0.99),
               Quantile(acked_latency, 0.999), Quantile(acked_latency, 1.0),
               audit_ms.size());
  // Per-layer figures from METRICS deltas and the client spans.
  out->Metric("service.pool_wait_ms",
              HistogramMeanMs(before, after, "service/pool.job_wait_micros"),
              "ms");
  out->Metric("service.pool_run_ms",
              HistogramMeanMs(before, after, "service/pool.job_run_micros"),
              "ms");
  for (const char* stage : {"static", "exec", "check"}) {
    out->Metric(std::string("scheduler.") + stage + "_stage_ms",
                HistogramMeanMs(before, after,
                                std::string("service/scheduler.") + stage +
                                    "_stage_micros"),
                "ms");
  }
  out->Metric("net.audit_overhead_ms",
              Mean(audit_ms) -
                  HistogramMeanMs(before, after,
                                  "server/net.request_micros.audit"),
              "ms");
  out->Metric("net.execute_overhead_ms",
              Mean(rtt_ms) -
                  HistogramMeanMs(before, after,
                                  "server/net.request_micros.execute_query"),
              "ms");
  const double wal_delta = Get(after, "durability/wal_records") -
                           Get(before, "durability/wal_records");
  out->Metric("wal.records", wal_delta, "count");
  out->Metric("wal.bytes_per_write",
              wal_delta > 0 ? (Get(after, "durability/wal_bytes") -
                               Get(before, "durability/wal_bytes")) /
                                  wal_delta
                            : 0.0,
              "bytes");
  out->Metric("policy.rule_hits", rule_hits, "count");
  out->Metric("push.sent",
              Get(after, "push/pushes_sent") - Get(before, "push/pushes_sent"),
              "count");
  out->Metric("push.gap_frames", gap_frames, "count");
  const double hits =
      Get(after, "index/cache_hits") - Get(before, "index/cache_hits");
  const double misses =
      Get(after, "index/cache_misses") - Get(before, "index/cache_misses");
  out->Metric("index.cache_hit_rate",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  out->Metric("index.cache_lookups", hits + misses, "count");
  double cow_bytes = 0, live_versions = 0;
  for (const auto& [key, value] : after) {
    if (key.rfind("versions/tables/", 0) != 0) continue;
    if (key.size() > 10 && key.compare(key.size() - 10, 10, "/cow_bytes") == 0) {
      cow_bytes += value;
    } else if (key.size() > 14 &&
               key.compare(key.size() - 14, 14, "/live_versions") == 0) {
      live_versions += value;
    }
  }
  out->Metric("versions.cow_bytes", cow_bytes, "bytes");
  out->Metric("versions.live_versions", live_versions, "count");
  out->Metric("loadgen.late_ms", Mean(late_ms), "ms");
  double net_ms = 0;
  for (const auto& [layer, self_ms] : tracer.SelfMsByLayer()) {
    if (layer == "net") net_ms += self_ms;
  }
  const double requests = static_cast<double>(num_writes + audit_ms.size() +
                                               static_ms.size());
  out->Metric("self.net_ms", net_ms / requests, "ms");
  if (!options.trace_out.empty() &&
      !tracer.WriteJson(options.trace_out + ".served.json")) {
    out->Wrong("cannot write " + options.trace_out + ".served.json");
  }
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else if (flag == "--run-dir") {
      options->run_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && options->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: audit_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--run-dir DIR]\n");
    return 2;
  }
  for (const auto& spec : perfbench::kWorkloads) {
    if (spec.name != options.workload) continue;
    perfbench::Outcome outcome;
    perfbench::RunSerial(options, spec, &outcome);
    outcome.Print();
    return 0;
  }
  std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
  return 2;
}
