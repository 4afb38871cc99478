#include "staged.h"

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "src/audit/audit_parser.h"
#include "src/audit/audit_stages.h"
#include "src/audit/granule.h"
#include "src/audit/suspicion.h"
#include "src/common/hashing.h"
#include "src/engine/lineage.h"

namespace perfbench {

using namespace auditdb;  // NOLINT: benchmark driver over the whole API

namespace {

template <typename T>
bool Ok(const Result<T>& result, std::string* error) {
  if (result.ok()) return true;
  *error = result.status().ToString();
  return false;
}

}  // namespace

bool RunStagedAudit(const Database& db, const Backlog& backlog,
                    const QueryLog& log, const std::string& audit_text,
                    Timestamp now, Tracer* tracer,
                    const std::string& audit_id, StagedAudit* out,
                    std::string* error) {
  ScopedSpan root(tracer, "audit.staged", -1, audit_id);
  // The pin, captured in Auditor::Pin's order: log and backlog prefixes
  // before the database view.
  const size_t log_size = log.size();
  const size_t limit = backlog.event_count();
  const DatabaseView pinned = db.Snapshot();
  out->num_logged = log_size;
  out->backlog_events = limit;

  Result<audit::AuditExpression> parsed = Status::Internal("unparsed");
  {
    ScopedSpan span(tracer, "sql.parse", root.index(), audit_id);
    parsed = audit::ParseAudit(audit_text, now);
  }
  if (!Ok(parsed, error)) return false;
  audit::AuditExpression& expr = *parsed;
  {
    ScopedSpan span(tracer, "audit.qualify", root.index(), audit_id);
    Status qualified = expr.Qualify(pinned.catalog());
    if (!qualified.ok()) {
      *error = qualified.ToString();
      return false;
    }
  }
  out->data_interval = expr.data_interval;

  audit::StaticScreenResult screened;
  {
    ScopedSpan phase(tracer, "audit.static_phase", root.index(), audit_id);
    audit::CandidateCacheContext cache_ctx;
    cache_ctx.expr_hash = std::hash<std::string>{}(expr.ToString());
    cache_ctx.state_key = pinned.catalog_epoch();
    ScopedSpan span(tracer, "audit.static_screen", phase.index(), audit_id);
    screened = audit::StaticScreenRange(expr, log, pinned.catalog(),
                                        audit::CandidateOptions{}, 0,
                                        log_size, cache_ctx);
  }
  out->num_admitted = screened.num_admitted;
  out->num_candidates = screened.candidates.size();

  audit::TargetView& merged = out->view;
  std::vector<audit::GranuleScheme> schemes;
  {
    ScopedSpan phase(tracer, "audit.view_phase", root.index(), audit_id);
    std::vector<Timestamp> versions;
    {
      ScopedSpan span(tracer, "backlog.version_timestamps", phase.index(),
                      audit_id);
      versions = backlog.VersionTimestamps(expr.data_interval, limit);
    }
    out->versions = versions.size();
    std::unordered_set<std::pair<std::vector<Tid>, std::vector<Value>>,
                       PairHash<std::vector<Tid>, std::vector<Value>,
                                VectorHash<Tid>, VectorHash<Value>>>
        seen;
    merged.tables = expr.from;
    for (Timestamp version : versions) {
      Result<Snapshot> snapshot = Status::Internal("no snapshot");
      {
        ScopedSpan span(tracer, "backlog.snapshot", phase.index(), audit_id);
        snapshot = backlog.SnapshotAt(version, limit);
      }
      ++out->snapshot_calls;
      out->events_scanned += limit;
      if (!Ok(snapshot, error)) return false;
      Result<audit::TargetView> view = Status::Internal("no view");
      {
        ScopedSpan span(tracer, "target_view.compute", phase.index(),
                        audit_id);
        view = audit::ComputeTargetView(expr, snapshot->View(), version);
      }
      if (!Ok(view, error)) return false;
      merged.columns = view->columns;
      for (auto& fact : view->facts) {
        if (!seen.emplace(fact.tids, fact.values).second) continue;
        merged.facts.push_back(std::move(fact));
      }
    }
    merged.RebuildTidIndex();
    schemes = audit::BuildSchemes(expr);
  }
  out->num_schemes = schemes.size();

  std::vector<AccessProfile> profiles;
  std::vector<int64_t> profile_ids;
  {
    ScopedSpan phase(tracer, "audit.exec_phase", root.index(), audit_id);
    std::unordered_map<size_t, std::unique_ptr<Snapshot>> snapshots;
    for (const auto& candidate : screened.candidates) {
      const LoggedQuery& logged = log.Entry(candidate.log_index);
      size_t key = 0;
      {
        ScopedSpan span(tracer, "backlog.event_count_at", phase.index(),
                        audit_id);
        key = backlog.EventCountAt(logged.timestamp, limit);
      }
      auto it = snapshots.find(key);
      if (it == snapshots.end()) {
        Result<Snapshot> snapshot = Status::Internal("no snapshot");
        {
          ScopedSpan span(tracer, "backlog.snapshot", phase.index(),
                          audit_id);
          snapshot = backlog.SnapshotAt(logged.timestamp, limit);
        }
        ++out->snapshot_calls;
        out->events_scanned += limit;
        if (!Ok(snapshot, error)) return false;
        it = snapshots
                 .emplace(key, std::make_unique<Snapshot>(std::move(*snapshot)))
                 .first;
      }
      Result<AccessProfile> profile = Status::Internal("no profile");
      {
        ScopedSpan span(tracer, "engine.access_profile", phase.index(),
                        audit_id);
        profile = ComputeAccessProfile(*candidate.stmt, it->second->View());
      }
      // Like the Auditor, a query whose re-execution fails is skipped;
      // the paper-model check on num_executed catches it.
      if (!profile.ok()) continue;
      profiles.push_back(std::move(*profile));
      profile_ids.push_back(logged.id);
    }
  }
  out->num_executed = profiles.size();

  {
    ScopedSpan phase(tracer, "audit.check_phase", root.index(), audit_id);
    std::vector<const AccessProfile*> batch;
    for (const auto& profile : profiles) batch.push_back(&profile);
    Result<audit::SuspicionResult> batch_result =
        Status::Internal("unchecked");
    {
      ScopedSpan span(tracer, "suspicion.batch", phase.index(), audit_id);
      batch_result = audit::CheckBatchSuspicion(
          merged, schemes, expr.threshold, expr.indispensable, batch);
    }
    if (!Ok(batch_result, error)) return false;
    out->batch_suspicious = batch_result->suspicious;
    {
      ScopedSpan span(tracer, "suspicion.singletons", phase.index(),
                      audit_id);
      for (size_t i = 0; i < profiles.size(); ++i) {
        auto single = audit::CheckBatchSuspicion(
            merged, schemes, expr.threshold, expr.indispensable,
            {&profiles[i]});
        if (!Ok(single, error)) return false;
        if (single->suspicious) out->suspicious_alone.push_back(profile_ids[i]);
      }
    }
    if (out->batch_suspicious) {
      ScopedSpan span(tracer, "suspicion.minimize", phase.index(), audit_id);
      auto minimal = audit::MinimizeBatch(merged, schemes, expr, profiles,
                                          profile_ids,
                                          audit::SuspicionOptions{});
      if (!Ok(minimal, error)) return false;
      out->minimal_batch = std::move(*minimal);
    }
  }
  return true;
}

std::string CompareWithReport(const StagedAudit& staged,
                              const audit::AuditReport& report) {
  auto differs = [](const char* what, size_t a, size_t b) {
    return std::string(what) + ": staged " + std::to_string(a) +
           " vs auditor " + std::to_string(b);
  };
  if (staged.num_logged != report.num_logged) {
    return differs("logged", staged.num_logged, report.num_logged);
  }
  if (staged.num_admitted != report.num_admitted) {
    return differs("admitted", staged.num_admitted, report.num_admitted);
  }
  if (staged.num_candidates != report.num_candidates) {
    return differs("candidates", staged.num_candidates,
                   report.num_candidates);
  }
  if (staged.num_executed != report.num_executed) {
    return differs("executed", staged.num_executed, report.num_executed);
  }
  if (staged.view.size() != report.target_view_size) {
    return differs("|U|", staged.view.size(), report.target_view_size);
  }
  if (staged.num_schemes != report.num_schemes) {
    return differs("schemes", staged.num_schemes, report.num_schemes);
  }
  if (staged.batch_suspicious != report.batch_suspicious) {
    return "batch verdict differs";
  }
  if (staged.suspicious_alone != report.SuspiciousQueryIds()) {
    return "suspicious-alone queries differ";
  }
  if (staged.minimal_batch != report.minimal_batch) {
    return "minimal batch differs";
  }
  return "";
}

}  // namespace perfbench
