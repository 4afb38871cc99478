#ifndef AUDITDB_PERFBENCH_STAGED_H_
#define AUDITDB_PERFBENCH_STAGED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/audit/auditor.h"
#include "src/audit/target_view.h"
#include "trace.h"

namespace perfbench {

/// Outcome and work counts of one staged audit.
struct StagedAudit {
  size_t num_logged = 0;
  size_t num_admitted = 0;
  size_t num_candidates = 0;
  size_t num_executed = 0;
  size_t num_schemes = 0;
  bool batch_suspicious = false;
  std::vector<int64_t> minimal_batch;
  std::vector<int64_t> suspicious_alone;
  auditdb::TimeInterval data_interval;
  /// U over the DATA-INTERVAL versions, as the staged view phase built it.
  auditdb::audit::TargetView view;
  /// Log position of the pin, for the oracle.
  size_t backlog_events = 0;

  size_t snapshot_calls = 0;
  size_t versions = 0;
  /// Backlog events read across all SnapshotAt replays.
  size_t events_scanned = 0;
};

/// Reproduces Auditor::Audit with default options stage by stage, calling
/// each layer's public entry point in turn and wrapping every call in a
/// span under a root span named "audit.staged" with id `audit_id`:
///   sql.parse, audit.qualify, audit.static_screen (StaticScreenRange),
///   backlog.version_timestamps, backlog.snapshot (SnapshotAt),
///   target_view.compute (ComputeTargetView), backlog.event_count_at,
///   engine.access_profile (ComputeAccessProfile), suspicion.batch,
///   suspicion.singletons, suspicion.minimize (MinimizeBatch),
/// grouped under audit.{static,view,exec,check}_phase spans.
/// `error` receives the first failing call's status.
bool RunStagedAudit(const auditdb::Database& db,
                    const auditdb::Backlog& backlog,
                    const auditdb::QueryLog& log,
                    const std::string& audit_text, auditdb::Timestamp now,
                    Tracer* tracer, const std::string& audit_id,
                    StagedAudit* out, std::string* error);

/// "" when the staged audit reproduces the report's counts, |U|, batch
/// verdict, suspicious-alone set and minimal batch; otherwise the first
/// difference.
std::string CompareWithReport(const StagedAudit& staged,
                              const auditdb::audit::AuditReport& report);

}  // namespace perfbench

#endif  // AUDITDB_PERFBENCH_STAGED_H_
