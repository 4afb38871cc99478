#ifndef AUDITDB_SERVICE_SCHEDULER_H_
#define AUDITDB_SERVICE_SCHEDULER_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/audit/auditor.h"
#include "src/audit/expression_library.h"
#include "src/service/thread_pool.h"

namespace auditdb {
namespace service {

struct SchedulerOptions {
  /// Log entries per static-screening shard; the scheduler may shrink
  /// this to keep every worker busy on small logs. Shard boundaries never
  /// affect output (results merge in log order).
  size_t static_shard_size = 256;
  /// Candidates per execution / suspicion-check shard.
  size_t exec_shard_size = 32;
  /// Wall-clock budget for each job of a run; zero = none. An expired
  /// job completes with DeadlineExceeded instead of running.
  std::chrono::milliseconds job_deadline{0};
  /// Cooperative cancellation shared by all jobs of a run (optional).
  std::shared_ptr<CancellationToken> cancel;
  /// When true (default) the run stops at the first shard error, exactly
  /// like the serial Auditor. When false, a poisoned shard only degrades
  /// the run: its queries drop out of the report and the failure is
  /// recorded in `failures`.
  bool fail_fast = true;
};

/// One shard's failure (stage name, shard index within the stage, error).
/// For the `history` stage the index is that of the first candidate the
/// failed pass could not visit.
struct ShardFailure {
  std::string stage;
  size_t shard = 0;
  Status status;
};

/// Shards an audit run into independent jobs along the paper's natural
/// parallel axes — (standing expression) × (query-log range) × (database
/// version) — fans them out over a ThreadPool, and merges per-shard
/// results deterministically:
///
///   static   one job per contiguous log range (admission + parse +
///            static candidacy); the target-view job runs concurrently;
///   exec     one sequential history-cursor pass pinning a view per
///            database version the candidates saw, then one job per
///            candidate range (re-execution with lineage) against the
///            shared read-only views;
///   check    one job per candidate range for per-query suspicion; the
///            batch verdict and greedy minimization stay serial (the
///            greedy order is part of the output contract).
///
/// Every merge happens in log order into pre-sized slots, so the report
/// is byte-identical (AuditReport::CanonicalString) to the serial
/// Auditor's at any thread count.
class AuditScheduler {
 public:
  /// `pool` must outlive the scheduler; metrics land in the pool's
  /// registry under "scheduler.*".
  explicit AuditScheduler(ThreadPool* pool,
                          SchedulerOptions options = SchedulerOptions{});

  /// Parallel counterpart of Auditor::Audit over explicit stores. When
  /// `failures` is non-null, degraded shards (fail_fast = false) are
  /// reported there; a clean run leaves it empty.
  Result<audit::AuditReport> Run(const Database& db, const Backlog& backlog,
                                 const QueryLog& log,
                                 const audit::AuditExpression& expr,
                                 const audit::AuditOptions& options =
                                     audit::AuditOptions{},
                                 std::vector<ShardFailure>* failures =
                                     nullptr) const;

  /// Parses (anchored at `now`) and runs.
  Result<audit::AuditReport> Run(const Database& db, const Backlog& backlog,
                                 const QueryLog& log,
                                 const std::string& audit_text, Timestamp now,
                                 const audit::AuditOptions& options =
                                     audit::AuditOptions{},
                                 std::vector<ShardFailure>* failures =
                                     nullptr) const;

  /// Run against a caller-captured pin instead of pinning at entry — for
  /// callers that must make the pin capture atomic with respect to state
  /// transitions the stores themselves don't order (e.g. the server pins
  /// under a brief shared lock so a concurrent dump load stays atomic,
  /// then audits with no lock held at all). All data is read from `pin`.
  Result<audit::AuditReport> RunPinned(const Backlog& backlog,
                                       const QueryLog& log,
                                       const audit::AuditExpression& expr,
                                       const audit::AuditPin& pin,
                                       const audit::AuditOptions& options =
                                           audit::AuditOptions{},
                                       std::vector<ShardFailure>* failures =
                                           nullptr) const;

  /// Outcome of screening one library member.
  struct ExpressionScreening {
    int expression_id = 0;
    Status status;
    /// Valid iff status.ok().
    audit::AuditReport report;
  };

  /// Batch screening along the expression axis: audits every member of
  /// `library` against the same log, one job per expression, results in
  /// ascending id order. A failed expression degrades (its status is
  /// recorded), never crashes the sweep.
  std::vector<ExpressionScreening> ScreenLibrary(
      const Database& db, const Backlog& backlog, const QueryLog& log,
      const audit::ExpressionLibrary& library,
      const audit::AuditOptions& options = audit::AuditOptions{}) const;

  /// ScreenLibrary against a caller-captured pin (see RunPinned).
  std::vector<ExpressionScreening> ScreenLibraryPinned(
      const Database& db, const Backlog& backlog, const QueryLog& log,
      const audit::ExpressionLibrary& library, const audit::AuditPin& pin,
      const audit::AuditOptions& options = audit::AuditOptions{}) const;

  ThreadPool* pool() const { return pool_; }
  const SchedulerOptions& options() const { return options_; }

 private:
  ThreadPool* pool_;
  SchedulerOptions options_;

  Counter* runs_;
  Counter* shards_dispatched_;
  Counter* shards_failed_;
  Histogram* static_stage_micros_;
  Histogram* view_stage_micros_;
  Histogram* exec_stage_micros_;
  Histogram* check_stage_micros_;
};

}  // namespace service
}  // namespace auditdb

#endif  // AUDITDB_SERVICE_SCHEDULER_H_
