#include "src/service/audit_service.h"

namespace auditdb {
namespace service {

AuditService::AuditService(const Database* db, const Backlog* backlog,
                           const QueryLog* log, AuditServiceOptions options)
    : db_(db),
      backlog_(backlog),
      log_(log),
      pool_(options.pool, &metrics_),
      scheduler_(&pool_, options.scheduler),
      cache_(options.decision_cache_enabled
                 ? std::make_shared<audit::DecisionCache>(
                       options.decision_cache)
                 : nullptr) {}

audit::AuditOptions AuditService::WithCache(
    const audit::AuditOptions& options) const {
  audit::AuditOptions effective = options;
  if (effective.cache == nullptr) effective.cache = cache_.get();
  return effective;
}

Result<audit::AuditReport> AuditService::Audit(
    const std::string& audit_text, Timestamp now,
    const audit::AuditOptions& options, std::vector<ShardFailure>* failures) {
  return scheduler_.Run(*db_, *backlog_, *log_, audit_text, now,
                        WithCache(options), failures);
}

Result<audit::AuditReport> AuditService::Audit(
    const audit::AuditExpression& expr, const audit::AuditOptions& options,
    std::vector<ShardFailure>* failures) {
  return scheduler_.Run(*db_, *backlog_, *log_, expr, WithCache(options),
                        failures);
}

std::vector<AuditScheduler::ExpressionScreening> AuditService::ScreenLibrary(
    const audit::ExpressionLibrary& library,
    const audit::AuditOptions& options) {
  return scheduler_.ScreenLibrary(*db_, *backlog_, *log_, library,
                                  WithCache(options));
}

audit::AuditPin AuditService::Pin() const {
  audit::AuditPin pin;
  // Capture order matters: log/backlog prefixes before the database
  // snapshot, so every pinned log entry's writes are in the pinned view.
  pin.log_size = log_->size();
  pin.backlog_events = backlog_->event_count();
  pin.db = db_->Snapshot();
  return pin;
}

Result<audit::AuditReport> AuditService::AuditPinned(
    const std::string& audit_text, Timestamp now, const audit::AuditPin& pin,
    const audit::AuditOptions& options, std::vector<ShardFailure>* failures) {
  auto expr = audit::ParseAudit(audit_text, now);
  if (!expr.ok()) return expr.status();
  return scheduler_.RunPinned(*backlog_, *log_, *expr, pin,
                              WithCache(options), failures);
}

std::vector<AuditScheduler::ExpressionScreening>
AuditService::ScreenLibraryPinned(const audit::ExpressionLibrary& library,
                                  const audit::AuditPin& pin,
                                  const audit::AuditOptions& options) {
  return scheduler_.ScreenLibraryPinned(*db_, *backlog_, *log_, library, pin,
                                        WithCache(options));
}

}  // namespace service
}  // namespace auditdb
