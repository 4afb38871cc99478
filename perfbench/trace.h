#ifndef AUDITDB_PERFBENCH_TRACE_H_
#define AUDITDB_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One timed call into a layer. Spans of one audit or one request share
/// `id`; `parent` is the index of the enclosing span (-1 for a root).
struct Span {
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int parent = -1;
  std::string id;

  double ms() const { return static_cast<double>(end_us - start_us) / 1e3; }
  /// The layer a span belongs to: its name up to the first '.'.
  std::string layer() const { return name.substr(0, name.find('.')); }
};

/// In-memory span recorder. The benchmark wraps each public call into a
/// layer in a ScopedSpan; nothing is written until the run ends. A
/// disabled tracer records nothing, so untraced runs pay only a branch.
/// Begin/End are safe to call from several threads.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  int Begin(const std::string& name, int parent, const std::string& id);
  void End(int index);

  /// Copy of every span recorded so far.
  std::vector<Span> spans() const;

  /// Writes {"spans":[{"name","start_us","end_us","parent","id"}...]}.
  bool WriteJson(const std::string& path) const;

  /// Self time per layer in ms: each span's duration minus the part its
  /// child spans cover, summed by layer.
  std::map<std::string, double> SelfMsByLayer() const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent,
             const std::string& id)
      : tracer_(tracer), index_(tracer->Begin(name, parent, id)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // AUDITDB_PERFBENCH_TRACE_H_
