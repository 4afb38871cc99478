#include "trace.h"

#include <fstream>

namespace perfbench {

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

int Tracer::Begin(const std::string& name, int parent,
                  const std::string& id) {
  if (!enabled_) return -1;
  int64_t now = std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - origin_)
                    .count();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, now, now, parent, id});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int index) {
  if (index < 0) return;
  int64_t now = std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - origin_)
                    .count();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(index)].end_us = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::vector<Span> all = spans();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"spans\":[";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << JsonEscape(s.name)
        << "\",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
        << ",\"parent\":" << s.parent << ",\"id\":\"" << JsonEscape(s.id)
        << "\"}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::vector<Span> all = spans();
  std::vector<double> child_ms(all.size(), 0.0);
  for (const Span& s : all) {
    if (s.parent >= 0) child_ms[static_cast<size_t>(s.parent)] += s.ms();
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < all.size(); ++i) {
    out[all[i].layer()] += all[i].ms() - child_ms[i];
  }
  return out;
}

}  // namespace perfbench
