#include "trace.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

SpanRecorder::Scope SpanRecorder::span(std::string name) {
  Span s;
  s.name = std::move(name);
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return Scope(*this, spans_.back().id);
}

void SpanRecorder::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::vector<double> SpanRecorder::durations_s(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name && s.end_ns >= 0)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  return out;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  for (const Span& s : spans_)
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
}

}  // namespace perfbench
