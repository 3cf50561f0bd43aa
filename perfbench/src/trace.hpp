// In-memory span recorder for the traced benchmark run.
//
// Spans are opened from the benchmark's own code around calls into the
// library's public functions (one span per call: name, start, end,
// parent), kept in memory and written out as JSON lines when the run
// ends. Single-threaded: every span is opened on the main thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int id = 0;
    int parent = -1;  ///< -1 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 = still open
  };

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& rec, int id) : rec_(rec), id_(id) {}
    ~Scope() { rec_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    int id_;
  };

  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span whose parent is the innermost open span.
  [[nodiscard]] Scope span(std::string name);

  /// Durations in seconds of every closed span called `name`.
  std::vector<double> durations_s(const std::string& name) const;

  /// One JSON object per line: {"id","parent","name","start_ns","end_ns"}.
  void write_jsonl(const std::string& path) const;

  std::size_t size() const { return spans_.size(); }

 private:
  std::int64_t now_ns() const;
  void close(int id);

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
