// In-memory span recorder for the traced benchmark run.
//
// Spans are kept in memory while the benchmark runs and written once at exit
// as Chrome trace-event JSON (the format chrome://tracing and Perfetto
// open). Each span carries its name, start, end, parent span and run id; its
// self time is its duration minus the part of it covered by child spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;  ///< since the tracer's epoch
  double end_us = 0.0;
  int parent = -1;  ///< index of the parent span, -1 for a root
  int run = -1;     ///< run id the span belongs to, -1 for none
  int tid = 0;      ///< 0 = benchmark main thread, 1 + pid = BSP worker
};

/// Self time summed over every span of one name.
struct SelfTime {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing; begin() returns -1 and end(-1) is a
  /// no-op, so call sites need no branches.
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Microseconds since the tracer's epoch. Safe from any thread.
  [[nodiscard]] double now_us() const;

  /// Opens a span on the main thread and returns its id.
  int begin(const std::string& name, int parent = -1, int run = -1);
  void end(int id);

  /// Adds finished spans recorded elsewhere (BSP worker threads keep their
  /// own vectors during a run and hand them over after it).
  void add(const std::vector<Span>& spans);

  /// Per-name totals of duration and self time.
  [[nodiscard]] std::map<std::string, SelfTime> self_time_by_name() const;

  /// Writes every span as a complete ("X") trace event; `metadata_json` is
  /// a JSON object stored under "otherData". Returns false if the file
  /// cannot be written.
  bool write_chrome_json(const std::string& path,
                         const std::string& metadata_json) const;

 private:
  /// Self time of every span, in recording order.
  [[nodiscard]] std::vector<double> self_times_us() const;

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int parent = -1,
             int run = -1)
      : tracer_(tracer), id_(tracer.begin(name, parent, run)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
