// Timing utilities: wall-clock and per-thread CPU timers, plus a hybrid
// sleep that stays accurate at microsecond granularity (needed when the
// machine emulator charges superstep latencies of a few microseconds).
#pragma once

#include <chrono>
#include <cstdint>

namespace gbsp {

/// Monotonic wall-clock stopwatch.
///
/// Started on construction; `elapsed_s()` / `elapsed_us()` read without
/// stopping, `restart()` rebases.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  [[nodiscard]] double elapsed_us() const { return elapsed_s() * 1e6; }

  /// Raw monotonic wall time in nanoseconds since an unspecified epoch.
  /// steady_clock reads through the vDSO: no syscall.
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Per-thread CPU-time stopwatch (CLOCK_THREAD_CPUTIME_ID).
///
/// Measures time this thread actually spent executing, excluding time it was
/// descheduled — the right clock for measuring BSP "work" when worker threads
/// share cores: under Serialized scheduling (the emulator) and when a run has
/// more workers than the host has hardware threads. The runtime uses it for
/// work slices in exactly those cases and WallTimer::now_ns() otherwise:
/// CLOCK_THREAD_CPUTIME_ID has no vDSO path, so every read is a syscall
/// (~0.4 us on a 4-vCPU x86-64 VM, against ~40 ns for steady_clock).
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(now_ns()) {}

  void restart() { start_ = now_ns(); }

  [[nodiscard]] double elapsed_s() const {
    return static_cast<double>(now_ns() - start_) * 1e-9;
  }
  [[nodiscard]] double elapsed_us() const {
    return static_cast<double>(now_ns() - start_) * 1e-3;
  }

  /// Raw per-thread CPU time in nanoseconds since an unspecified epoch.
  static std::int64_t now_ns();

 private:
  std::int64_t start_;
};

/// Sleep for `us` microseconds with sub-millisecond accuracy.
///
/// OS sleeps typically have ~50us-1ms granularity; this sleeps for the bulk
/// and spins for the remainder, so emulated superstep latencies down to ~1us
/// are charged faithfully.
void precise_sleep_us(double us);

}  // namespace gbsp
