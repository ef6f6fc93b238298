// Barrier implementations for superstep boundaries.
//
// All barriers here are abort-aware: a worker that fails calls abort(), and
// the remaining workers, instead of waiting forever for a peer that will
// never arrive, throw BspAborted out of the barrier — at once, even when
// they are parked in the kernel. This is what makes failure injection
// testable (DESIGN.md section 9).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/config.hpp"

namespace gbsp {

/// Thrown out of a barrier when another worker aborted the computation.
/// Internal control flow: the runtime catches it and unwinds the worker.
struct BspAborted : std::runtime_error {
  BspAborted() : std::runtime_error("BSP computation aborted by a peer") {}
};

/// Abstract superstep barrier for a fixed set of participants.
class Barrier {
 public:
  virtual ~Barrier() = default;

  /// Blocks until all participants arrive. `pid` identifies the caller
  /// (needed by the dissemination barrier; central barriers ignore it).
  /// Throws BspAborted once abort() has been called.
  virtual void arrive_and_wait(int pid) = 0;

  /// Aborts the barrier for good: every current waiter (spinning or parked)
  /// wakes and throws BspAborted, and so does every later arrival.
  /// Thread-safe and idempotent; callable from any thread.
  virtual void abort() = 0;
};

/// Central counter barrier that spins briefly, then parks — the paper's
/// spin-flag synchronisation (App. B.1) made safe for oversubscribed hosts.
///
/// Waiters spin on one 32-bit word (generation in the high bits, abort flag
/// in bit 0) for about 50 us, pausing the CPU between polls for the first
/// few microseconds and yielding it after that — from the start when there
/// are more participants than hardware threads — so a spinner does not
/// starve a worker it waits for. Past the budget they park in atomic::wait;
/// the last arriver's notify_all (or abort()) wakes them.
class CentralSpinBarrier final : public Barrier {
 public:
  explicit CentralSpinBarrier(int nprocs);
  void arrive_and_wait(int pid) override;
  void abort() override;

 private:
  static constexpr std::uint32_t kAbortBit = 1;
  static constexpr std::uint32_t kGenerationStep = 2;

  const int nprocs_;
  // True when nprocs_ exceeds the host's hardware threads: never pause.
  const bool oversubscribed_;
  alignas(64) std::atomic<int> count_{0};
  alignas(64) std::atomic<std::uint32_t> word_{0};
};

/// Mutex + condition-variable central barrier: parks at once, never spins.
/// Kept for the App. B.1 barrier ablation.
class CentralBlockingBarrier final : public Barrier {
 public:
  explicit CentralBlockingBarrier(int nprocs);
  void arrive_and_wait(int pid) override;
  void abort() override;

 private:
  const int nprocs_;
  std::mutex mutex_;
  std::condition_variable cv_;
  int count_ = 0;
  std::uint64_t generation_ = 0;
  bool aborted_ = false;
};

/// Dissemination barrier: ceil(log2 p) rounds; in round r, processor i
/// signals processor (i + 2^r) mod p and waits (yield-spinning) for its own
/// round-r signal.
class DisseminationBarrier final : public Barrier {
 public:
  explicit DisseminationBarrier(int nprocs);
  void arrive_and_wait(int pid) override;
  void abort() override;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> signals{0};
  };
  const int nprocs_;
  int rounds_ = 0;
  std::atomic<bool> aborted_{false};
  // slots_[r * nprocs_ + pid]: signals received by `pid` in round r.
  // (unique_ptr array: atomics are neither copyable nor movable.)
  std::unique_ptr<Slot[]> slots_;
  // expected_[pid * rounds_ + r]: signals `pid` has consumed in round r.
  // Only thread `pid` touches its row.
  std::vector<std::uint64_t> expected_;
};

std::unique_ptr<Barrier> make_barrier(BarrierKind kind, int nprocs);

}  // namespace gbsp
