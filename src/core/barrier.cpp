#include "core/barrier.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace gbsp {

namespace {

// How long a CentralSpinBarrier waiter polls before it parks: a few times
// the cost of an empty superstep on a multi-core host, far below a
// scheduler time slice. The clock is read once per kClockEvery polls.
constexpr std::chrono::microseconds kSpinBudget{50};
constexpr unsigned kClockEvery = 64;
// Past this part of the budget a waiter yields instead of pausing even when
// every worker has a hardware thread: a peer that still has not arrived is
// likely descheduled by some other load, and a pausing spinner would hold
// the core it needs for the rest of the budget.
constexpr std::chrono::microseconds kPauseBudget{5};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

bool oversubscribed(int threads, unsigned hardware_threads) {
  return static_cast<unsigned>(threads) > std::max(1u, hardware_threads);
}

bool host_oversubscribed(int threads) {
  return oversubscribed(threads, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------- CentralSpin

CentralSpinBarrier::CentralSpinBarrier(int nprocs)
    : nprocs_(nprocs), oversubscribed_(host_oversubscribed(nprocs)) {}

void CentralSpinBarrier::arrive_and_wait(int /*pid*/) {
  const std::uint32_t seen = word_.load(std::memory_order_acquire);
  if ((seen & kAbortBit) != 0) throw BspAborted{};
  if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == nprocs_) {
    // Reset before publishing: a released waiter re-arriving at the next
    // generation must find the count at zero.
    count_.store(0, std::memory_order_relaxed);
    word_.fetch_add(kGenerationStep, std::memory_order_acq_rel);
    word_.notify_all();
    return;
  }
  std::uint32_t cur = seen;
  const auto start = std::chrono::steady_clock::now();
  bool yield = oversubscribed_;
  for (unsigned polls = 1;; ++polls) {
    cur = word_.load(std::memory_order_acquire);
    if (cur != seen) break;
    if (polls % kClockEvery == 0) {
      const auto waited = std::chrono::steady_clock::now() - start;
      if (waited >= kSpinBudget) {
        // atomic::wait returns only once the word differs from `seen`.
        word_.wait(seen, std::memory_order_acquire);
        cur = word_.load(std::memory_order_acquire);
        break;
      }
      yield = yield || waited >= kPauseBudget;
    }
    if (yield) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
  if ((cur & kAbortBit) != 0) throw BspAborted{};
}

void CentralSpinBarrier::abort() {
  word_.fetch_or(kAbortBit, std::memory_order_acq_rel);
  word_.notify_all();
}

// ------------------------------------------------------------ CentralBlocking

CentralBlockingBarrier::CentralBlockingBarrier(int nprocs) : nprocs_(nprocs) {}

void CentralBlockingBarrier::arrive_and_wait(int /*pid*/) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (aborted_) throw BspAborted{};
  const std::uint64_t gen = generation_;
  if (++count_ == nprocs_) {
    count_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] { return generation_ != gen || aborted_; });
  if (generation_ == gen) throw BspAborted{};
}

void CentralBlockingBarrier::abort() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = true;
  }
  cv_.notify_all();
}

// -------------------------------------------------------------- Dissemination

DisseminationBarrier::DisseminationBarrier(int nprocs) : nprocs_(nprocs) {
  rounds_ = 0;
  for (int reach = 1; reach < nprocs_; reach *= 2) ++rounds_;
  if (rounds_ == 0) rounds_ = 1;  // p == 1: trivial round
  slots_ = std::make_unique<Slot[]>(static_cast<std::size_t>(rounds_) *
                                    static_cast<std::size_t>(nprocs_));
  expected_.assign(static_cast<std::size_t>(nprocs_) * rounds_, 0);
}

void DisseminationBarrier::arrive_and_wait(int pid) {
  if (aborted_.load(std::memory_order_acquire)) throw BspAborted{};
  if (nprocs_ == 1) return;
  for (int r = 0, reach = 1; r < rounds_; ++r, reach *= 2) {
    const int partner = (pid + reach) % nprocs_;
    slots_[static_cast<std::size_t>(r) * nprocs_ + partner].signals.fetch_add(
        1, std::memory_order_acq_rel);
    std::uint64_t& want = expected_[static_cast<std::size_t>(pid) * rounds_ + r];
    ++want;
    const auto& mine = slots_[static_cast<std::size_t>(r) * nprocs_ + pid];
    while (mine.signals.load(std::memory_order_acquire) < want) {
      if (aborted_.load(std::memory_order_acquire)) throw BspAborted{};
      std::this_thread::yield();
    }
  }
}

void DisseminationBarrier::abort() {
  aborted_.store(true, std::memory_order_release);
}

// -------------------------------------------------------------------- factory

std::unique_ptr<Barrier> make_barrier(BarrierKind kind, int nprocs) {
  switch (kind) {
    case BarrierKind::CentralSpin:
      return std::make_unique<CentralSpinBarrier>(nprocs);
    case BarrierKind::CentralBlocking:
      return std::make_unique<CentralBlockingBarrier>(nprocs);
    case BarrierKind::Dissemination:
      return std::make_unique<DisseminationBarrier>(nprocs);
  }
  throw std::invalid_argument("unknown BarrierKind");
}

}  // namespace gbsp
