// Superstep barriers, tested directly (make_barrier) and through the one
// barrier per boundary that the in-memory transports rely on.
//
//  * BarrierMatrix: every BarrierKind over many generations at p = 1, 2, 4
//    and 2 x hardware threads (oversubscribed); no worker may leave
//    generation k before all p have arrived at it.
//  * BarrierAbort: a peer that aborts long after the others parked (past the
//    spin budget) must wake every waiter at once, with BspAborted.
//  * SingleBarrierRace: one slow receiver (a Deliver-site delay every
//    superstep) while its peers race past the barrier and send the next
//    superstep's traffic; the received streams must match a run without the
//    delay bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/barrier.hpp"
#include "core/fault.hpp"
#include "core/runtime.hpp"

namespace gbsp {
namespace {

int hw_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

std::string kind_name(BarrierKind kind) {
  switch (kind) {
    case BarrierKind::CentralSpin: return "Spin";
    case BarrierKind::CentralBlocking: return "Block";
    case BarrierKind::Dissemination: return "Diss";
  }
  return "Unknown";
}

const BarrierKind kKinds[] = {BarrierKind::CentralSpin,
                              BarrierKind::CentralBlocking,
                              BarrierKind::Dissemination};

// p = 0 stands for the oversubscribed row, 2 x hardware threads, so the
// test names do not depend on the host.
int resolve_procs(int p) { return p == 0 ? 2 * hw_threads() : p; }

class BarrierMatrix
    : public testing::TestWithParam<std::tuple<BarrierKind, int>> {};

TEST_P(BarrierMatrix, NoWorkerLeavesAGenerationEarly) {
  const BarrierKind kind = std::get<0>(GetParam());
  const int p = resolve_procs(std::get<1>(GetParam()));
  constexpr std::uint64_t kGenerations = 10'000;
  const auto np = static_cast<std::uint64_t>(p);

  auto barrier = make_barrier(kind, p);
  std::atomic<std::uint64_t> arrivals{0};
  std::atomic<std::uint64_t> early{0};
  std::atomic<std::uint64_t> late{0};
  std::vector<std::thread> threads;
  for (int pid = 0; pid < p; ++pid) {
    threads.emplace_back([&, pid] {
      for (std::uint64_t k = 0; k < kGenerations; ++k) {
        arrivals.fetch_add(1, std::memory_order_acq_rel);
        barrier->arrive_and_wait(pid);
        // Leaving generation k: all p arrivals of generations 0..k are in,
        // and no peer can be past its arrival at generation k+1.
        const std::uint64_t seen = arrivals.load(std::memory_order_acquire);
        if (seen < (k + 1) * np) early.fetch_add(1);
        if (seen > (k + 2) * np - 1) late.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(early.load(), 0u);
  EXPECT_EQ(late.load(), 0u);
  EXPECT_EQ(arrivals.load(), kGenerations * np);
}

INSTANTIATE_TEST_SUITE_P(
    BarrierKinds, BarrierMatrix,
    testing::Combine(testing::ValuesIn(kKinds), testing::Values(1, 2, 4, 0)),
    [](const testing::TestParamInfo<std::tuple<BarrierKind, int>>& info) {
      const int p = std::get<1>(info.param);
      return kind_name(std::get<0>(info.param)) +
             (p == 0 ? std::string("Oversubscribed") : "P" + std::to_string(p));
    });

class BarrierAbort : public testing::TestWithParam<BarrierKind> {};

TEST_P(BarrierAbort, WakesParkedWaitersAtOnce) {
  using clock = std::chrono::steady_clock;
  constexpr int kProcs = 4;
  auto barrier = make_barrier(GetParam(), kProcs);
  std::atomic<int> entered{0};
  std::vector<clock::time_point> threw_at(kProcs - 1);
  std::vector<char> threw(kProcs - 1, 0);
  std::vector<std::thread> threads;
  // Ranks 0..2 enter; rank 3 is the peer that never arrives and aborts.
  for (int pid = 0; pid < kProcs - 1; ++pid) {
    threads.emplace_back([&, pid] {
      entered.fetch_add(1);
      try {
        barrier->arrive_and_wait(pid);
      } catch (const BspAborted&) {
        threw_at[static_cast<std::size_t>(pid)] = clock::now();
        threw[static_cast<std::size_t>(pid)] = 1;
      }
    });
  }
  while (entered.load() < kProcs - 1) std::this_thread::yield();
  // Far past the spin budget: the waiters are parked by now.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const clock::time_point aborted_at = clock::now();
  barrier->abort();
  for (auto& t : threads) t.join();
  for (int pid = 0; pid < kProcs - 1; ++pid) {
    const auto i = static_cast<std::size_t>(pid);
    ASSERT_TRUE(threw[i]) << "rank " << pid << " left without BspAborted";
    EXPECT_LT(threw_at[i] - aborted_at, std::chrono::milliseconds(50))
        << "rank " << pid;
  }
  // Every later arrival throws too: the abort is for good.
  EXPECT_THROW(barrier->arrive_and_wait(kProcs - 1), BspAborted);
}

INSTANTIATE_TEST_SUITE_P(BarrierKinds, BarrierAbort, testing::ValuesIn(kKinds),
                         [](const testing::TestParamInfo<BarrierKind>& info) {
                           return kind_name(info.param);
                         });

// --- One barrier per boundary: a slow receiver against racing senders.

constexpr int kRaceProcs = 4;
constexpr int kRaceSteps = 40;
constexpr int kRaceSlowRank = 2;
constexpr int kRaceMessagesPerDest = 9;

/// Per rank, every message received in every superstep, as (source, payload
/// word) pairs in delivery order. Payloads fold in the sender's running
/// digest of what it received, so a message lost, duplicated or read from
/// the wrong superstep anywhere changes every later stream.
using Streams = std::vector<std::vector<std::uint64_t>>;

Streams run_race(DeliveryStrategy delivery, bool slow_receiver) {
  Config cfg;
  cfg.nprocs = kRaceProcs;
  cfg.delivery = delivery;
  cfg.deterministic_delivery = true;
  // Small chunks: eager senders splice into the slow receiver's next-parity
  // buffer mid-superstep, while it still drains the ended one.
  cfg.eager_chunk_messages = 4;
  Runtime rt(cfg);
  if (slow_receiver) {
    FaultPlan plan;
    FaultRule r;
    r.site = FaultSite::Deliver;
    r.kind = FaultKind::DelayUs;
    r.rank = kRaceSlowRank;
    r.arg = 2000;
    r.count = 1'000'000;  // every superstep
    plan.rules.push_back(r);
    rt.set_fault_plan(plan);
  }
  Streams streams(kRaceProcs);
  rt.run([&streams](Worker& w) {
    std::vector<std::uint64_t>& mine =
        streams[static_cast<std::size_t>(w.pid())];
    std::uint64_t digest = static_cast<std::uint64_t>(w.pid()) + 1;
    for (int step = 0; step < kRaceSteps; ++step) {
      for (int d = 0; d < w.nprocs(); ++d) {
        for (int i = 0; i < kRaceMessagesPerDest; ++i) {
          const std::uint64_t word =
              digest * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(
                                                   (step * 64 + d) * 16 + i);
          w.send(d, word);
        }
      }
      w.sync();
      mine.push_back(0xFFFF'FFFF'0000'0000ull | static_cast<unsigned>(step));
      while (const Message* m = w.get_message()) {
        const auto word = m->as<std::uint64_t>();
        mine.push_back(m->source);
        mine.push_back(word);
        digest = (digest ^ word) * 0x100000001B3ull;
      }
    }
  });
  return streams;
}

class SingleBarrierRace : public testing::TestWithParam<DeliveryStrategy> {};

TEST_P(SingleBarrierRace, SlowReceiverSeesBitIdenticalStreams) {
  const Streams expected = run_race(GetParam(), /*slow_receiver=*/false);
  const Streams got = run_race(GetParam(), /*slow_receiver=*/true);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(got[r].size(),
              static_cast<std::size_t>(kRaceSteps) *
                  (1 + 2 * kRaceProcs * kRaceMessagesPerDest))
        << "rank " << r;
    EXPECT_TRUE(got[r] == expected[r]) << "rank " << r << " diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(
    InMemory, SingleBarrierRace,
    testing::Values(DeliveryStrategy::Deferred, DeliveryStrategy::Eager),
    [](const testing::TestParamInfo<DeliveryStrategy>& info) {
      return std::string(info.param == DeliveryStrategy::Deferred ? "Deferred"
                                                                  : "Eager");
    });

}  // namespace
}  // namespace gbsp
