// Deferred delivery: the lock-free whole-arena exchange.
//
// Senders buffer locally, one recycled arena per destination and superstep
// parity; at the superstep boundary the receiver swaps each source's filled
// outbox arena of the ended superstep's parity against the drained arena it
// holds from an earlier boundary. The arenas ping-pong forever, so
// steady-state supersteps never touch the allocator and no lock is ever
// taken — the natural BSP realisation on shared memory.
//
// Like the eager transport's alternating input buffers, the two parities
// are what let one barrier close a superstep: a sender that races past the
// barrier into superstep t+1 fills the other parity, and cannot reach the
// next barrier — hence parity t again — until every receiver has drained
// parity t.
#pragma once

#include <array>
#include <vector>

#include "core/transport.hpp"

namespace gbsp {

class DeferredTransport final : public detail::TransportBase {
 public:
  DeferredTransport(const Config& cfg, SlabPool& pool,
                    const std::atomic<bool>* abort_flag)
      : TransportBase(cfg, pool, abort_flag) {}

  [[nodiscard]] const char* name() const override { return "deferred"; }
  [[nodiscard]] bool needs_boundary_barriers() const override { return true; }
  [[nodiscard]] bool steady_state_zero_alloc() const override { return true; }

  void reset_run(const std::vector<std::unique_ptr<detail::WorkerState>>&
                     states) override;
  std::byte* stage_reserve(detail::WorkerState& st, int dest,
                           std::size_t n) override;
  void flush(detail::WorkerState& st) override;
  void deliver_to(detail::WorkerState& dst) override;
  [[nodiscard]] bool has_unflushed(
      const detail::WorkerState& st) const override;

 private:
  struct PerWorker {
    // outbox[t % 2][d]: the arena this processor fills for destination d
    // during superstep t. inbox_from[s]: the drained arena this processor
    // holds for source s, swapped against s's outbox at the boundary.
    std::array<std::vector<MessageArena>, 2> outbox;
    std::vector<MessageArena> inbox_from;
  };

  std::vector<PerWorker> per_;
};

}  // namespace gbsp
