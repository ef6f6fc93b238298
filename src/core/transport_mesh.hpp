// Mesh transport: the send-first all-pairs total exchange (the paper's
// App. B.2 Cenju schedule), one implementation for every mesh delivery. It
// composes two layers:
//
//   * a Mesh (core/mesh.hpp), picked by make_transport from Config::delivery:
//     SocketpairMesh (Socket: p ranks as threads of this process, AF_UNIX
//     socketpairs), TcpMesh (Tcp: this process is rank Config::rank, one
//     AF_INET stream per peer) or ShmMesh (Shm: rank Config::rank, shared
//     memory rings per peer). The mesh owns endpoint lifecycle, the
//     bootstrap, the dirty-wire rebuild contract, and one Channel
//     (core/channel.hpp) per pair: an FdChannel over a socket, a
//     RingChannel over a shm pair segment. A channel owns its medium's
//     buffering, kernel buffer sizing, wait constants and peer-death check.
//   * one ExchangeEngine (core/exchange_engine.hpp) per WorkerState this
//     process hosts, indexed by pid: p engines in-process, the local rank's
//     one under bsp_launch. The engine owns the v2 sectioned wire format,
//     the schedule, one send path and one receive path over the channels,
//     the idle wait, split-phase windows, and the fault-injection sites.
//
// This class is the Transport seam glue: it routes stage_reserve/sync through
// the right worker's engine, publishes inbox views after each boundary
// (re-pointing zero-copy shm frames at the shared mapping), marks the mesh
// dirty when a worker unwinds mid-stage, and drives the Serialized-mode
// exchange: rounds of every engine's window from one thread, waiting in the
// same IdleWait the engines use. Nothing above the channels changes between
// loopback socketpairs, a real LAN, and shared memory.
//
// Lifecycle: the mesh is built once and *reused across Runtime::run()
// calls* while every exchange completes cleanly (a drained stream has
// nothing to leak into the next run). Any worker that unwinds mid-stage —
// peer death, timeout, abort — marks the wire dirty, and the next
// reset_run() rebuilds the mesh from scratch. Across processes that rebuild
// re-enters the bootstrap, which completes only when every peer rank does
// the same: a coordinated retry reconnects, a dead peer makes it time out
// with a descriptive BspTransportError.
//
// Process mode (Tcp, Shm) differs only in topology: the Runtime hosts one
// worker (pid == Config::rank) and the exchange itself is the cross-rank
// synchronisation, as on the paper's PC-LAN where each machine was one rank.
// Checkpoint resume degrades to whole-run replay (this process sees only
// its own rank's checkpoints), and validate_config rejects Serialized
// scheduling: there is no global exchange to serialize.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/exchange_engine.hpp"
#include "core/mesh.hpp"
#include "core/transport.hpp"

namespace gbsp {

class MeshTransport final : public detail::TransportBase {
 public:
  MeshTransport(const Config& cfg, SlabPool& pool,
                const std::atomic<bool>* abort_flag,
                std::unique_ptr<detail::Mesh> mesh)
      : TransportBase(cfg, pool, abort_flag),
        mesh_(std::move(mesh)),
        wait_(cfg_, abort_) {}

  [[nodiscard]] const char* name() const override {
    return to_string(cfg_.delivery);
  }
  [[nodiscard]] bool needs_boundary_barriers() const override { return false; }
  [[nodiscard]] bool steady_state_zero_alloc() const override { return false; }

  void reset_run(const std::vector<std::unique_ptr<detail::WorkerState>>&
                     states) override;
  std::byte* stage_reserve(detail::WorkerState& st, int dest,
                           std::size_t n) override;
  void flush(detail::WorkerState& st) override {
    // Sends stage straight into per-destination arenas; only the fault
    // harness hooks the boundary here.
    inject_boundary_fault(FaultSite::Flush, st);
  }
  // begin_exchange opens the boundary (the Deliver fault hook, then every
  // peer's stage on the wire out of the staging arenas); progress() runs one
  // non-blocking round of every pending send and receive; deliver_to opens
  // the window unless sync_begin already did, resumes it with the blocking
  // spin-then-nap driver, and publishes the inbox views. A split window's
  // wall-clock counts against Config::socket_stage_timeout_ms exactly like
  // slow peer compute in a rigid boundary — the timeout must exceed the
  // longest overlap window.
  void begin_exchange(detail::WorkerState& st) override;
  bool progress(detail::WorkerState& st) override;
  void deliver_to(detail::WorkerState& dst) override;
  void exchange(const std::vector<std::unique_ptr<detail::WorkerState>>&
                    states) override;
  [[nodiscard]] bool has_unflushed(
      const detail::WorkerState& st) const override;

  /// Fault-injection hook (tests/ops): hard-closes every endpoint worker
  /// `pid` owns, as if its process died mid-superstep. Peers observe EOF on
  /// their next read of the shared stream and abort with BspTransportError.
  void debug_kill_endpoints(int pid) { mesh_->kill_endpoints(pid); }

  /// Raw endpoint fd (tests): `pid`'s end of the pair with `peer`, -1 for
  /// self. Used by the corruption tests to inject garbled bytes into a live
  /// stream.
  [[nodiscard]] int debug_raw_fd(int pid, int peer) const {
    return mesh_->fd(pid, peer);
  }

  /// How many times the mesh has been built. Consecutive clean runs reuse
  /// the mesh (count stays flat); a run that unwound mid-stage forces a
  /// rebuild on the next reset_run().
  [[nodiscard]] std::uint64_t debug_mesh_builds() const {
    return mesh_->builds();
  }

 private:
  [[nodiscard]] detail::ExchangeEngine& engine_of(int pid) {
    return *eng_[static_cast<std::size_t>(pid)];
  }
  /// Builds dst.inbox views from the filled inbox arena.
  void publish(detail::WorkerState& dst);

  std::unique_ptr<detail::Mesh> mesh_;
  // eng_[pid]: the engine of each worker this process hosts, null for ranks
  // hosted elsewhere (unique_ptr: an engine holds arenas and iovec scratch
  // whose addresses its own stage states point at — it must never
  // relocate).
  std::vector<std::unique_ptr<detail::ExchangeEngine>> eng_;
  detail::IdleWait wait_;  // the Serialized driver's idle wait, reused
};

}  // namespace gbsp
