// The Transport seam: how BSP messages travel from sender to receiver.
//
// The paper's central claim is portability — one SPMD program runs unchanged
// over SGI shared buffers, Cenju MPI all-to-all, and a PC-LAN staged TCP
// exchange (Appendix B). This interface is that seam in code: the Runtime
// owns worker lifecycle, scheduling, and instrumentation, and dispatches all
// message movement through one Transport selected from Config::delivery:
//
//   * DeferredTransport (core/transport_deferred.hpp): lock-free whole-arena
//     swap at the boundary — the shared-memory realisation.
//   * EagerTransport (core/transport_eager.hpp): the paper's Appendix B.1
//     alternating input buffers with chunk-granularity locking.
//   * MeshTransport (core/transport_mesh.hpp): a send-first all-pairs
//     total exchange (the paper's Appendix B.2 Cenju schedule) over the
//     Appendix B.3 stream-per-pair interconnect, one implementation over
//     three meshes — in-process socketpairs (Socket), TCP between processes
//     (Tcp), and shared-memory rings between processes (Shm).
//
// Arena ownership: transports own every message arena. WorkerState carries
// only the inbox *views*; the bytes behind them live in a transport-owned
// arena for the destination worker and stay valid until that worker's next
// sync(). Slabs recycle through the Runtime's SlabPool, which outlives the
// per-run transport state — that is what keeps the deferred/eager steady
// state allocation-free across supersteps and across run() calls.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "core/config.hpp"
#include "core/fault.hpp"
#include "core/worker_state.hpp"

namespace gbsp {

/// A peer failed at the transport level (closed connection, stage timeout,
/// corrupt stream, injected fault). Like BspAborted it unwinds the worker,
/// but unlike BspAborted it carries a diagnosis and is reported as the run's
/// error rather than swallowed — and, when Config::max_run_retries is set,
/// it is the one error class Runtime::run() treats as recoverable.
///
/// Every throw site supplies uniform context so a failure deep inside a
/// staged exchange is diagnosable from the message alone: the observing
/// rank, the peer it was talking to (-1 when not peer-specific), the
/// superstep boundary being crossed, the exchange stage (-1 outside a staged
/// exchange), the observed errno (0 when the failure is not a syscall), and
/// how many bytes of the current transfer had already moved.
struct BspTransportError : std::runtime_error {
  int rank = -1;
  int peer = -1;
  std::int64_t superstep = -1;
  int stage = -1;
  int err = 0;
  std::uint64_t bytes_moved = 0;

  explicit BspTransportError(const std::string& what)
      : std::runtime_error("gbsp transport: " + what) {}

  /// Formats "gbsp transport: <what> [rank=R peer=P superstep=S stage=K
  /// errno=E (strerror) bytes_moved=B]".
  BspTransportError(const std::string& what, int rank, int peer,
                    std::int64_t superstep, int stage, int err,
                    std::uint64_t bytes_moved);
};

/// Message-movement strategy. One Transport instance serves one Runtime for
/// its whole lifetime; per-run state is rebuilt by reset_run().
///
/// Concurrency contract (the seam's locking rules):
///  * stage_reserve(), flush(), begin_exchange() and progress() are called
///    by the owning worker's thread only, with `st` being that worker's own
///    state.
///  * deliver_to() in Parallel mode is called concurrently, one call per
///    worker. For barrier transports (needs_boundary_barriers() == true) each
///    call runs after the one boundary barrier, when every worker has sealed
///    the ended superstep's sends — but faster peers may already be past the
///    barrier and sending in the next superstep. Implementations therefore
///    keep sender-side state per superstep parity (t % 2), and deliver_to()
///    reads only the ended superstep's parity: it may read *any* worker's
///    arenas of that parity without locks, but may mutate only state
///    belonging to `dst` (including handing `dst`'s drained arenas back into
///    that parity). A sender cannot reach the next barrier, and so cannot
///    return to this parity, until every receiver has drained it. For
///    self-synchronising transports (socket) there is no global barrier:
///    deliver_to() may touch only dst's own state and dst's endpoints, and
///    must tolerate peers that are still computing.
///  * exchange() replaces deliver_to() in Serialized mode. It is invoked by
///    the SerialScheduler from whichever worker thread completes the round,
///    with the scheduler lock held — effectively single-threaded, never
///    concurrent with stage_reserve()/flush()/deliver_to().
///
/// A boundary is flush() (seal the sends) then deliver_to() (complete the
/// exchange and publish the inbox). A split-phase boundary
/// (Worker::sync_begin()/sync_end()) puts begin_exchange() after flush() to
/// open the exchange early, progress() calls inside the window, and the same
/// deliver_to() at sync_end, which completes the window begin_exchange()
/// opened. All counters go into the open superstep's record, st.step.
class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// True when each superstep boundary needs one global barrier before
  /// delivery: deliver_to() runs after the one barrier and reads only the
  /// ended superstep's parity of the senders' state. Self-synchronising
  /// transports return false: their exchange blocks until every peer's data
  /// for this boundary has arrived, which is exactly the synchronisation a
  /// barrier would provide.
  [[nodiscard]] virtual bool needs_boundary_barriers() const = 0;

  /// True when steady-state supersteps are served entirely by slab recycling
  /// (SlabPool::fresh_allocations() freezes after warm-up). The conformance
  /// suite asserts this for transports that promise it.
  [[nodiscard]] virtual bool steady_state_zero_alloc() const = 0;

  /// Rebuilds per-run state. Called once per Runtime::run(), after the
  /// worker states are rebuilt and before any worker thread starts.
  /// Destroying the previous run's arenas here releases their slabs into
  /// the pool for the new run to reacquire.
  virtual void reset_run(
      const std::vector<std::unique_ptr<detail::WorkerState>>& states) = 0;

  /// Stages an `n`-byte message from `st` (the sending worker) to `dest`
  /// and returns its writable payload slot: the caller builds the message
  /// in place. Bumps st.seq_to[dest]; delivered after the receiver's next
  /// sync(). Slots are pointer-stable (`MessageArena::append` slabs never
  /// move), so the pointer stays valid until the message is delivered —
  /// what lets the collectives layer combine many logical payloads into one
  /// framed message without a staging copy. The slot is part of the current
  /// superstep's traffic whether or not the caller writes all of it.
  virtual std::byte* stage_reserve(detail::WorkerState& st, int dest,
                                   std::size_t n) = 0;

  /// Seals `st`'s sending side: the top of every boundary, before the
  /// barrier for barrier transports.
  virtual void flush(detail::WorkerState& st) = 0;

  /// Opens `st`'s exchange at sync_begin(), after flush(), so bytes can move
  /// while the caller computes on local data; its previous inbox views are
  /// invalidated. The default does nothing: all movement then waits for
  /// deliver_to(), under the same barrier placement as a rigid sync().
  /// Same thread and state rules as a self-synchronising deliver_to().
  virtual void begin_exchange(detail::WorkerState& st) { (void)st; }

  /// Opportunistic progress inside the overlap window: moves whatever bytes
  /// are ready without blocking. Returns true when the incoming exchange for
  /// `st` is fully drained (deliver_to() will not block). The default
  /// (no incremental progress) returns false.
  virtual bool progress(detail::WorkerState& st) {
    (void)st;
    return false;
  }

  /// Delivers everything sent to `dst` during the ended superstep —
  /// completing the exchange begin_exchange() opened, or running the whole
  /// exchange — and rebuilds dst.inbox with views, valid until dst's next
  /// sync(). Charges dst.step.recv_* (Config::collect_stats). See the class
  /// comment for the concurrency contract.
  virtual void deliver_to(detail::WorkerState& dst) = 0;

  /// Serialized-mode global exchange: delivers for every worker in one call
  /// (single-threaded; see the class comment). Finished workers still
  /// participate as empty senders where the wire protocol requires it.
  virtual void exchange(
      const std::vector<std::unique_ptr<detail::WorkerState>>& states) = 0;

  /// True when `st` holds staged-but-undeliverable messages — used by the
  /// runtime to diagnose sends after a worker's final sync().
  [[nodiscard]] virtual bool has_unflushed(
      const detail::WorkerState& st) const = 0;

  /// Installs (or clears, with nullptr) the fault-injection harness. The
  /// injector must outlive the transport's use of it; null means no faults
  /// (the production fast path: one pointer check per injection point).
  virtual void set_fault_injector(FaultInjector* injector) = 0;
};

/// Human-readable transport name for a strategy ("deferred", "eager",
/// "socket", "tcp", "shm").
[[nodiscard]] const char* to_string(DeliveryStrategy d);

/// Parses a --transport flag value; throws std::invalid_argument on unknown
/// names.
[[nodiscard]] DeliveryStrategy delivery_from_string(const std::string& s);

/// Applies the bsp_launch rank environment to `cfg`: GBSP_RANK + GBSP_NPROCS
/// select process mode and set Config::rank; GBSP_TRANSPORT (tcp when
/// absent) picks the cross-process transport; GBSP_HOST / GBSP_PORT /
/// GBSP_SHM_NAME / GBSP_CONNECT_TIMEOUT_MS fill the transport's knobs.
/// Returns false — leaving cfg untouched — when GBSP_RANK is absent (not
/// launched by bsp_launch); throws std::invalid_argument, again leaving cfg
/// untouched, on a malformed environment.
bool configure_proc_from_env(Config& cfg);

/// Builds the Transport for cfg.delivery. `pool` must outlive the transport
/// (it backs every arena); `abort_flag` is the runtime's shared abort flag,
/// polled by blocking transports so peer failure unwinds instead of hanging.
std::unique_ptr<Transport> make_transport(const Config& cfg, SlabPool& pool,
                                          const std::atomic<bool>* abort_flag);

namespace detail {

/// Shared plumbing for the concrete transports: config/pool/abort handles
/// and the inbox-view publication helpers every strategy ends with.
class TransportBase : public Transport {
 public:
  TransportBase(const Config& cfg, SlabPool& pool,
                const std::atomic<bool>* abort_flag)
      : cfg_(cfg), pool_(&pool), abort_(abort_flag) {}

  /// Default Serialized-mode exchange: deliver to each unfinished worker in
  /// pid order. Transports whose wire protocol involves finished workers
  /// (the mesh transport) override this.
  void exchange(
      const std::vector<std::unique_ptr<WorkerState>>& states) override {
    for (const auto& st : states) {
      if (st->finished) continue;
      deliver_to(*st);
    }
  }

  void set_fault_injector(FaultInjector* injector) override {
    fault_ = injector;
  }

 protected:
  /// Consults the injector at a boundary hook (Deliver/Flush) on behalf of
  /// `st` and acts out the decision: DelayUs sleeps, Abort/PeerHangup throw
  /// BspTransportError (in-memory transports have no endpoint to shut down,
  /// so both model sudden peer death). Syscall-only kinds are ignored here.
  void inject_boundary_fault(FaultSite site, WorkerState& st) const;
  /// Appends one view per frame of `arena` onto dst.inbox, accumulating the
  /// h-relation packet count into `recv_packets` when stats are collected.
  void append_views(WorkerState& dst, const MessageArena& arena,
                    std::uint64_t& recv_packets) const;

  /// Final delivery accounting: sorts dst.inbox by (source, seq) when
  /// `sort_deterministic` (Config::deterministic_delivery) and charges the
  /// received packets/messages to the superstep that will read them.
  void finish_delivery(WorkerState& dst, std::uint64_t recv_packets,
                       bool sort_deterministic) const;

  const Config cfg_;
  SlabPool* const pool_;
  const std::atomic<bool>* const abort_;
  FaultInjector* fault_ = nullptr;
};

}  // namespace detail
}  // namespace gbsp
