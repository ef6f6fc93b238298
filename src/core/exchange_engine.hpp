// Exchange engine: the transport-agnostic half of the mesh transports,
// pumping one superstep boundary's total exchange over the per-peer
// Channels (core/channel.hpp) a Mesh (core/mesh.hpp) hands out.
//
// One engine serves one local rank. It owns that rank's staging state (the
// per-destination outbox arenas, the inbox arena the receiver's views live
// in, per-stage send and receive state) and the whole wire protocol; each
// channel owns its medium (sockets or shared-memory rings: buffering, kernel
// buffer sizing, waiting, peer-death detection, the zero-copy slab); the
// mesh owns the endpoints' lifecycle; the transport that composes them owns
// publication (inbox views), dirty-wire marking, and the Transport seam. The
// engine has one send path, one receive path and one idle wait, whatever
// the medium.
//
// Schedule — send-first all-pairs (the Cenju library's, paper App. B.2).
// Stage k (1 .. p-1) pairs this rank's send toward (pid + k) mod p with its
// receive from (pid - k) mod p — the numbering of the PC-LAN's rigid
// (p-1)-stage exchange (App. B.3), which the fault plans, FaultContext::stage
// and BspTransportError's stage field keep using. But no stage waits for
// another: opening a boundary builds all p-1 stages' sections, and every
// round pushes every pending send before it reads. Receives drain in stage
// order (pid-1, pid-2, ...), so the inbox keeps its order — self first, then
// sources in stage order — while all sends keep being pumped. The staged law
// itself survives only in the emulator's TcpStaged model, where the paper's
// PC-LAN numbers are reproduced.
//
// Wire format v2 — sectioned stages. A stage is three contiguous sections:
//
//   stage    := preamble header_block payload_block
//   preamble := count:u64 header_bytes:u64 payload_bytes:u64      (24 B)
//   header_block  := WireFrameHeader{seq:u32 pad:u32 len:u64} * count
//   payload_block := payload[0] .. payload[count-1]   (no padding)
//
// with the invariants header_bytes == count*16 and payload_bytes ==
// sum(len). Sectioning is what makes both ends cheap. The sender never
// serializes: it points an iovec at the preamble, a packed header block, and
// the staging arena's payload spans themselves, and hands the list to the
// channel's gather-write — zero payload copies, one sendmsg per ~IOV_MAX
// spans on a socket. The receiver reads each section through an iovec list
// too: the preamble into the stage state, the header block into scratch, the
// payloads straight into inbox-arena slots. Whatever the channel already
// holds (a socket's buffered recv, a ring's readable run) is consumed
// without a transfer, and bytes past the stage (the peer's next-superstep
// stage, sent early because it ran ahead) stay there for the next boundary.
// Inbox views keep the lifetime contract of the in-memory transports: valid
// until the receiving worker's next sync().
//
// There are no boundary barriers. The exchange is the synchronisation — a
// worker finishes its boundary only after every peer's (possibly empty)
// stage has arrived, so no worker can leave a boundary before every peer
// has entered it. Stream framing keeps consecutive supersteps unambiguous
// even when one worker runs ahead.
//
// Waiting is adaptive spin-then-nap (IdleWait): when a round moves nothing,
// the worker retries rounds for the channels' spin budget (yielding between
// attempts, so oversubscribed hosts hand the core to the peer) before one
// ppoll over every pending channel — each unfinished send and the stage
// being received — with bounded exponential backoff. Each channel brings its
// medium's constants and wait fd: a socket is polled for readiness (ms
// naps), a ring's control stream for its peer's death (us naps).
//
// Zero-copy: a channel with a slab (a ring with Config::shm_slab_bytes > 0)
// takes payloads >= Config::shm_inline_threshold out of line: reserve()
// hands the sender a slot inside the pair's shared slab, a 16-byte ShmZcDesc
// travels the ring in the payload's place (wire header pad == 1), and
// apply_zc_views() re-points the receiver's inbox views at the mapping
// itself, through the source channel's validating resolve. Slab halves
// recycle on alternating boundary epochs, fenced by the consumer-published
// boundaries_opened counter.
//
// Robustness: every send and receive is pumped through non-blocking partial
// read/write loops (EINTR retried), so an exchange never deadlocks on kernel
// buffer limits. An exchange that makes no progress for
// Config::socket_stage_timeout_ms, or that observes a closed peer, throws
// BspTransportError; incoming frame headers are validated (pad must be 0,
// len capped by Config::socket_max_frame_bytes, sections must agree) so a
// corrupt stream is diagnosed instead of sizing an arena append from
// garbage. The runtime's abort flag is polled on every idle wait, so a peer
// that dies mid-superstep unwinds the survivors within one backoff period.
// Every transfer from the medium (not a read of bytes the channel already
// holds) and every idle poll consults the fault injector (when installed)
// first — the deterministic fault matrix drives this engine identically
// over every mesh.
#pragma once

#include <sys/uio.h>  // iovec

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/arena.hpp"
#include "core/channel.hpp"
#include "core/config.hpp"
#include "core/fault.hpp"
#include "core/mesh.hpp"
#include "core/worker_state.hpp"

namespace gbsp {
namespace detail {

/// On-wire frame header (everything little-endian host order: both ends of a
/// mesh link are same-architecture — the TCP mesh's RankHello magic doubles
/// as the byte-order tripwire). pad is transmitted as zero and validated on
/// receipt — a nonzero pad is the cheapest tripwire for a desynchronised or
/// corrupt stream — with ONE carve-out: from a channel that accepts
/// zero-copy (a shm ring), pad == 1 with len == 16 flags a descriptor frame
/// (the payload is a ShmZcDesc pointing into the pair's shared slab);
/// everything else stays corruption.
struct WireFrameHeader {
  std::uint32_t seq;
  std::uint32_t pad;
  std::uint64_t len;
};
static_assert(sizeof(WireFrameHeader) == 16, "wire header layout drifted");

/// Stage preamble: one per stage, ahead of the header block. The redundancy
/// (header_bytes is derivable from count) is deliberate — the receiver
/// cross-checks the sections against each other before trusting any length.
struct StagePreamble {
  std::uint64_t count;
  std::uint64_t header_bytes;   // must equal count * sizeof(WireFrameHeader)
  std::uint64_t payload_bytes;  // must equal the sum of frame lens
};
static_assert(sizeof(StagePreamble) == 24, "wire preamble layout drifted");

/// The exchange protocol driver for ONE rank of the mesh.
class ExchangeEngine {
 public:
  /// `fault` is a handle to the owning transport's injector pointer (the
  /// injector can be swapped between runs without re-plumbing the engine);
  /// `abort_flag` is the runtime's shared abort flag, polled on idle waits.
  ExchangeEngine(const Config& cfg, SlabPool& pool, Mesh& mesh,
                 const std::atomic<bool>* abort_flag,
                 FaultInjector* const* fault)
      : cfg_(&cfg), mesh_(&mesh), fault_(fault), wait_(cfg, abort_flag) {
    pool_ = &pool;
    inbox_arena_.bind(pool_);
  }

  /// Binds the engine to its rank and the mesh's channels and (re)sizes
  /// per-destination staging for a p-rank run. Called after every mesh
  /// build.
  void attach(int pid, int nprocs);

  /// Clean-run reuse: releases every arena's slabs back to the pool (a
  /// drained stream has nothing to leak) and clears stale window flags.
  /// Bytes the channels hold are stream content and are kept.
  void reset_for_reuse();

  /// True when a channel holds bytes no boundary has consumed yet (a
  /// peer's stage that arrived ahead of this rank's boundary).
  [[nodiscard]] bool has_buffered_bytes() const;

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] MessageArena& inbox_arena() { return inbox_arena_; }
  [[nodiscard]] bool has_unflushed() const;

  /// Stages an n-byte frame for `dest` and returns its writable payload
  /// slot. Rejects frames above Config::socket_max_frame_bytes at the send
  /// call, where the application can see a clean error.
  std::byte* reserve(WorkerState& st, int dest, std::size_t n);

  /// Re-points every zero-copy inbox view of the boundary just exchanged
  /// from its 16-byte on-ring descriptor to the payload's bytes in the
  /// pair's shared slab, validating the descriptor's bounds, and adjusts
  /// `recv_packets` from descriptor size to true payload size. The transport
  /// calls this between append_views and finish_delivery; a no-op when the
  /// boundary carried no zero-copy frames.
  void apply_zc_views(WorkerState& dst, std::uint64_t& recv_packets);

  // --- The exchange of one boundary is a window: begin_window opens it,
  // pump_window advances it without blocking, finish_window blocks until it
  // is done. A rigid boundary is begin_window + finish_window; split-phase
  // supersteps pump in between; the Serialized driver pumps every engine's
  // window from one thread.

  /// Opens the boundary (self-delivery, inbox reset), builds every stage's
  /// sections, and makes one send-first round: with kernel buffers sized to
  /// the stages, small exchanges are often fully on the wire before the
  /// caller's overlapped compute even starts.
  void begin_window(WorkerState& st);

  /// One non-blocking round: pushes every pending send until it would
  /// block, then drains receives in stage order until one would block.
  /// Returns the bytes moved (0: the round made no progress).
  std::size_t pump_window(WorkerState& st);

  /// Blocking resume: rounds with the adaptive spin-then-nap wait until
  /// the window is done. Every in-flight send and receive picks up exactly
  /// where the last round left it. Clears window_active(); the caller
  /// publishes afterwards.
  void finish_window(WorkerState& st);

  [[nodiscard]] bool window_active() const { return window_active_; }
  [[nodiscard]] bool window_done() const {
    return sends_left_ == 0 && recv_k_ == nprocs_;
  }

  /// Adds the channels the open window is waiting on to `wait`: the stage
  /// being received first, then every unfinished send.
  void add_waits(IdleWait& wait, WorkerState& st);

 private:
  /// Progress state of stage k: the send toward (pid + k) mod p and the
  /// receive from (pid - k) mod p. Each stage owns its send sections (all
  /// p-1 sends are in flight at once); the receive side reuses the engine's
  /// header and iovec scratch, since receives drain one stage at a time.
  struct StageState {
    int k = 0;  // 1 .. p-1
    // Send side. send_pre lives here so its iovec entry stays valid for the
    // boundary's lifetime; send_iov entries are consumed (and partially
    // advanced) in place from send_idx.
    StagePreamble send_pre{};
    std::vector<std::byte> hdr_out;  // packed outgoing header block
    std::vector<iovec> send_iov;     // preamble + hdr_out + payload spans
    std::size_t send_idx = 0;
    MessageArena* send_arena = nullptr;  // cleared once fully on the wire
    bool send_done = false;
    // Receive side: preamble -> header block -> payloads into the inbox,
    // each section read through the engine's recv_iov_.
    enum class Phase { Preamble, Headers, Payload, Done };
    Phase phase = Phase::Preamble;
    StagePreamble recv_pre{};
    std::uint64_t section_left = 0;  // bytes still missing from the section
    bool recv_done = false;
    // Bytes moved so far in each direction of this stage — the transfer
    // progress a BspTransportError reports so a failure mid-stage is
    // diagnosable ("died 8 MB into a 64 MB stage" vs "died instantly").
    std::uint64_t send_moved = 0;
    std::uint64_t recv_moved = 0;
  };

  [[nodiscard]] int send_peer(int k) const { return (pid_ + k) % nprocs_; }
  [[nodiscard]] int recv_peer(int k) const {
    return (pid_ + nprocs_ - k) % nprocs_;
  }

  /// Self-delivery + inbox reset at the top of a boundary (stage 0 of the
  /// schedule: whole slabs splice over, no wire); tells every channel the
  /// boundary opened (rings advance and publish the zero-copy epoch).
  void open_boundary(WorkerState& dst);
  /// Builds the v2 stage sections for outbox[(pid + k) % p]: packs the
  /// header block, points ss.send_iov at preamble/headers/arena payload
  /// spans, resets ss for stage k. The staging arena stays live until the
  /// last byte is written (pump_send clears it).
  void begin_stage(StageState& ss, int k);
  /// Pumps one direction of a stage; returns bytes moved (0: would block).
  /// Throws BspTransportError on peer death, a medium error, or a corrupt
  /// incoming stage. Both pumps consult the fault injector (when installed)
  /// before every transfer from the medium and act out its decision:
  /// simulated EINTR/EAGAIN, truncated transfers, endpoint shutdown, delays,
  /// and aborts.
  std::size_t pump_send(WorkerState& st, StageState& ss);
  std::size_t pump_recv(WorkerState& st, StageState& ss);
  /// Moves the receive on to the next stage (recv_k_ + 1), starting with its
  /// preamble; recv_k_ == nprocs_ once every receive is done.
  void next_recv();
  /// Points recv_iov_ at one contiguous section of ss (its preamble or the
  /// header block) and enters `phase`.
  void begin_section(StageState& ss, StageState::Phase phase, void* base,
                     std::size_t len);
  /// Accounts `got` bytes that just landed in the section ss is receiving
  /// and advances its phase, validating each completed control section.
  void advance_section(WorkerState& st, StageState& ss, int src,
                       std::size_t got);
  /// Validates the fully received header block, appends its frames to the
  /// inbox arena and builds recv_iov_; advances ss to Payload (or Done).
  void parse_header_block(WorkerState& st, StageState& ss, int src);
  /// Consults the injector before a transfer or poll at `at`. Returns the
  /// decision the caller must act on (nullopt = proceed normally); applies
  /// DelayUs/PeerHangup side effects itself and throws on Abort.
  std::optional<FaultInjector::Decision> syscall_fault(WorkerState& st, int k,
                                                       FaultSite at, int peer,
                                                       std::uint64_t moved);
  /// Applies a pending CorruptByte decision to `n` freshly received control
  /// bytes at `buf` (XOR 0xA5 at the rule's offset mod n), before the
  /// validation path reads them.
  void maybe_corrupt(WorkerState& st, const StageState& ss, int src,
                     std::byte* buf, std::size_t n);
  /// What a channel operation of stage k with `peer` reports on failure.
  static IoSite site(WorkerState& st, int peer, int k, std::uint64_t moved) {
    return {st.pid, peer, static_cast<std::int64_t>(st.superstep), k, moved,
            &st.step.wire_syscalls};
  }
  [[nodiscard]] Channel& channel(int peer) const {
    return *chan_[static_cast<std::size_t>(peer)];
  }
  [[nodiscard]] FaultInjector* injector() const {
    return fault_ != nullptr ? *fault_ : nullptr;
  }

  const Config* cfg_;
  Mesh* mesh_;
  FaultInjector* const* fault_;
  SlabPool* pool_ = nullptr;
  IdleWait wait_;  // finish_window's idle wait (its fd set is reused)

  int pid_ = 0;
  int nprocs_ = 0;
  std::vector<Channel*> chan_;  // the mesh's, per peer; nullptr for self
  std::vector<MessageArena> outbox_;  // per-destination staging
  MessageArena inbox_arena_;          // received frames; views live here
  // stages_[k - 1]: stage k. Sized at attach and never resized during a
  // run — each stage's send_iov points at its own send_pre.
  std::vector<StageState> stages_;
  // Receive scratch of the one stage being received (capacity persists
  // across stages and runs).
  std::vector<std::byte> hdr_in_;  // incoming header block
  // The section being received: the preamble, the header block, or the
  // inbox-arena payload slots; entries before recv_idx_ are full.
  std::vector<iovec> recv_iov_;
  std::size_t recv_idx_ = 0;
  // Window state: sends not yet fully on the wire, and the stage whose
  // receive is in progress (nprocs_ once every receive is done).
  bool window_active_ = false;
  int sends_left_ = 0;
  int recv_k_ = 0;

  // --- Zero-copy frames (the slab and its epochs are the channels').
  // Ordinals (append order) of staged descriptor frames, per destination;
  // consumed by begin_stage when it packs the headers (pad = 1).
  std::vector<std::vector<std::size_t>> zc_out_;
  // Inbox-arena ordinals of received descriptor frames of this boundary,
  // with their source rank; consumed by apply_zc_views.
  struct ZcIn {
    std::size_t ordinal;
    int src;
  };
  std::vector<ZcIn> zc_in_;
};

}  // namespace detail
}  // namespace gbsp
