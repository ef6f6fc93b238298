// Exchange engine: the transport-agnostic half of the mesh transports,
// pumping one superstep boundary's total exchange over whatever endpoints a
// Mesh (core/mesh.hpp) provides.
//
// One engine serves one local rank. It owns that rank's staging state (the
// per-destination outbox arenas, the inbox arena the receiver's views live
// in, per-stage send state and per-peer receive buffers) and the whole wire
// protocol; the mesh owns fds and buffer sizing; the transport that composes
// the two owns publication (inbox views), dirty-wire marking, and the
// Transport seam.
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
// the staging arena's payload spans themselves, and pumps with sendmsg —
// zero payload copies, one syscall per ~IOV_MAX spans. On fd meshes the
// receiver reads through a fixed per-peer buffer (kRecvBufferBytes): one
// recv takes whatever the kernel holds for that peer, so a small stage costs
// one syscall, and bytes past the stage (the peer's next-superstep stage,
// sent early because the peer ran ahead) stay buffered for the next
// boundary. Preamble and header block are validated out of that buffer, and
// payloads are copied into inbox-arena slots; a payload (or header block)
// remainder at least the buffer's size is readv'd straight into its slots
// instead, so big stages pay no extra copy. Either way inbox views keep the
// lifetime contract of the in-memory transports: valid until the receiving
// worker's next sync().
//
// There are no boundary barriers. The exchange is the synchronisation — a
// worker finishes its boundary only after every peer's (possibly empty)
// stage has arrived, so no worker can leave a boundary before every peer
// has entered it. Stream framing keeps consecutive supersteps unambiguous
// even when one worker runs ahead.
//
// Waiting is adaptive spin-then-poll: when a round moves nothing, the worker
// retries rounds for Config::socket_spin_us (yielding between attempts, so
// oversubscribed hosts hand the core to the peer) before one poll over every
// pending fd — each unfinished send and the stage being received — with
// bounded exponential backoff.
//
// Shm fast path: when the mesh exposes shared-memory pair views
// (Mesh::shm_pair, non-null for ShmMesh), both pumps swap their syscalls for
// SPSC ring operations (core/shm_ring.hpp) on the same iovec cursors — the
// whole sectioned state machine, validation, fault clamps, and split-phase
// windows run unchanged, a full ring is the EAGAIN analogue, and nothing on
// the steady-state data path enters the kernel (wire_syscalls reads 0; idle
// waits replace poll with bounded sleeps plus a liveness peek of each
// pending peer's control stream). The ring is the receive buffer there, so
// shm has no per-peer buffer of its own. Payloads >=
// Config::shm_inline_threshold additionally go zero-copy: reserve() hands
// the sender a slot inside the pair's shared slab, a 16-byte ShmZcDesc
// travels the ring in the payload's place (wire header pad == 1), and
// apply_zc_views() re-points the receiver's inbox views at the mapping
// itself. Slab halves recycle on alternating boundary epochs, fenced by the
// consumer-published boundaries_opened counter.
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
// Every syscall consults the fault injector (when installed) first — the
// deterministic fault matrix drives this engine identically over either
// mesh.
#pragma once

#include <poll.h>     // pollfd
#include <sys/uio.h>  // iovec

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/arena.hpp"
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
/// corrupt stream — with ONE carve-out: on a shm mesh, pad == 1 with
/// len == 16 flags a zero-copy descriptor frame (the payload is a ShmZcDesc
/// pointing into the pair's shared slab); everything else stays corruption.
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
  /// Fixed size of each fd-mesh peer's receive buffer: large enough that a
  /// small stage (preamble + header block + payload) and any run-ahead
  /// bytes behind it arrive in one recv, small enough that the copy into
  /// inbox slots costs less than the syscalls it saves. Section remainders
  /// at least this large bypass the buffer.
  static constexpr std::size_t kRecvBufferBytes = std::size_t{16} << 10;

  /// `fault` is a handle to the owning transport's injector pointer (the
  /// injector can be swapped between runs without re-plumbing the engine);
  /// `abort_flag` is the runtime's shared abort flag, polled on idle waits.
  ExchangeEngine(const Config& cfg, SlabPool& pool, Mesh& mesh,
                 const std::atomic<bool>* abort_flag,
                 FaultInjector* const* fault)
      : cfg_(&cfg), mesh_(&mesh), abort_(abort_flag), fault_(fault) {
    pool_ = &pool;
    inbox_arena_.bind(pool_);
  }

  /// Binds the engine to its rank and (re)sizes per-destination staging and
  /// per-peer receive buffers for a p-rank run. Called after every mesh
  /// build, so the receive buffers start empty.
  void attach(int pid, int nprocs);

  /// Clean-run reuse: releases every arena's slabs back to the pool (a
  /// drained stream has nothing to leak) and clears stale window flags.
  /// Buffered receive bytes are stream content and are kept.
  void reset_for_reuse();

  /// True when a peer's receive buffer holds bytes no boundary has consumed
  /// yet (a peer's stage that arrived ahead of this rank's boundary).
  [[nodiscard]] bool has_buffered_bytes() const;

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] MessageArena& inbox_arena() { return inbox_arena_; }
  [[nodiscard]] bool has_unflushed() const;

  /// Stages an n-byte frame for `dest` and returns its writable payload
  /// slot. Rejects frames above Config::socket_max_frame_bytes at the send
  /// call, where the application can see a clean error.
  std::byte* reserve(WorkerState& st, int dest, std::size_t n);

  /// Shm only: re-points every zero-copy inbox view of the boundary just
  /// exchanged from its 16-byte on-ring descriptor to the payload's bytes in
  /// the pair's shared slab, validating the descriptor's bounds, and adjusts
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

  /// Blocking resume: rounds with the adaptive spin-then-poll wait until
  /// the window is done. Every in-flight send and receive picks up exactly
  /// where the last round left it. Clears window_active(); the caller
  /// publishes afterwards.
  void finish_window(WorkerState& st);

  [[nodiscard]] bool window_active() const { return window_active_; }
  [[nodiscard]] bool window_done() const {
    return sends_left_ == 0 && recv_k_ == nprocs_;
  }

  /// Appends the fds the open window is waiting on: POLLOUT for every
  /// unfinished send, POLLIN for the stage being received.
  void append_poll_fds(std::vector<pollfd>& fds) const;

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
    // Receive side: preamble -> header block -> payloads into the inbox.
    enum class Phase { Preamble, Headers, Payload, Done };
    Phase phase = Phase::Preamble;
    std::byte scratch[sizeof(StagePreamble)];
    std::size_t scratch_off = 0;
    StagePreamble recv_pre{};
    std::size_t hdr_off = 0;           // header-block bytes received so far
    std::size_t recv_idx = 0;          // cursor into the engine's recv_iov_
    std::uint64_t payload_left = 0;    // payload bytes still to arrive
    bool recv_done = false;
    // Bytes moved so far in each direction of this stage — the transfer
    // progress a BspTransportError reports so a failure mid-stage is
    // diagnosable ("died 8 MB into a 64 MB stage" vs "died instantly").
    std::uint64_t send_moved = 0;
    std::uint64_t recv_moved = 0;
  };

  /// A peer's receive buffer on fd meshes: bytes [beg, end) arrived but are
  /// not yet consumed by a stage. Null data on shm meshes and for self.
  struct RecvBuffer {
    std::unique_ptr<std::byte[]> data;
    std::size_t beg = 0;
    std::size_t end = 0;
  };

  [[nodiscard]] int send_peer(int k) const { return (pid_ + k) % nprocs_; }
  [[nodiscard]] int recv_peer(int k) const {
    return (pid_ + nprocs_ - k) % nprocs_;
  }

  /// Self-delivery + inbox reset at the top of a boundary (stage 0 of the
  /// schedule: whole slabs splice over, no wire). On a shm mesh this also
  /// advances the zero-copy epoch and publishes it to every peer.
  void open_boundary(WorkerState& dst);
  /// Builds the v2 stage sections for outbox[(pid + k) % p]: packs the
  /// header block, points ss.send_iov at preamble/headers/arena payload
  /// spans, resets ss for stage k. The staging arena stays live until the
  /// last byte is written (pump_send clears it).
  void begin_stage(StageState& ss, int k);
  /// Pumps one direction of a stage; returns bytes moved (0 on EAGAIN).
  /// Throws BspTransportError on EOF, socket error, or a corrupt incoming
  /// stage. Both pumps consult the fault injector (when installed) before
  /// every syscall and act out its decision: simulated EINTR/EAGAIN,
  /// truncated transfers, endpoint shutdown, delays, and aborts.
  std::size_t pump_send(WorkerState& st, StageState& ss);
  std::size_t pump_recv(WorkerState& st, StageState& ss);
  /// Bytes still missing from the section ss is receiving.
  [[nodiscard]] std::size_t section_left(const StageState& ss) const;
  /// Copies up to n bytes from src into the section ss is receiving;
  /// returns how many it took (at most section_left(ss)).
  std::size_t fill_section(StageState& ss, const std::byte* src,
                           std::size_t n);
  /// Accounts `got` bytes that just landed in the section ss is receiving
  /// and advances its phase, validating each completed control section.
  void advance_section(WorkerState& st, StageState& ss, int src,
                       std::size_t got);
  /// Validates the fully received header block, appends its frames to the
  /// inbox arena and builds recv_iov_; advances ss to Payload (or Done).
  void parse_header_block(WorkerState& st, StageState& ss, int src);
  /// The stage an idle wait is blocked on — the one being received, else
  /// the first unfinished send — and the peer it waits for.
  [[nodiscard]] const StageState& blocking_stage(int* peer) const;
  /// Consults the injector before a syscall at `site`. Returns the decision
  /// the pump loop must act on (nullopt = proceed normally); applies
  /// DelayUs/PeerHangup side effects itself and throws on Abort.
  std::optional<FaultInjector::Decision> syscall_fault(WorkerState& st,
                                                       const StageState& ss,
                                                       FaultSite site, int fd,
                                                       int peer,
                                                       std::uint64_t moved);
  /// Applies a pending CorruptByte decision to `n` freshly received control
  /// bytes at `buf` (XOR 0xA5 at the rule's offset mod n), before the
  /// validation path reads them.
  void maybe_corrupt(WorkerState& st, const StageState& ss, int src,
                     std::byte* buf, std::size_t n);
  /// Shm idle path: one non-consuming, non-blocking peek of the control
  /// stream with `peer`. EOF means the peer died (or was kill_endpoints'd);
  /// throws the same peer-death BspTransportError the socket pumps raise.
  void check_peer_alive(WorkerState& st, const StageState& ss, int peer);
  /// Attempts a zero-copy slab reservation of `n` bytes toward `dest`;
  /// returns nullptr (inline fallback) when the pair has no slab, the epoch
  /// half is not yet recycled or is full, or `n` exceeds half the slab.
  std::byte* try_reserve_zc(WorkerState& st, int dest, std::size_t n);
  [[nodiscard]] FaultInjector* injector() const {
    return fault_ != nullptr ? *fault_ : nullptr;
  }

  const Config* cfg_;
  Mesh* mesh_;
  const std::atomic<bool>* abort_;
  FaultInjector* const* fault_;
  SlabPool* pool_ = nullptr;

  int pid_ = 0;
  int nprocs_ = 0;
  std::vector<MessageArena> outbox_;  // per-destination staging
  MessageArena inbox_arena_;          // received frames; views live here
  // stages_[k - 1]: stage k. Sized at attach and never resized during a
  // run — each stage's send_iov points at its own send_pre.
  std::vector<StageState> stages_;
  std::vector<RecvBuffer> rbuf_;  // per source peer; fd meshes only
  // Receive scratch of the one stage being received (capacity persists
  // across stages and runs).
  std::vector<std::byte> hdr_in_;  // incoming header block
  std::vector<iovec> recv_iov_;    // inbox-arena payload slots to fill
  std::vector<pollfd> poll_fds_;   // idle-wait poll set, reused
  // Window state: sends not yet fully on the wire, and the stage whose
  // receive is in progress (nprocs_ once every receive is done).
  bool window_active_ = false;
  int sends_left_ = 0;
  int recv_k_ = 0;

  // --- Shm fast path (cached at attach; empty/false on fd meshes).
  std::vector<ShmPairView*> shm_pairs_;  // per peer; nullptr on the diagonal
  bool is_shm_ = false;
  // Boundaries opened since attach — the zero-copy epoch. MONOTONIC across
  // clean-run reuse (reset only at attach, which follows a fresh mesh build
  // with freshly zeroed segment counters): run N+1's first epoch must not
  // alias the slab half behind run N's final, still-live inbox views.
  std::uint64_t boundary_count_ = 0;
  // Per-destination bump allocator over the current epoch's slab half.
  struct ZcAlloc {
    std::uint64_t epoch = ~std::uint64_t{0};  // sentinel: no epoch entered
    std::size_t off = 0;
  };
  std::vector<ZcAlloc> zc_alloc_;
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
