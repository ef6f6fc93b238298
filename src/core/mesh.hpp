// Mesh/bootstrap layer of the socket-family transports.
//
// A Mesh owns the endpoints of the paper's Appendix B.3 interconnect — one
// full-duplex stream per (pid, peer) pair — and everything about their
// lifecycle: build and teardown and the wire-dirty rebuild contract. It
// hands out one Channel (core/channel.hpp) per pair and knows nothing about
// the exchange protocol; the exchange engine (core/exchange_engine.hpp)
// runs the protocol over those channels without knowing the medium. This is
// the seam that lets the same v2 sectioned wire format run over in-process
// AF_UNIX socketpairs and over AF_INET/TCP or shared memory between
// separate OS processes.
//
// Three implementations, one per mesh delivery (MeshTransport picks one):
//
//   * SocketpairMesh (Socket) — the in-process mesh: all p ranks live in
//     this process as threads, and each (i, j) pair is an AF_UNIX
//     SOCK_STREAM socketpair ("loopback TCP" without the port bookkeeping;
//     same syscalls, same partial-I/O behaviour).
//
//   * TcpMesh (Tcp) and ShmMesh (Shm) — the cross-process meshes: this
//     process is exactly one rank of a p-process run (launched by
//     tools/bsp_launch). Both bootstrap through the one RendezvousMesh
//     listen/dial/accept sweep with a versioned RankHello; they differ only
//     in the listener address (AF_INET host:port+r vs an abstract AF_UNIX
//     name), the shm segment handoff after the hello, and the channel each
//     endpoint becomes (an FdChannel over the TCP stream, a RingChannel
//     over the pair segment).
//
// Dirty-wire contract (shared with the transports): a mesh starts dirty, so
// the first build() happens on the first reset_run(). A worker that unwinds
// mid-stage calls mark_dirty() (possible half-written stage bytes in kernel
// buffers or, across processes, a desynchronised peer), and the next
// reset_run() rebuilds from scratch. Clean runs reuse the mesh as-is —
// builds() stays flat, which the reuse tests assert. Channels live exactly as
// long as the build that made them.
#pragma once

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/channel.hpp"
#include "core/config.hpp"

namespace gbsp {
namespace detail {

/// True when connected stream `fd` is its own peer: a loopback TCP dial
/// whose ephemeral source port equals the destination port completes by
/// simultaneous open onto itself when nobody listens there.
[[nodiscard]] bool self_connected(int fd);

/// Abstract endpoint mesh: endpoint and channel lifecycle for one run
/// topology. Not thread-safe except where noted (mark_dirty may be called
/// from concurrently failing workers; everything else is single-threaded
/// between runs or per-pid during a run).
class Mesh {
 public:
  explicit Mesh(const Config& cfg) : cfg_(cfg) {}
  virtual ~Mesh() = default;

  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  [[nodiscard]] virtual const char* name() const = 0;

  /// (Re)builds every endpoint this process owns for a p-rank run:
  /// tears down the previous mesh, runs the implementation's bootstrap, and
  /// on success clears the dirty flag and bumps builds(). On failure the
  /// partial mesh is torn down and the mesh stays dirty — reusable: a later
  /// build() starts from scratch.
  void build(int nprocs);

  /// Closes every fd this mesh owns. Idempotent.
  virtual void teardown() = 0;

  /// The local end of pid's full-duplex stream with peer, or -1 for self
  /// (stage 0 is self-delivery and never touches the wire). For the
  /// cross-process meshes, pid must be the local rank.
  [[nodiscard]] int fd(int pid, int peer) const {
    const Channel* c = channel(pid, peer);
    return c != nullptr ? c->fd() : -1;
  }

  /// pid's channel with peer, valid until the next build() or teardown;
  /// nullptr for self and for ranks this process does not host.
  [[nodiscard]] Channel* channel(int pid, int peer) const {
    return channels_[slot(pid, peer)].get();
  }

  /// Fault hook: hard-shutdown (not close) of every endpoint `pid` owns, as
  /// if its process died mid-superstep. Peers observe EOF on their next
  /// read. Marks the wire dirty.
  void kill_endpoints(int pid);

  /// Marks the wire unusable for reuse; the next build() rebuilds. Safe to
  /// call from concurrently failing workers.
  void mark_dirty() { dirty_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool dirty() const {
    return dirty_.load(std::memory_order_relaxed);
  }

  /// How many times this mesh has been (re)built. Clean-run reuse keeps the
  /// count flat.
  [[nodiscard]] std::uint64_t builds() const { return builds_; }

  [[nodiscard]] int nprocs() const { return nprocs_; }

 protected:
  /// Implementation bootstrap: create (and across processes, rendezvous +
  /// handshake) every endpoint and its channel. Throws BspTransportError on
  /// failure; build() handles teardown and bookkeeping.
  virtual void do_build(int nprocs) = 0;

  [[nodiscard]] std::size_t slot(int pid, int peer) const {
    return static_cast<std::size_t>(pid) * static_cast<std::size_t>(nprocs_) +
           static_cast<std::size_t>(peer);
  }

  const Config cfg_;
  int nprocs_ = 0;
  // channels_[slot(pid, peer)], filled by do_build; null on the diagonal
  // and for ranks hosted elsewhere.
  std::vector<std::unique_ptr<Channel>> channels_;

 private:
  std::atomic<bool> dirty_{true};
  std::uint64_t builds_ = 0;
};

/// In-process mesh: one AF_UNIX SOCK_STREAM socketpair per (i, j) pair,
/// i < j, owned end-to-end by this process. fd(i, j) is i's end.
class SocketpairMesh final : public Mesh {
 public:
  explicit SocketpairMesh(const Config& cfg) : Mesh(cfg) {}
  ~SocketpairMesh() override { SocketpairMesh::teardown(); }

  [[nodiscard]] const char* name() const override { return "socketpair"; }
  void teardown() override;

 protected:
  void do_build(int nprocs) override;

 private:
  // fd_[i * nprocs + j]: rank i's end of the pair with j; -1 on the
  // diagonal.
  std::vector<int> fd_;
};

/// On-wire rank handshake exchanged (both directions) on every freshly
/// connected link of a cross-process mesh, before it carries stage traffic.
/// The magic doubles as a byte-order sentinel: a peer of different
/// endianness (or a stray client that is not a gbsp rank) fails the magic
/// check with a descriptive error instead of desynchronising the stage
/// protocol.
struct RankHello {
  static constexpr std::uint64_t kMagic = 0x4853454D50534247ULL;  // "GBSPMESH"
  static constexpr std::uint32_t kVersion = 1;

  std::uint64_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint32_t rank = 0;
  std::uint32_t nprocs = 0;
  std::uint32_t reserved = 0;  // transmitted zero, validated on receipt
};
static_assert(sizeof(RankHello) == 24, "rank handshake layout drifted");

/// Cross-process mesh: this process is rank Config::rank of an nprocs
/// process run, holding one stream per peer. Both process meshes share this
/// one rendezvous, run with Config::tcp_connect_timeout_ms as its deadline:
///
///   1. listen on this rank's address (before any dial, so every listener
///      exists — or shortly will; dialers retry — before anyone accepts);
///   2. dial every lower rank, retrying refused connects and handshakes the
///      peer closes (it may be tearing down a previous incarnation), and
///      exchange + validate a RankHello — the dialing side speaks first;
///   3. accept every higher rank, whose hello names it;
///   4. close the listener, so nothing dials in mid-run.
///
/// A subclass supplies only what differs: the listener address, the step
/// after a validated hello on each side (on_dialed / on_accepted), and the
/// channel each endpoint becomes once the rendezvous completes.
class RendezvousMesh : public Mesh {
 public:
  explicit RendezvousMesh(const Config& cfg) : Mesh(cfg) {}
  ~RendezvousMesh() override { RendezvousMesh::teardown(); }

  void teardown() override;

 protected:
  void do_build(int nprocs) override;

  /// Writes `rank`'s listener address into *sa (zeroed by the caller) and
  /// returns its length.
  virtual socklen_t address(int rank, sockaddr_storage* sa) const = 0;
  /// `rank`'s listener as error messages name it.
  [[nodiscard]] virtual std::string where(int rank) const = 0;
  /// The likely reason binding this rank's own address failed.
  [[nodiscard]] virtual std::string bind_hint() const = 0;
  /// Runs on a link right after its hello validated: `fd` is still blocking
  /// with the bootstrap deadline as its I/O timeout.
  virtual void on_dialed(int /*fd*/, int /*peer*/) {}
  virtual void on_accepted(int /*fd*/, int /*peer*/) {}
  /// Makes the channel of every endpoint once the rendezvous completed and
  /// the bootstrap I/O timeout is cleared.
  virtual std::unique_ptr<Channel> make_channel(int fd, int peer) = 0;

 private:
  /// Dials `peer`'s listener until the deadline and returns the validated
  /// link.
  int dial(int peer, std::chrono::steady_clock::time_point deadline);
  /// Blocking-with-deadline exact write/read of a RankHello (the only
  /// blocking I/O in the system; stage traffic is non-blocking). `peer` is
  /// -1 when the sender's rank is not yet known.
  void send_hello(int fd, int peer) const;
  [[nodiscard]] RankHello recv_hello(int fd, int peer) const;
  /// Validates a received hello; `expect_rank` is -1 on the accept side
  /// (any not-yet-connected higher rank is admissible).
  void check_hello(const RankHello& h, int expect_rank) const;

  // fd_[j]: the local rank's stream with rank j; -1 for self and unbuilt.
  std::vector<int> fd_;
  int listen_fd_ = -1;
};

/// TCP mesh: every rank listens on tcp_port + rank (numeric IPv4
/// Config::tcp_host, SO_REUSEADDR), so each pair (i, j) with i < j is one
/// TCP connection the higher rank dials. Every endpoint gets TCP_NODELAY,
/// so the exchange's small control sections are not Nagle-delayed.
class TcpMesh final : public RendezvousMesh {
 public:
  explicit TcpMesh(const Config& cfg) : RendezvousMesh(cfg) {}

  [[nodiscard]] const char* name() const override { return "tcp"; }

 protected:
  socklen_t address(int rank, sockaddr_storage* sa) const override;
  [[nodiscard]] std::string where(int rank) const override;
  [[nodiscard]] std::string bind_hint() const override {
    return "port already in use?";
  }
  std::unique_ptr<Channel> make_channel(int fd, int peer) override;
};

/// Header page of one shm pair segment, written by the creating (lower)
/// rank and validated by the mapping (higher) rank — the shm analogue of the
/// RankHello's bidirectional checks, but for the geometry both ends must
/// agree on byte-for-byte.
struct ShmSegmentHdr {
  static constexpr std::uint64_t kMagic = 0x47454D5350534247ULL;  // "GBSPSMEG"
  static constexpr std::uint32_t kVersion = 1;

  std::uint64_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint32_t nprocs = 0;
  std::uint32_t rank_lo = 0;
  std::uint32_t rank_hi = 0;
  std::uint64_t ring_bytes = 0;
  std::uint64_t slab_bytes = 0;
};
static_assert(sizeof(ShmSegmentHdr) == 40, "shm segment header drifted");

/// Shared-memory mesh: the same rendezvous over abstract AF_UNIX sockets
/// ("\0gbsp-shm.<shm_name>.<rank>") on ONE host. After the hello the lower
/// rank of each pair creates the pair's memfd segment (header + two
/// direction blocks of ring/slab, see core/shm_ring.hpp) and passes the fd
/// over the stream with SCM_RIGHTS; the higher rank maps and validates it.
/// Both ends keep the AF_UNIX stream open as a control channel: it carries
/// no data, but EOF on it is how a peer's death (or an injected PeerHangup)
/// is observed without putting a single syscall on the data path, and
/// kill_endpoints() shuts it down. fd(pid, peer) returns that control fd;
/// channel(pid, peer) is a RingChannel over the pair's segment.
class ShmMesh final : public RendezvousMesh {
 public:
  explicit ShmMesh(const Config& cfg) : RendezvousMesh(cfg) {}
  ~ShmMesh() override { ShmMesh::teardown(); }

  [[nodiscard]] const char* name() const override { return "shm"; }
  void teardown() override;

 protected:
  void do_build(int nprocs) override;
  socklen_t address(int rank, sockaddr_storage* sa) const override;
  [[nodiscard]] std::string where(int rank) const override;
  [[nodiscard]] std::string bind_hint() const override;
  /// Receives, maps and validates the pair segment the lower rank passes.
  void on_dialed(int fd, int peer) override;
  /// Creates the pair segment and passes its fd to the dialing rank.
  void on_accepted(int fd, int peer) override;
  std::unique_ptr<Channel> make_channel(int fd, int peer) override;

 private:
  struct Mapping {
    void* base = nullptr;
    std::size_t len = 0;
  };

  /// Creates, sizes and maps the pair segment with `peer` (lower-rank side),
  /// initialises its header and control blocks, and returns the memfd (the
  /// caller passes it to the peer and closes it).
  int create_segment(int peer);
  /// Maps a received segment fd (higher-rank side) and validates its header
  /// against this rank's expectations of the pair geometry.
  void adopt_segment(int seg_fd, int peer);
  /// Slices a mapped segment into the two ShmDirViews of `peer`'s pair.
  void wire_views(void* base, int peer);

  std::vector<ShmPairView> pairs_;  // indexed by peer rank
  std::vector<Mapping> maps_;       // indexed by peer rank
};

}  // namespace detail
}  // namespace gbsp
