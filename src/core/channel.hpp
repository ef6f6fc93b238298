// Channels: one rank's byte stream with one peer, whatever medium carries it.
//
// A Mesh (core/mesh.hpp) hands out one Channel per (pid, peer) pair; the
// exchange engine (core/exchange_engine.hpp) runs the whole wire protocol
// over that interface and never learns which medium sits underneath. Two
// implementations:
//
//   * FdChannel — a non-blocking stream socket (AF_UNIX socketpair, TCP).
//     write() is one sendmsg gather-write. read() goes through a fixed
//     16 KiB buffer (kRecvBufferBytes): one recv takes whatever the kernel
//     holds for the peer, so a small stage costs one syscall, and bytes past
//     the section being read (the rest of the stage, or the peer's next
//     stage sent early because it ran ahead) stay buffered for later reads.
//     A section remainder at least the buffer's size is readv'd straight
//     into its destination instead, so big stages pay no extra copy. The
//     channel also grows the kernel's SO_SNDBUF/SO_RCVBUF toward each
//     announced stage size. Idle waits poll the socket.
//   * RingChannel — a pair of SPSC byte rings in a shared-memory segment
//     (core/shm_ring.hpp). write() copies into the send ring; the receive
//     ring itself is the buffer read() consumes, one contiguous readable
//     run at a time. No data-path operation enters the kernel. The ring
//     channel also owns the pair's zero-copy slab: reservation, descriptor
//     resolution and the boundary-epoch publication. The ring cannot be
//     polled, so an idle wait naps in a ppoll over the pair's bootstrap
//     control stream, which is how a dead peer is noticed.
//
// Both sides validate what the peer controls: a ring cursor pair that
// claims more than the ring holds, or a zero-copy descriptor outside the
// slab, is a BspTransportError, never a wild copy.
#pragma once

#include <poll.h>     // pollfd
#include <sys/uio.h>  // iovec

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/message.hpp"
#include "core/shm_ring.hpp"

namespace gbsp {
namespace detail {

/// The caller's side of one channel operation: what a BspTransportError
/// raised inside it reports, and the worker's data-path syscall counter
/// (RunStats wire_syscalls) it charges.
struct IoSite {
  int rank = -1;
  int peer = -1;
  std::int64_t superstep = -1;
  int stage = -1;
  std::uint64_t moved = 0;            // bytes this stage moved so far
  std::uint64_t* syscalls = nullptr;  // +1 per syscall that moved bytes

  [[noreturn]] void fail(const std::string& what, int err) const;
};

/// How a medium is waited on once an exchange round moved nothing: yield
/// for spin_us, then nap in a ppoll over the pending channels' wait fds,
/// starting at nap_initial_us and doubling up to nap_max_us.
struct WaitPolicy {
  std::size_t spin_us = 0;
  std::size_t nap_initial_us = 0;
  std::size_t nap_max_us = 0;
};

/// One rank's full-duplex byte stream with one peer. Every transfer is
/// non-blocking: 0 bytes moved means "would block" (a full kernel buffer or
/// ring, or nothing to read yet). `clamp` is 0 or the injected ShortIo
/// limit: at most that many bytes, taken from the first entry only.
class Channel {
 public:
  explicit Channel(int fd) : fd_(fd) {}
  virtual ~Channel() = default;

  /// The stream's socket (for a ring, its control stream). The mesh owns
  /// and closes it.
  [[nodiscard]] int fd() const { return fd_; }

  /// Gather-writes from the list; returns bytes moved.
  virtual std::size_t write(const iovec* iov, std::size_t cnt,
                            std::size_t clamp, const IoSite& at) = 0;
  /// True when read() can move bytes without touching the medium.
  [[nodiscard]] virtual bool has_buffered() const = 0;
  /// Scatter-reads into the list, a section remainder of `left` bytes in
  /// total; never reads past it. Returns bytes moved. EOF is peer death.
  virtual std::size_t read(const iovec* sec, std::size_t cnt,
                           std::size_t left, std::size_t clamp,
                           const IoSite& at) = 0;
  /// A stage of `bytes` is about to cross in one direction (send_side or
  /// not): grow any medium buffer toward it.
  virtual void expect_stage(bool /*send_side*/, std::size_t /*bytes*/) {}

  /// The fd and events an idle wait on this channel's send or receive
  /// polls.
  [[nodiscard]] virtual pollfd wait_fd(bool send_side) const = 0;
  [[nodiscard]] virtual WaitPolicy wait_policy() const = 0;
  /// Runs after an idle wait on this channel's send or receive woke on
  /// wait_fd(): throws when the wake means the peer is gone and no transfer
  /// would say so.
  virtual void check_peer(bool /*send_side*/, const IoSite& /*at*/) {}
  /// Injected PeerHangup: severs the stream as a dying peer would.
  virtual void hang_up(const IoSite& at) = 0;

  /// Zero-copy slab (rings only). Frames of at least zc_min_bytes() try
  /// reserve_zc(), which returns the slab slot and fills `desc`, or nullptr
  /// for the inline path.
  [[nodiscard]] std::size_t zc_min_bytes() const { return zc_min_bytes_; }
  virtual std::byte* reserve_zc(std::size_t /*n*/, ShmZcDesc* /*desc*/) {
    return nullptr;
  }
  /// Whether a frame header may flag a zero-copy descriptor (pad == 1).
  [[nodiscard]] virtual bool accepts_zc() const { return false; }
  /// Validates a received descriptor and returns the payload it names.
  virtual ByteView resolve_zc(const ShmZcDesc& desc, const IoSite& at);
  /// This rank opened a superstep boundary: the views it was handed at the
  /// previous one are dead (rings publish that for slab recycling).
  virtual void open_boundary() {}

 protected:
  const int fd_;
  std::size_t zc_min_bytes_ = std::numeric_limits<std::size_t>::max();
};

/// A stream socket.
class FdChannel final : public Channel {
 public:
  /// Size of the receive buffer: large enough that a small stage and any
  /// run-ahead bytes behind it arrive in one recv, small enough that the
  /// copy into inbox slots costs less than the syscalls it saves.
  static constexpr std::size_t kRecvBufferBytes = std::size_t{16} << 10;

  /// Makes `fd` non-blocking and applies Config::socket_buffer_bytes, or
  /// seeds the grow-only marks with what the kernel granted.
  FdChannel(const Config& cfg, int fd);

  std::size_t write(const iovec* iov, std::size_t cnt, std::size_t clamp,
                    const IoSite& at) override;
  [[nodiscard]] bool has_buffered() const override { return beg_ != end_; }
  std::size_t read(const iovec* sec, std::size_t cnt, std::size_t left,
                   std::size_t clamp, const IoSite& at) override;
  void expect_stage(bool send_side, std::size_t bytes) override;
  [[nodiscard]] pollfd wait_fd(bool send_side) const override {
    return {fd_, static_cast<short>(send_side ? POLLOUT : POLLIN), 0};
  }
  [[nodiscard]] WaitPolicy wait_policy() const override;
  void hang_up(const IoSite& at) override;

 private:
  const Config& cfg_;
  // Bytes [beg_, end_) of buf_ arrived but no read consumed them yet. Not
  // zeroed: only the bytes a recv writes are ever touched.
  std::unique_ptr<std::byte[]> buf_;
  std::size_t beg_ = 0;
  std::size_t end_ = 0;
  // Grow-only kernel buffer requests, so adaptive sizing costs at most
  // O(log stage bytes) setsockopt calls per direction.
  std::size_t snd_mark_ = 0;
  std::size_t rcv_mark_ = 0;
};

/// A pair of shared-memory rings plus the bootstrap control stream `ctl_fd`
/// (owned by the mesh), which carries nothing after bootstrap: EOF on it is
/// the peer's death.
class RingChannel final : public Channel {
 public:
  RingChannel(const Config& cfg, const ShmPairView& pair, int ctl_fd);

  std::size_t write(const iovec* iov, std::size_t cnt, std::size_t clamp,
                    const IoSite& at) override;
  [[nodiscard]] bool has_buffered() const override {
    return readable_end_ != head_;
  }
  std::size_t read(const iovec* sec, std::size_t cnt, std::size_t left,
                   std::size_t clamp, const IoSite& at) override;
  [[nodiscard]] pollfd wait_fd(bool /*send_side*/) const override {
    return {fd_, POLLIN, 0};
  }
  [[nodiscard]] WaitPolicy wait_policy() const override;
  void check_peer(bool send_side, const IoSite& at) override;
  void hang_up(const IoSite& at) override;

  std::byte* reserve_zc(std::size_t n, ShmZcDesc* desc) override;
  [[nodiscard]] bool accepts_zc() const override { return true; }
  ByteView resolve_zc(const ShmZcDesc& desc, const IoSite& at) override;
  void open_boundary() override;

  /// The pair's mapped views, for geometry checks.
  [[nodiscard]] const ShmPairView& pair() const { return pair_; }

 private:
  const Config& cfg_;
  ShmPairView pair_;
  // Consumer side: bytes ever consumed, and the end of the readable run
  // taken at the last refill (read() refills only once it is used up).
  std::uint64_t head_;
  std::uint64_t readable_end_;
  // Boundaries this rank opened since the segment was mapped: the
  // zero-copy epoch. It survives clean-run reuse with the mapping, so a new
  // run's first epoch never aliases the slab half behind the previous run's
  // final, still-live views.
  std::uint64_t opened_ = 0;
  // Bump allocator over the current epoch's slab half.
  std::uint64_t zc_epoch_ = ~std::uint64_t{0};  // sentinel: none entered
  std::size_t zc_off_ = 0;
};

/// The exchange's one idle wait, shared by an engine's blocking window and
/// the Serialized driver. After a round that moved nothing, the caller
/// collects the channels it is blocked on (clear(), add()), gives up once
/// timed_out(), yields while spin() says the budget lasts, then calls
/// nap(): one ppoll over the collected wait fds, bounded by the current
/// nap, which doubles each time. A round that moved bytes calls
/// progressed(). The wait follows the policy of the first channel
/// collected: a mesh's channels share one medium.
class IdleWait {
 public:
  using Clock = std::chrono::steady_clock;

  IdleWait(const Config& cfg, const std::atomic<bool>* abort_flag)
      : cfg_(&cfg), abort_(abort_flag) {}

  /// Restarts the idle clock and the nap backoff.
  void progressed() {
    last_progress_ = Clock::now();
    nap_us_ = 0;
  }
  /// Throws BspAborted once the runtime aborted; true once the wait has
  /// been idle past Config::socket_stage_timeout_ms.
  [[nodiscard]] bool timed_out();
  void clear() {
    fds_.clear();
    sites_.clear();
  }
  void add(Channel& ch, bool send_side, const IoSite& at);
  /// The first collected site: what the wait is blocked on.
  [[nodiscard]] const IoSite& blocked_on() const { return sites_.front().at; }
  /// Yields and returns true while the idle time is within the spin budget.
  bool spin();
  /// An injected poll fault (EINTR/EAGAIN): skip this nap, back off.
  void skip() { nap_us_ = next_nap(); }
  /// One ppoll over the collected fds, then check_peer() on every channel
  /// whose fd woke. False (errno set) when the poll itself failed.
  bool nap();

 private:
  std::size_t next_nap() const;

  const Config* cfg_;
  const std::atomic<bool>* abort_;
  Clock::time_point last_progress_ = Clock::now();
  Clock::duration idle_{};  // as of the last timed_out()
  WaitPolicy policy_;       // the first collected channel's
  std::size_t nap_us_ = 0;  // 0: no nap since the last progress
  std::vector<pollfd> fds_;
  struct Pending {
    Channel* ch;
    bool send_side;
    IoSite at;
  };
  std::vector<Pending> sites_;  // parallel to fds_
};

}  // namespace detail
}  // namespace gbsp
