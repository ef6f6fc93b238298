#include "core/channel.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <thread>

#include "core/barrier.hpp"    // BspAborted
#include "core/transport.hpp"  // BspTransportError

namespace gbsp {
namespace detail {

namespace {

/// Largest kernel buffer the adaptive sizing will ever request. Beyond a few
/// MiB the transfer is syscall-bound anyway and the pumps stream through the
/// buffer; unbounded requests would just pin memory per endpoint.
constexpr std::size_t kMaxKernelBufBytes = std::size_t{1} << 22;

std::size_t iov_max() {
  static const std::size_t v = [] {
    const long m = ::sysconf(_SC_IOV_MAX);
    return m > 0 ? static_cast<std::size_t>(m) : std::size_t{16};
  }();
  return v;
}

std::size_t kernel_buf_bytes(int fd, int opt) {
  int v = 0;
  socklen_t len = sizeof(v);
  if (::getsockopt(fd, SOL_SOCKET, opt, &v, &len) != 0 || v < 0) return 0;
  return static_cast<std::size_t>(v);
}

void request_kernel_buf(int fd, int opt, std::size_t bytes) {
  const int v = static_cast<int>(std::min(
      bytes, static_cast<std::size_t>(std::numeric_limits<int>::max())));
  // Best effort: the kernel clamps to its rmem/wmem limits, and the
  // partial-I/O pumps are correct at any buffer size.
  (void)::setsockopt(fd, SOL_SOCKET, opt, &v, sizeof(v));
}

/// Copies n bytes from src across the list's entries, in order. The caller
/// guarantees the list holds at least n bytes.
void scatter(const iovec* iov, std::size_t cnt, const std::byte* src,
             std::size_t n) {
  for (std::size_t i = 0; n != 0 && i < cnt; ++i) {
    const std::size_t c = std::min(n, iov[i].iov_len);
    std::memcpy(iov[i].iov_base, src, c);
    src += c;
    n -= c;
  }
}

/// Rejects a cursor pair claiming more unread bytes than the ring holds —
/// only a forged or corrupt peer cursor gets there, and trusting it would
/// underflow the producer's free space or hand the consumer stale bytes.
void check_cursors(const char* dir, std::uint64_t tail, std::uint64_t head,
                   std::size_t cap, const IoSite& at) {
  if (tail - head <= cap) return;
  at.fail(std::string("shm ") + dir + " ring cursors out of range: tail " +
              std::to_string(tail) + ", head " + std::to_string(head) +
              " for a " + std::to_string(cap) +
              "-byte ring (stream corruption?)",
          /*err=*/0);
}

[[noreturn]] void bad_descriptor(const ShmZcDesc& desc, std::size_t slab_cap,
                                 const IoSite& at) {
  at.fail("zero-copy descriptor out of bounds: offset " +
              std::to_string(desc.offset) + ", len " +
              std::to_string(desc.len) + " against a " +
              std::to_string(slab_cap) + "-byte slab (stream corruption?)",
          /*err=*/0);
}

}  // namespace

void IoSite::fail(const std::string& what, int err) const {
  throw BspTransportError(what, rank, peer, superstep, stage, err, moved);
}

ByteView Channel::resolve_zc(const ShmZcDesc& desc, const IoSite& at) {
  bad_descriptor(desc, 0, at);  // no slab: accepts_zc() kept it off the wire
}

// ---------------------------------------------------------------- FdChannel

FdChannel::FdChannel(const Config& cfg, int fd)
    : Channel(fd),
      cfg_(cfg),
      buf_(std::make_unique_for_overwrite<std::byte[]>(kRecvBufferBytes)) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw BspTransportError("fcntl(O_NONBLOCK) failed", /*rank=*/-1,
                            /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1,
                            errno, /*bytes_moved=*/0);
  }
  if (cfg.socket_buffer_bytes != 0) {
    // Pinned mode: one explicit request per endpoint, no adaptive growth.
    request_kernel_buf(fd, SO_SNDBUF, cfg.socket_buffer_bytes);
    request_kernel_buf(fd, SO_RCVBUF, cfg.socket_buffer_bytes);
  } else {
    // Stages that fit what the kernel granted never touch setsockopt.
    snd_mark_ = kernel_buf_bytes(fd, SO_SNDBUF);
    rcv_mark_ = kernel_buf_bytes(fd, SO_RCVBUF);
  }
}

std::size_t FdChannel::write(const iovec* iov, std::size_t cnt,
                             std::size_t clamp, const IoSite& at) {
  iovec clamped{};
  msghdr mh{};
  if (clamp != 0) {
    // Truncated transfer: offer the kernel a prefix of the first entry,
    // exercising the partial-I/O resume path.
    clamped = iov[0];
    clamped.iov_len = std::min(clamped.iov_len, clamp);
    mh.msg_iov = &clamped;
    mh.msg_iovlen = 1;
  } else {
    mh.msg_iov = const_cast<iovec*>(iov);
    mh.msg_iovlen =
        static_cast<decltype(mh.msg_iovlen)>(std::min(cnt, iov_max()));
  }
  for (;;) {
    const ssize_t n = ::sendmsg(fd_, &mh, MSG_NOSIGNAL);
    if (n > 0) {
      // Counts only calls that moved bytes: idle EAGAIN probes are a
      // property of the waiting policy, not of the wire format's syscall
      // economy, and would make the metric timing-dependent.
      ++*at.syscalls;
      return static_cast<std::size_t>(n);
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return 0;
    at.fail("stage send failed (peer dead?)", errno);
  }
}

std::size_t FdChannel::read(const iovec* sec, std::size_t cnt,
                            std::size_t left, std::size_t clamp,
                            const IoSite& at) {
  if (beg_ == end_) {
    // A remainder at least the buffer's size is read straight into its
    // destination (no extra copy for big stages); anything smaller goes
    // through the buffer, so one recv takes the rest of the stage and
    // whatever follows it.
    const bool direct = left >= kRecvBufferBytes;
    ssize_t n;
    for (;;) {
      if (!direct) {
        n = ::recv(fd_, buf_.get(),
                   clamp != 0 ? std::min(kRecvBufferBytes, clamp)
                              : kRecvBufferBytes,
                   0);
      } else if (clamp != 0) {
        iovec one = sec[0];
        one.iov_len = std::min(one.iov_len, clamp);
        n = ::readv(fd_, &one, 1);
      } else {
        n = ::readv(fd_, sec, static_cast<int>(std::min(cnt, iov_max())));
      }
      if (n > 0) break;
      if (n == 0) {
        at.fail("peer closed its endpoint mid-stage (peer death)", 0);
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
      at.fail("stage recv failed", errno);
    }
    ++*at.syscalls;  // like the send side: only calls that moved bytes
    if (direct) return static_cast<std::size_t>(n);
    beg_ = 0;
    end_ = static_cast<std::size_t>(n);
  }
  // Bytes an earlier recv already pulled in: consume them, no syscall.
  const std::size_t n = std::min(end_ - beg_, left);
  scatter(sec, cnt, buf_.get() + beg_, n);
  beg_ += n;
  if (beg_ == end_) beg_ = end_ = 0;
  return n;
}

void FdChannel::expect_stage(bool send_side, std::size_t bytes) {
  if (cfg_.socket_buffer_bytes != 0) return;  // pinned at construction
  const std::size_t want = std::min(bytes, kMaxKernelBufBytes);
  std::size_t& mark = send_side ? snd_mark_ : rcv_mark_;
  if (want <= mark) return;
  mark = want;
  request_kernel_buf(fd_, send_side ? SO_SNDBUF : SO_RCVBUF, want);
}

WaitPolicy FdChannel::wait_policy() const {
  // A peer in the same boundary is typically microseconds away, so spin
  // (yielding the core for oversubscribed hosts) before paying a poll,
  // which then wakes the moment the socket is ready.
  return {cfg_.socket_spin_us, cfg_.socket_backoff_initial_ms * 1000,
          cfg_.socket_backoff_max_ms * 1000};
}

void FdChannel::hang_up(const IoSite& /*at*/) {
  // Shut down our end of the stream: the peer observes EOF and we observe
  // EPIPE/EOF on the next real call — a bidirectional death.
  ::shutdown(fd_, SHUT_RDWR);
}

// -------------------------------------------------------------- RingChannel

RingChannel::RingChannel(const Config& cfg, const ShmPairView& pair,
                         int ctl_fd)
    : Channel(ctl_fd),
      cfg_(cfg),
      pair_(pair),
      head_(pair.recv.ctl->head.load(std::memory_order_relaxed)),
      readable_end_(head_) {
  if (pair.send.slab_cap != 0) zc_min_bytes_ = cfg.shm_inline_threshold;
}

std::size_t RingChannel::write(const iovec* iov, std::size_t cnt,
                               std::size_t clamp, const IoSite& at) {
  ShmDirView& d = pair_.send;
  const std::uint64_t tail = d.ctl->tail.load(std::memory_order_relaxed);
  const std::uint64_t head = d.ctl->head.load(std::memory_order_acquire);
  check_cursors("send", tail, head, d.ring_cap, at);
  std::size_t space = d.ring_cap - static_cast<std::size_t>(tail - head);
  if (clamp != 0) {
    cnt = 1;
    space = std::min(space, clamp);
  }
  // A full ring is the EAGAIN analogue. No syscall happens, so
  // wire_syscalls stays untouched — that IS the headline metric.
  if (space == 0) return 0;
  std::size_t written = 0;
  std::uint64_t cursor = tail;
  for (std::size_t e = 0; e < cnt && written < space; ++e) {
    const std::byte* src = static_cast<const std::byte*>(iov[e].iov_base);
    const std::size_t n = std::min(iov[e].iov_len, space - written);
    // Up to two memcpys per entry: the run to the ring's end, then the wrap.
    for (std::size_t off = 0; off < n;) {
      const std::size_t pos = static_cast<std::size_t>(cursor % d.ring_cap);
      const std::size_t chunk = std::min(d.ring_cap - pos, n - off);
      std::memcpy(d.ring + pos, src + off, chunk);
      off += chunk;
      cursor += chunk;
    }
    written += n;
  }
  d.ctl->tail.store(tail + written, std::memory_order_release);
  return written;
}

std::size_t RingChannel::read(const iovec* sec, std::size_t cnt,
                              std::size_t left, std::size_t clamp,
                              const IoSite& at) {
  ShmDirView& d = pair_.recv;
  if (readable_end_ == head_) {
    // Refill: take what the producer published since, validating the
    // cursors before trusting a byte of it. An empty ring is the EAGAIN
    // analogue (peer death surfaces on the idle wait, not here).
    const std::uint64_t tail = d.ctl->tail.load(std::memory_order_acquire);
    check_cursors("receive", tail, head_, d.ring_cap, at);
    std::uint64_t avail = tail - head_;
    if (clamp != 0) avail = std::min<std::uint64_t>(avail, clamp);
    if (avail == 0) return 0;
    readable_end_ = head_ + avail;
  }
  // The ring is the receive buffer: copy one contiguous readable run (up to
  // the ring's end; a wrapped run continues on the next read) into the
  // section, never past it.
  const std::size_t pos = static_cast<std::size_t>(head_ % d.ring_cap);
  const std::size_t n =
      std::min({static_cast<std::size_t>(readable_end_ - head_),
                d.ring_cap - pos, left});
  scatter(sec, cnt, d.ring + pos, n);
  head_ += n;
  d.ctl->head.store(head_, std::memory_order_release);
  return n;
}

WaitPolicy RingChannel::wait_policy() const {
  // A yield round-robins the ranks sharing the host's cores (a cheap
  // handoff to a peer that may be about to write this ring), where a nap
  // against memory is blind — the full nap is paid even if the ring fills
  // at once. So the spin budget is stretched and the naps start at
  // microseconds: millisecond naps would dominate every boundary on an
  // oversubscribed host, where a peer is one scheduler quantum away.
  constexpr std::size_t kNapInitialUs = 50;
  return {cfg_.socket_spin_us * 64, kNapInitialUs,
          cfg_.socket_backoff_max_ms * 1000};
}

void RingChannel::check_peer(bool send_side, const IoSite& at) {
  // A peer that finished its run and exited wrote its last stage into the
  // ring before its control stream closed: a receive takes those bytes
  // first, and only an EOF with the ring drained is a death.
  if (!send_side &&
      pair_.recv.ctl->tail.load(std::memory_order_acquire) != head_) {
    return;
  }
  char b;
  const ssize_t r = ::recv(fd_, &b, 1, MSG_PEEK | MSG_DONTWAIT);
  if (r == 0) {
    // EOF on the bootstrap control stream: the peer process exited (or its
    // endpoints were killed) — the same condition a socket's pumps see as
    // a mid-stage close.
    at.fail("peer closed its endpoint mid-stage (peer death)", 0);
  }
  if (r > 0) {
    // Nothing is ever sent on the control stream after bootstrap.
    at.fail("unexpected bytes on the shm control channel (stream corruption?)",
            0);
  }
  if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    at.fail("shm control channel failed", errno);
  }
}

void RingChannel::hang_up(const IoSite& at) {
  ::shutdown(fd_, SHUT_RDWR);
  // The data path is memory, so a severed control channel is only noticed
  // by an idle wait — which a busy run may never reach. Fail here,
  // deterministically, like a socket's next I/O would.
  at.fail("injected peer hangup severed the shm control channel", 0);
}

std::byte* RingChannel::reserve_zc(std::size_t n, ShmZcDesc* desc) {
  const ShmDirView& d = pair_.send;
  const std::size_t half_cap = d.slab_cap / 2;
  // Every slab slot is 16-byte aligned (the arena's own out-of-line
  // guarantee) and whole within one epoch half.
  const std::size_t need = (n + 15) & ~std::size_t{15};
  if (need == 0 || need > half_cap) return nullptr;
  const std::uint64_t e = opened_;
  if (zc_epoch_ != e) {
    // Entering epoch e flips this pair onto slab half e&1, last written by
    // epoch e-2. Those payloads' inbox views died when the receiver opened
    // its e-th boundary; until the receiver reports that, fall back to the
    // inline ring copy rather than block — the guard is advisory, and the
    // peer may publish mid-superstep, unblocking a later reserve.
    if (e >= 2 &&
        d.ctl->boundaries_opened.load(std::memory_order_acquire) < e) {
      return nullptr;
    }
    zc_epoch_ = e;
    zc_off_ = 0;
  }
  if (zc_off_ + need > half_cap) return nullptr;  // epoch half full
  const std::size_t abs = static_cast<std::size_t>(e & 1) * half_cap + zc_off_;
  zc_off_ += need;
  desc->offset = abs;
  desc->len = n;
  return d.slab + abs;
}

ByteView RingChannel::resolve_zc(const ShmZcDesc& desc, const IoSite& at) {
  const ShmDirView& d = pair_.recv;
  // A descriptor is peer-controlled input; validate before aliasing the
  // mapping, exactly like the wire headers it rode in with.
  if (desc.len > cfg_.socket_max_frame_bytes || desc.offset > d.slab_cap ||
      desc.len > d.slab_cap - desc.offset) {
    bad_descriptor(desc, d.slab_cap, at);
  }
  return ByteView{d.slab + desc.offset, static_cast<std::size_t>(desc.len)};
}

void RingChannel::open_boundary() {
  // Opening boundary b invalidates the views delivered at boundary b-1;
  // publishing the count is what lets the peer recycle the slab half those
  // views aliased (the zero-copy epoch feedback channel).
  ++opened_;
  pair_.recv.ctl->boundaries_opened.store(opened_, std::memory_order_release);
}

// ----------------------------------------------------------------- IdleWait

bool IdleWait::timed_out() {
  if (abort_ != nullptr && abort_->load(std::memory_order_acquire)) {
    throw BspAborted{};
  }
  idle_ = Clock::now() - last_progress_;
  return idle_ > std::chrono::milliseconds(cfg_->socket_stage_timeout_ms);
}

void IdleWait::add(Channel& ch, bool send_side, const IoSite& at) {
  if (sites_.empty()) policy_ = ch.wait_policy();
  fds_.push_back(ch.wait_fd(send_side));
  sites_.push_back({&ch, send_side, at});
}

bool IdleWait::spin() {
  if (idle_ >= std::chrono::microseconds(policy_.spin_us)) return false;
  std::this_thread::yield();
  return true;
}

std::size_t IdleWait::next_nap() const {
  const std::size_t cur = nap_us_ != 0 ? nap_us_ : policy_.nap_initial_us;
  return std::min(cur * 2, policy_.nap_max_us);
}

bool IdleWait::nap() {
  const std::size_t us = nap_us_ != 0 ? nap_us_ : policy_.nap_initial_us;
  const timespec ts{static_cast<std::time_t>(us / 1'000'000),
                    static_cast<long>(us % 1'000'000) * 1000};
  const int r = ::ppoll(fds_.data(), static_cast<nfds_t>(fds_.size()), &ts,
                        nullptr);
  if (r < 0 && errno != EINTR) return false;
  nap_us_ = next_nap();
  for (std::size_t i = 0; r > 0 && i < fds_.size(); ++i) {
    const Pending& w = sites_[i];
    if (fds_[i].revents != 0) w.ch->check_peer(w.send_side, w.at);
  }
  return true;
}

}  // namespace detail
}  // namespace gbsp
