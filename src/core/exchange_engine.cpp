#include "core/exchange_engine.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include "core/barrier.hpp"     // BspAborted
#include "core/transport.hpp"  // BspTransportError

namespace gbsp {
namespace detail {

namespace {

/// Upper bound on an incoming header block before we trust the preamble
/// enough to allocate for it: a claimed block above this is stream
/// corruption, not traffic (2^26 frames per stage).
constexpr std::uint64_t kMaxHeaderBlockBytes = std::uint64_t{1} << 30;

void append_bytes(std::vector<std::byte>& buf, const void* data,
                  std::size_t n) {
  const std::byte* p = static_cast<const std::byte*>(data);
  buf.insert(buf.end(), p, p + n);
}

std::size_t iov_max() {
  static const std::size_t v = [] {
    const long m = ::sysconf(_SC_IOV_MAX);
    return m > 0 ? static_cast<std::size_t>(m) : std::size_t{16};
  }();
  return v;
}

/// Consumes `n` bytes of a scatter-gather list in place: fully transferred
/// entries advance `idx`, a partially transferred entry has its base/len
/// moved past the sent prefix so the next syscall resumes mid-entry.
void advance_iov(std::vector<iovec>& iov, std::size_t& idx, std::size_t n) {
  while (n != 0) {
    iovec& e = iov[idx];
    if (n < e.iov_len) {
      e.iov_base = static_cast<std::byte*>(e.iov_base) + n;
      e.iov_len -= n;
      return;
    }
    n -= e.iov_len;
    ++idx;
  }
}

}  // namespace

void ExchangeEngine::attach(int pid, int nprocs) {
  pid_ = pid;
  nprocs_ = nprocs;
  outbox_.clear();
  outbox_.reserve(static_cast<std::size_t>(nprocs));
  for (int d = 0; d < nprocs; ++d) outbox_.emplace_back(pool_);
  inbox_arena_.release_slabs();
  stages_.assign(static_cast<std::size_t>(nprocs - 1), StageState{});
  window_active_ = false;
  shm_pairs_.assign(static_cast<std::size_t>(nprocs), nullptr);
  is_shm_ = false;
  for (int j = 0; j < nprocs; ++j) {
    if (j == pid) continue;
    shm_pairs_[static_cast<std::size_t>(j)] = mesh_->shm_pair(pid, j);
    if (shm_pairs_[static_cast<std::size_t>(j)] != nullptr) is_shm_ = true;
  }
  // A fresh mesh carries no bytes yet, so every buffer starts empty. The
  // buffers are not zeroed: only the pages a recv writes are ever touched.
  rbuf_.clear();
  rbuf_.resize(static_cast<std::size_t>(nprocs));
  if (!is_shm_) {
    for (int j = 0; j < nprocs; ++j) {
      if (j == pid) continue;
      rbuf_[static_cast<std::size_t>(j)].data =
          std::make_unique_for_overwrite<std::byte[]>(kRecvBufferBytes);
    }
  }
  // An attach follows a fresh mesh build, whose segments' counters start at
  // zero — the zero-copy epoch restarts with them.
  boundary_count_ = 0;
  zc_alloc_.assign(static_cast<std::size_t>(nprocs), ZcAlloc{});
  zc_out_.assign(static_cast<std::size_t>(nprocs), {});
  zc_in_.clear();
}

void ExchangeEngine::reset_for_reuse() {
  for (MessageArena& ob : outbox_) ob.release_slabs();
  inbox_arena_.release_slabs();
  // Defensive: a clean run always closes its windows, but a stale window
  // from a run that never reached its sync_end() would make the first
  // begin_window() of the new run look already open.
  window_active_ = false;
  // Staged-but-undelivered descriptor frames die with their outbox arenas.
  // boundary_count_ deliberately survives: the mesh and its segments persist
  // across clean-run reuse, and the new run's first zero-copy epoch must not
  // alias the slab half behind the previous run's final, still-live views.
  for (auto& v : zc_out_) v.clear();
  zc_in_.clear();
}

bool ExchangeEngine::has_buffered_bytes() const {
  for (const RecvBuffer& rb : rbuf_) {
    if (rb.beg != rb.end) return true;
  }
  return false;
}

bool ExchangeEngine::has_unflushed() const {
  for (const MessageArena& a : outbox_) {
    if (!a.empty()) return true;
  }
  return false;
}

std::byte* ExchangeEngine::reserve(WorkerState& st, int dest, std::size_t n) {
  if (n > cfg_->socket_max_frame_bytes) {
    // Reject at the send call, where the application can see a clean error,
    // rather than letting the peer's header validation kill the exchange.
    throw BspTransportError(
        "message of " + std::to_string(n) +
            " bytes exceeds socket_max_frame_bytes (" +
            std::to_string(cfg_->socket_max_frame_bytes) + ")",
        st.pid, dest, static_cast<std::int64_t>(st.superstep), /*stage=*/-1,
        /*err=*/0, /*bytes_moved=*/0);
  }
  const std::size_t d = static_cast<std::size_t>(dest);
  if (is_shm_ && dest != pid_ && cfg_->shm_slab_bytes != 0 &&
      n >= cfg_->shm_inline_threshold) {
    if (std::byte* slot = try_reserve_zc(st, dest, n)) return slot;
  }
  // Same bump-append staging as the deferred transport; the bytes hit the
  // wire at the boundary, in the rigid stage for this destination.
  return outbox_[d].append(static_cast<std::uint32_t>(st.pid),
                           st.seq_to[d]++, n);
}

std::byte* ExchangeEngine::try_reserve_zc(WorkerState& st, int dest,
                                          std::size_t n) {
  ShmPairView* pv = shm_pairs_[static_cast<std::size_t>(dest)];
  if (pv == nullptr) return nullptr;
  const std::size_t half_cap = pv->send.slab_cap / 2;
  // Every slab slot is 16-byte aligned (the arena's own out-of-line
  // guarantee) and whole within one epoch half.
  const std::size_t need = (n + 15) & ~std::size_t{15};
  if (need == 0 || need > half_cap) return nullptr;
  ZcAlloc& za = zc_alloc_[static_cast<std::size_t>(dest)];
  const std::uint64_t e = boundary_count_;
  if (za.epoch != e) {
    // Entering epoch e flips this pair onto slab half e&1, last written by
    // epoch e-2. Those payloads' inbox views died when the receiver opened
    // its e-th boundary; until the receiver reports that, fall back to the
    // inline ring copy rather than block — the guard is advisory, and the
    // peer may publish mid-superstep, unblocking a later reserve.
    if (e >= 2 &&
        pv->send.ctl->boundaries_opened.load(std::memory_order_acquire) < e) {
      return nullptr;
    }
    za.epoch = e;
    za.off = 0;
  }
  if (za.off + need > half_cap) return nullptr;  // epoch half full
  const std::size_t abs =
      static_cast<std::size_t>(e & 1) * half_cap + za.off;
  za.off += need;
  // What travels the ring is this 16-byte descriptor, flagged by pad == 1 in
  // its wire header (begin_stage); the payload bytes never move again.
  ShmZcDesc desc;
  desc.offset = abs;
  desc.len = n;
  const std::size_t d = static_cast<std::size_t>(dest);
  std::byte* dslot = outbox_[d].append(static_cast<std::uint32_t>(st.pid),
                                       st.seq_to[d]++, sizeof(desc));
  std::memcpy(dslot, &desc, sizeof(desc));
  zc_out_[d].push_back(outbox_[d].message_count() - 1);
  st.wire_zc_bytes += n;
  return pv->send.slab + abs;
}

void ExchangeEngine::open_boundary(WorkerState& dst) {
  dst.inbox.clear();
  dst.inbox_cursor = 0;
  inbox_arena_.release_slabs();  // last superstep's views are dead now
  if (is_shm_) {
    // Opening boundary b invalidates the views delivered at boundary b-1;
    // publishing the count is what lets each peer recycle the slab half
    // those views aliased (the zero-copy epoch feedback channel).
    ++boundary_count_;
    for (ShmPairView* pv : shm_pairs_) {
      if (pv != nullptr) {
        pv->recv.ctl->boundaries_opened.store(boundary_count_,
                                              std::memory_order_release);
      }
    }
    zc_in_.clear();  // defensive: an unwound publish must not leak fixups
  }
  // Stage 0 of the schedule: self-delivery moves whole slabs, no wire.
  inbox_arena_.splice_from(outbox_[static_cast<std::size_t>(dst.pid)]);
}

void ExchangeEngine::apply_zc_views(WorkerState& dst,
                                    std::uint64_t& recv_packets) {
  for (const ZcIn& z : zc_in_) {
    Message& m = dst.inbox[z.ordinal];
    ShmZcDesc desc;
    std::memcpy(&desc, m.payload.data(), sizeof(desc));
    ShmPairView* pv = shm_pairs_[static_cast<std::size_t>(z.src)];
    // A descriptor is peer-controlled input; validate before aliasing the
    // mapping, exactly like the wire headers it rode in with.
    if (pv == nullptr || desc.len > cfg_->socket_max_frame_bytes ||
        desc.offset > pv->recv.slab_cap ||
        desc.len > pv->recv.slab_cap - desc.offset) {
      throw BspTransportError(
          "zero-copy descriptor out of bounds: offset " +
              std::to_string(desc.offset) + ", len " +
              std::to_string(desc.len) + " against a " +
              std::to_string(pv != nullptr ? pv->recv.slab_cap : 0) +
              "-byte slab (stream corruption?)",
          dst.pid, z.src, static_cast<std::int64_t>(dst.superstep),
          /*stage=*/-1, /*err=*/0, /*bytes_moved=*/0);
    }
    m.payload = ByteView{pv->recv.slab + desc.offset,
                         static_cast<std::size_t>(desc.len)};
    dst.wire_zc_bytes += desc.len;
    if (cfg_->collect_stats) {
      // append_views charged the 16 descriptor bytes; swap that for the
      // payload's true h-relation contribution.
      recv_packets +=
          packets_for_bytes(static_cast<std::size_t>(desc.len),
                            cfg_->packet_unit_bytes) -
          packets_for_bytes(sizeof(ShmZcDesc), cfg_->packet_unit_bytes);
    }
  }
  zc_in_.clear();
}

void ExchangeEngine::begin_stage(StageState& ss, int k) {
  const std::size_t sp = static_cast<std::size_t>(send_peer(k));
  MessageArena& ob = outbox_[sp];
  // A fresh state that keeps the two vectors' capacity across boundaries.
  StageState fresh{};
  fresh.hdr_out.swap(ss.hdr_out);
  fresh.send_iov.swap(ss.send_iov);
  ss = std::move(fresh);
  ss.k = k;
  ss.send_pre.count = ob.message_count();
  ss.send_pre.header_bytes = ob.message_count() * sizeof(WireFrameHeader);
  ss.send_pre.payload_bytes = ob.payload_bytes();
  // Pack the header block; payloads are NOT serialized — the iovec below
  // points sendmsg straight at the staging arena's slabs, so the payload
  // section leaves the process from the memory stage_send wrote it to.
  std::vector<std::byte>& hdr_out = ss.hdr_out;
  hdr_out.clear();
  hdr_out.reserve(static_cast<std::size_t>(ss.send_pre.header_bytes));
  // zc_out_ holds the arena ordinals (ascending, by construction) of frames
  // that are zero-copy descriptors; those get pad == 1 on the wire so the
  // receiver knows to resolve them against the slab instead of treating the
  // 16 descriptor bytes as the payload.
  const std::vector<std::size_t>& zc = zc_out_[sp];
  std::size_t zi = 0;
  std::size_t ordinal = 0;
  ob.for_each_frame([&](const MessageArena::Frame& f) {
    WireFrameHeader h;
    h.seq = f.seq;
    h.pad = 0;
    if (zi < zc.size() && zc[zi] == ordinal) {
      h.pad = 1;
      ++zi;
    }
    h.len = f.len;
    append_bytes(hdr_out, &h, sizeof(h));
    ++ordinal;
  });
  zc_out_[sp].clear();
  std::vector<iovec>& iov = ss.send_iov;
  iov.clear();
  iov.push_back({&ss.send_pre, sizeof(StagePreamble)});
  if (!hdr_out.empty()) iov.push_back({hdr_out.data(), hdr_out.size()});
  ob.for_each_payload_span([&](const std::byte* ptr, std::size_t len) {
    iov.push_back({const_cast<std::byte*>(ptr), len});
  });
  // The arena stays live (it backs the iovec) until pump_send retires the
  // last entry and clears it.
  ss.send_arena = &ob;
  mesh_->grow_kernel_buffer(
      pid_, static_cast<int>(sp), /*send_side=*/true,
      sizeof(StagePreamble) +
          static_cast<std::size_t>(ss.send_pre.header_bytes) +
          static_cast<std::size_t>(ss.send_pre.payload_bytes));
}

std::optional<FaultInjector::Decision> ExchangeEngine::syscall_fault(
    WorkerState& st, const StageState& ss, FaultSite site, int fd, int peer,
    std::uint64_t moved) {
  FaultInjector* inj = injector();
  if (inj == nullptr) return std::nullopt;
  FaultContext ctx;
  ctx.rank = st.pid;
  ctx.superstep = st.superstep;
  ctx.stage = ss.k;
  ctx.peer = peer;
  auto d = inj->before_call(site, ctx);
  if (!d) return std::nullopt;
  st.injected_faults += 1;
  switch (d->kind) {
    case FaultKind::DelayUs:
      std::this_thread::sleep_for(std::chrono::microseconds(d->arg));
      return std::nullopt;  // proceed normally after the stall
    case FaultKind::PeerHangup:
      // Shut down our end of the stream: the peer observes EOF and we
      // observe EPIPE/EOF on the next real call — a bidirectional death.
      ::shutdown(fd, SHUT_RDWR);
      if (is_shm_) {
        // The shm data path is memory, so a severed control channel is only
        // noticed on the idle path — which a busy run may never reach. Fail
        // here, deterministically, like the socket backends' next I/O would.
        throw BspTransportError(
            "injected peer hangup severed the shm control channel", st.pid,
            peer, static_cast<std::int64_t>(st.superstep), ss.k, /*err=*/0,
            moved);
      }
      return std::nullopt;
    case FaultKind::Abort:
      throw BspTransportError(
          std::string("injected abort at ") + to_string(site), st.pid, peer,
          static_cast<std::int64_t>(st.superstep), ss.k, /*err=*/0, moved);
    default:
      return d;  // Eintr / Eagain / ShortIo: the pump loop acts these out
  }
}

void ExchangeEngine::maybe_corrupt(WorkerState& st, const StageState& ss,
                                   int src, std::byte* buf, std::size_t n) {
  FaultInjector* inj = injector();
  if (inj == nullptr || n == 0) return;
  FaultContext ctx;
  ctx.rank = st.pid;
  ctx.superstep = st.superstep;
  ctx.stage = ss.k;
  ctx.peer = src;
  if (const auto off = inj->corrupt_offset(FaultSite::RecvCall, ctx)) {
    st.injected_faults += 1;
    buf[static_cast<std::size_t>(*off) % n] ^= std::byte{0xA5};
  }
}

std::size_t ExchangeEngine::pump_send(WorkerState& st, StageState& ss) {
  const int peer = send_peer(ss.k);
  const int fd = mesh_->fd(pid_, peer);
  ShmPairView* pv =
      is_shm_ ? shm_pairs_[static_cast<std::size_t>(peer)] : nullptr;
  std::vector<iovec>& iov = ss.send_iov;
  std::size_t moved = 0;
  while (!ss.send_done) {
    if (ss.send_idx == iov.size()) {
      // Whole stage is in the kernel's hands; the staging arena's bytes have
      // been read, so it can recycle its slabs for the next superstep.
      if (ss.send_arena != nullptr) ss.send_arena->clear();
      ss.send_arena = nullptr;
      ss.send_done = true;
      --sends_left_;
      break;
    }
    std::size_t clamp = 0;
    if (const auto d = syscall_fault(st, ss, FaultSite::SendCall, fd, peer,
                                     ss.send_moved)) {
      if (d->kind == FaultKind::Eintr) continue;   // as if sendmsg -> EINTR
      if (d->kind == FaultKind::Eagain) break;     // as if sendmsg -> EAGAIN
      if (d->kind == FaultKind::ShortIo) {
        clamp = std::max<std::uint64_t>(d->arg, 1);
      }
    }
    if (pv != nullptr) {
      // Shm fast path: the same sectioned iovec list streams into the pair's
      // SPSC ring with plain memcpy. A full ring is the EAGAIN analogue. No
      // syscall happens, so wire_syscalls stays untouched — that IS the
      // headline metric.
      const std::size_t cnt =
          clamp != 0 ? 1 : std::min(iov.size() - ss.send_idx, iov_max());
      const std::size_t maxb =
          clamp != 0 ? clamp : std::numeric_limits<std::size_t>::max();
      const std::size_t w = shm_ring_write(
          pv->send, iov.data() + ss.send_idx, cnt, maxb);
      if (w == 0) break;  // ring full
      advance_iov(iov, ss.send_idx, w);
      moved += w;
      ss.send_moved += static_cast<std::uint64_t>(w);
      st.wire_bytes += static_cast<std::uint64_t>(w);
      continue;
    }
    iovec clamped{};
    msghdr mh{};
    if (clamp != 0) {
      // Truncated transfer: offer the kernel a prefix of the current entry,
      // exercising the partial-I/O resume path.
      clamped = iov[ss.send_idx];
      clamped.iov_len = std::min(clamped.iov_len, clamp);
      mh.msg_iov = &clamped;
      mh.msg_iovlen = 1;
    } else {
      mh.msg_iov = iov.data() + ss.send_idx;
      mh.msg_iovlen = static_cast<decltype(mh.msg_iovlen)>(
          std::min(iov.size() - ss.send_idx, iov_max()));
    }
    const ssize_t n = ::sendmsg(fd, &mh, MSG_NOSIGNAL);
    if (n > 0) {
      // Counts only calls that moved bytes: idle EAGAIN probes are a
      // property of the waiting policy, not of the wire format's syscall
      // economy, and would make the metric timing-dependent.
      ++st.wire_syscalls;
      advance_iov(iov, ss.send_idx, static_cast<std::size_t>(n));
      moved += static_cast<std::size_t>(n);
      ss.send_moved += static_cast<std::uint64_t>(n);
      st.wire_bytes += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    throw BspTransportError(
        "stage send failed (peer dead?)", st.pid, peer,
        static_cast<std::int64_t>(st.superstep), ss.k, errno, ss.send_moved);
  }
  return moved;
}

void ExchangeEngine::parse_header_block(WorkerState& st, StageState& ss,
                                        int src) {
  const std::size_t count = static_cast<std::size_t>(ss.recv_pre.count);
  // First pass validates every header before a single arena append: a
  // corrupt stream must not size allocations or leave half-parsed frames.
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < count; ++i) {
    WireFrameHeader h;
    std::memcpy(&h, hdr_in_.data() + i * sizeof(WireFrameHeader), sizeof(h));
    // pad == 1 on a 16-byte frame flags a zero-copy descriptor, accepted
    // only on the shm transport; every other nonzero pad is corruption.
    if (h.pad != 0 &&
        !(is_shm_ && h.pad == 1 && h.len == sizeof(ShmZcDesc))) {
      throw BspTransportError(
          "frame header " + std::to_string(i) + " has nonzero pad " +
              std::to_string(h.pad) + " (stream corruption?)",
          st.pid, src, static_cast<std::int64_t>(st.superstep), ss.k,
          /*err=*/0, ss.recv_moved);
    }
    if (h.len > cfg_->socket_max_frame_bytes) {
      throw BspTransportError(
          "frame header " + std::to_string(i) + " claims " +
              std::to_string(h.len) +
              " payload bytes, which exceeds socket_max_frame_bytes (" +
              std::to_string(cfg_->socket_max_frame_bytes) +
              "; stream corruption?)",
          st.pid, src, static_cast<std::int64_t>(st.superstep), ss.k,
          /*err=*/0, ss.recv_moved);
    }
    sum += h.len;
  }
  if (sum != ss.recv_pre.payload_bytes) {
    throw BspTransportError(
        "inconsistent stage: header block sums to " + std::to_string(sum) +
            " payload bytes but the preamble declared " +
            std::to_string(ss.recv_pre.payload_bytes) +
            " (stream corruption?)",
        st.pid, src, static_cast<std::int64_t>(st.superstep), ss.k,
        /*err=*/0, ss.recv_moved);
  }
  // Second pass appends the frames and points an iovec at every non-empty
  // payload slot, so the payload section readv()s straight into the memory
  // the receiver's views will expose. Slots are pointer-stable across
  // appends (slabs never move).
  recv_iov_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    WireFrameHeader h;
    std::memcpy(&h, hdr_in_.data() + i * sizeof(WireFrameHeader), sizeof(h));
    if (h.pad == 1) {
      // The arena ordinal equals the final inbox index (the inbox was
      // cleared at open_boundary and publish appends the whole arena), so
      // this is where apply_zc_views finds the descriptor to resolve.
      zc_in_.push_back({inbox_arena_.message_count(), src});
    }
    std::byte* slot =
        inbox_arena_.append(static_cast<std::uint32_t>(src), h.seq,
                            static_cast<std::size_t>(h.len));
    if (h.len != 0) {
      recv_iov_.push_back({slot, static_cast<std::size_t>(h.len)});
    }
  }
  ss.recv_idx = 0;
  ss.payload_left = ss.recv_pre.payload_bytes;
  ss.phase = recv_iov_.empty() ? StageState::Phase::Done
                               : StageState::Phase::Payload;
}

std::size_t ExchangeEngine::section_left(const StageState& ss) const {
  switch (ss.phase) {
    case StageState::Phase::Preamble:
      return sizeof(StagePreamble) - ss.scratch_off;
    case StageState::Phase::Headers:
      return hdr_in_.size() - ss.hdr_off;
    case StageState::Phase::Payload:
      return static_cast<std::size_t>(ss.payload_left);
    case StageState::Phase::Done:
      break;
  }
  return 0;
}

std::size_t ExchangeEngine::fill_section(StageState& ss, const std::byte* src,
                                         std::size_t n) {
  switch (ss.phase) {
    case StageState::Phase::Preamble: {
      const std::size_t c = std::min(n, section_left(ss));
      std::memcpy(ss.scratch + ss.scratch_off, src, c);
      return c;
    }
    case StageState::Phase::Headers: {
      const std::size_t c = std::min(n, section_left(ss));
      std::memcpy(hdr_in_.data() + ss.hdr_off, src, c);
      return c;
    }
    case StageState::Phase::Payload: {
      // Scatter across the inbox slots from the cursor on; advance_section
      // moves the cursor afterwards, as it does after a readv.
      std::size_t done = 0;
      for (std::size_t i = ss.recv_idx; i < recv_iov_.size() && done < n;
           ++i) {
        const std::size_t c = std::min(n - done, recv_iov_[i].iov_len);
        std::memcpy(recv_iov_[i].iov_base, src + done, c);
        done += c;
      }
      return done;
    }
    case StageState::Phase::Done:
      break;
  }
  return 0;
}

void ExchangeEngine::advance_section(WorkerState& st, StageState& ss, int src,
                                     std::size_t got) {
  ss.recv_moved += static_cast<std::uint64_t>(got);
  switch (ss.phase) {
    case StageState::Phase::Preamble:
      ss.scratch_off += got;
      if (ss.scratch_off == sizeof(StagePreamble)) {
        // Corruption fires on completed control sections — the validation
        // path must be the thing that catches the garbled byte.
        maybe_corrupt(st, ss, src, ss.scratch, sizeof(StagePreamble));
        std::memcpy(&ss.recv_pre, ss.scratch, sizeof(ss.recv_pre));
        // Cross-check the sections against each other before trusting any
        // of the preamble's lengths.
        if (ss.recv_pre.header_bytes > kMaxHeaderBlockBytes) {
          throw BspTransportError(
              "stage preamble claims a " +
                  std::to_string(ss.recv_pre.header_bytes) +
                  "-byte header block (stream corruption?)",
              st.pid, src, static_cast<std::int64_t>(st.superstep), ss.k,
              /*err=*/0, ss.recv_moved);
        }
        if (ss.recv_pre.count !=
                ss.recv_pre.header_bytes / sizeof(WireFrameHeader) ||
            ss.recv_pre.header_bytes % sizeof(WireFrameHeader) != 0) {
          throw BspTransportError(
              "inconsistent stage preamble: count " +
                  std::to_string(ss.recv_pre.count) + " vs header block of " +
                  std::to_string(ss.recv_pre.header_bytes) +
                  " bytes (stream corruption?)",
              st.pid, src, static_cast<std::int64_t>(st.superstep), ss.k,
              /*err=*/0, ss.recv_moved);
        }
        if (ss.recv_pre.count == 0) {
          if (ss.recv_pre.payload_bytes != 0) {
            throw BspTransportError(
                "stage preamble declares " +
                    std::to_string(ss.recv_pre.payload_bytes) +
                    " payload bytes with zero frames (stream corruption?)",
                st.pid, src, static_cast<std::int64_t>(st.superstep), ss.k,
                /*err=*/0, ss.recv_moved);
          }
          ss.phase = StageState::Phase::Done;
        } else {
          hdr_in_.resize(static_cast<std::size_t>(ss.recv_pre.header_bytes));
          ss.hdr_off = 0;
          mesh_->grow_kernel_buffer(
              pid_, src, /*send_side=*/false,
              sizeof(StagePreamble) +
                  static_cast<std::size_t>(ss.recv_pre.header_bytes) +
                  static_cast<std::size_t>(ss.recv_pre.payload_bytes));
          ss.phase = StageState::Phase::Headers;
        }
      }
      break;
    case StageState::Phase::Headers:
      ss.hdr_off += got;
      if (ss.hdr_off == hdr_in_.size()) {
        maybe_corrupt(st, ss, src, hdr_in_.data(), hdr_in_.size());
        parse_header_block(st, ss, src);
      }
      break;
    case StageState::Phase::Payload:
      advance_iov(recv_iov_, ss.recv_idx, got);
      ss.payload_left -= static_cast<std::uint64_t>(got);
      if (ss.recv_idx == recv_iov_.size()) ss.phase = StageState::Phase::Done;
      break;
    case StageState::Phase::Done:
      break;
  }
  if (ss.phase == StageState::Phase::Done) ss.recv_done = true;
}

std::size_t ExchangeEngine::pump_recv(WorkerState& st, StageState& ss) {
  const int src = recv_peer(ss.k);
  const int fd = mesh_->fd(pid_, src);
  ShmPairView* pv =
      is_shm_ ? shm_pairs_[static_cast<std::size_t>(src)] : nullptr;
  RecvBuffer& rb = rbuf_[static_cast<std::size_t>(src)];
  std::size_t moved = 0;
  while (!ss.recv_done) {
    if (rb.beg != rb.end) {
      // Bytes an earlier recv already pulled in: consume them, no syscall.
      const std::size_t got =
          fill_section(ss, rb.data.get() + rb.beg, rb.end - rb.beg);
      rb.beg += got;
      if (rb.beg == rb.end) rb.beg = rb.end = 0;
      moved += got;
      advance_section(st, ss, src, got);
      continue;
    }
    std::size_t clamp = 0;
    if (const auto d = syscall_fault(st, ss, FaultSite::RecvCall, fd, src,
                                     ss.recv_moved)) {
      if (d->kind == FaultKind::Eintr) continue;  // as if recv -> EINTR
      if (d->kind == FaultKind::Eagain) break;    // as if recv -> EAGAIN
      if (d->kind == FaultKind::ShortIo) {
        clamp = std::max<std::uint64_t>(d->arg, 1);
      }
    }
    std::size_t got = 0;
    if (pv != nullptr) {
      // Shm fast path: drain the pair's SPSC ring with plain memcpy; an
      // empty ring is the EAGAIN analogue (peer death surfaces on the idle
      // path via the control channel, not here). No syscall, no
      // wire_syscalls.
      switch (ss.phase) {
        case StageState::Phase::Preamble: {
          std::size_t want = section_left(ss);
          if (clamp != 0) want = std::min(want, clamp);
          got = shm_ring_read(pv->recv, ss.scratch + ss.scratch_off, want);
          break;
        }
        case StageState::Phase::Headers: {
          std::size_t want = section_left(ss);
          if (clamp != 0) want = std::min(want, clamp);
          got = shm_ring_read(pv->recv, hdr_in_.data() + ss.hdr_off, want);
          break;
        }
        case StageState::Phase::Payload: {
          if (clamp != 0) {
            iovec clamped = recv_iov_[ss.recv_idx];
            clamped.iov_len = std::min(clamped.iov_len, clamp);
            got = shm_ring_read_iov(pv->recv, &clamped, 1, clamp);
            break;
          }
          const std::size_t cnt =
              std::min(recv_iov_.size() - ss.recv_idx, iov_max());
          got = shm_ring_read_iov(pv->recv, recv_iov_.data() + ss.recv_idx,
                                  cnt,
                                  std::numeric_limits<std::size_t>::max());
          break;
        }
        case StageState::Phase::Done:
          break;
      }
      if (got == 0) break;  // ring empty
    } else {
      // A section remainder at least the buffer's size is read straight
      // into its destination (no extra copy for big stages); anything
      // smaller goes through the buffer, so one recv takes the rest of the
      // stage and whatever follows it.
      const bool direct = section_left(ss) >= kRecvBufferBytes;
      ssize_t n = 0;
      if (!direct) {
        std::size_t want = kRecvBufferBytes;
        if (clamp != 0) want = std::min(want, clamp);
        n = ::recv(fd, rb.data.get(), want, 0);
      } else if (ss.phase == StageState::Phase::Headers) {
        std::size_t want = section_left(ss);
        if (clamp != 0) want = std::min(want, clamp);
        n = ::recv(fd, hdr_in_.data() + ss.hdr_off, want, 0);
      } else if (clamp != 0) {
        iovec clamped = recv_iov_[ss.recv_idx];
        clamped.iov_len = std::min(clamped.iov_len, clamp);
        n = ::readv(fd, &clamped, 1);
      } else {
        const std::size_t cnt =
            std::min(recv_iov_.size() - ss.recv_idx, iov_max());
        n = ::readv(fd, recv_iov_.data() + ss.recv_idx,
                    static_cast<int>(cnt));
      }
      if (n == 0) {
        throw BspTransportError(
            "peer closed its endpoint mid-stage (peer death)", st.pid, src,
            static_cast<std::int64_t>(st.superstep), ss.k, /*err=*/0,
            ss.recv_moved);
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        throw BspTransportError(
            "stage recv failed", st.pid, src,
            static_cast<std::int64_t>(st.superstep), ss.k, errno,
            ss.recv_moved);
      }
      ++st.wire_syscalls;  // like the send side: only calls that moved bytes
      if (!direct) {
        rb.end = static_cast<std::size_t>(n);  // consumed at the loop top
        continue;
      }
      got = static_cast<std::size_t>(n);
    }
    moved += got;
    advance_section(st, ss, src, got);
  }
  return moved;
}

void ExchangeEngine::check_peer_alive(WorkerState& st, const StageState& ss,
                                      int peer) {
  const int fd = mesh_->fd(pid_, peer);
  if (fd < 0) return;
  char b;
  const ssize_t r = ::recv(fd, &b, 1, MSG_PEEK | MSG_DONTWAIT);
  if (r == 0) {
    // EOF on the bootstrap control stream: the peer process exited (or its
    // endpoints were killed) — the same condition the socket pumps see as a
    // mid-stage close.
    throw BspTransportError(
        "peer closed its endpoint mid-stage (peer death)", st.pid, peer,
        static_cast<std::int64_t>(st.superstep), ss.k, /*err=*/0,
        ss.send_moved + ss.recv_moved);
  }
  if (r > 0) {
    // Nothing is ever sent on the control stream after bootstrap.
    throw BspTransportError(
        "unexpected bytes on the shm control channel (stream corruption?)",
        st.pid, peer, static_cast<std::int64_t>(st.superstep), ss.k,
        /*err=*/0, ss.send_moved + ss.recv_moved);
  }
  if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    throw BspTransportError("shm control channel failed", st.pid, peer,
                            static_cast<std::int64_t>(st.superstep), ss.k,
                            errno, ss.send_moved + ss.recv_moved);
  }
}

void ExchangeEngine::begin_window(WorkerState& st) {
  open_boundary(st);
  window_active_ = true;
  for (int k = 1; k < nprocs_; ++k) {
    begin_stage(stages_[static_cast<std::size_t>(k - 1)], k);
  }
  sends_left_ = nprocs_ - 1;
  recv_k_ = 1;
  pump_window(st);
}

std::size_t ExchangeEngine::pump_window(WorkerState& st) {
  // Send first: every peer's stage goes out before this rank waits on any
  // receive, so no peer's receive waits on this rank's schedule.
  std::size_t moved = 0;
  if (sends_left_ != 0) {
    for (StageState& ss : stages_) {
      if (!ss.send_done) moved += pump_send(st, ss);
    }
  }
  // Receives complete in stage order, so frames land in the inbox arena in
  // the order publication has always had: self, then pid-1, pid-2, ...
  while (recv_k_ < nprocs_) {
    StageState& ss = stages_[static_cast<std::size_t>(recv_k_ - 1)];
    moved += pump_recv(st, ss);
    if (!ss.recv_done) break;
    ++recv_k_;
  }
  return moved;
}

const ExchangeEngine::StageState& ExchangeEngine::blocking_stage(
    int* peer) const {
  if (recv_k_ < nprocs_) {
    *peer = recv_peer(recv_k_);
    return stages_[static_cast<std::size_t>(recv_k_ - 1)];
  }
  for (const StageState& ss : stages_) {
    if (!ss.send_done) {
      *peer = send_peer(ss.k);
      return ss;
    }
  }
  *peer = -1;  // unreachable while the window is open
  return stages_.front();
}

void ExchangeEngine::append_poll_fds(std::vector<pollfd>& fds) const {
  for (const StageState& ss : stages_) {
    if (!ss.send_done) {
      fds.push_back({mesh_->fd(pid_, send_peer(ss.k)), POLLOUT, 0});
    }
  }
  // Only the stage being received: data from later stages waits in the
  // kernel, and polling for it would wake a wait that cannot consume it.
  if (recv_k_ < nprocs_) {
    fds.push_back({mesh_->fd(pid_, recv_peer(recv_k_)), POLLIN, 0});
  }
}

void ExchangeEngine::finish_window(WorkerState& st) {
  using Clock = std::chrono::steady_clock;
  auto last_progress = Clock::now();
  std::size_t backoff_ms = cfg_->socket_backoff_initial_ms;
  // The shm idle nap is microsecond-scale: unlike poll(), which wakes the
  // moment the peer writes, a sleep against a memory ring is blind — the
  // full nap is paid even if the ring fills immediately. Millisecond naps
  // would dominate every boundary on an oversubscribed host (ranks > cores),
  // where a peer is one scheduler quantum — not one poll wake-up — away.
  constexpr std::size_t kShmNapInitialUs = 50;
  std::size_t backoff_us = kShmNapInitialUs;
  while (!window_done()) {
    // Every round pumps every pending send as well as the receive: that is
    // what keeps the exchange deadlock-free when transfers exceed kernel
    // buffers (every peer keeps draining the stream this rank fills).
    if (pump_window(st) != 0) {
      last_progress = Clock::now();
      backoff_ms = cfg_->socket_backoff_initial_ms;
      backoff_us = kShmNapInitialUs;
      continue;
    }
    if (window_done()) break;
    if (abort_ != nullptr && abort_->load(std::memory_order_acquire)) {
      throw BspAborted{};
    }
    int peer = -1;
    const StageState& ss = blocking_stage(&peer);
    const auto idle = Clock::now() - last_progress;
    if (idle > std::chrono::milliseconds(cfg_->socket_stage_timeout_ms)) {
      throw BspTransportError(
          "stage made no progress for " +
              std::to_string(cfg_->socket_stage_timeout_ms) +
              " ms (peer dead or wedged)",
          st.pid, peer, static_cast<std::int64_t>(st.superstep), ss.k,
          /*err=*/0, ss.send_moved + ss.recv_moved);
    }
    // Adaptive wait: a peer in the same boundary is typically microseconds
    // away, so retry the non-blocking rounds for the spin budget (yielding
    // the core each round for oversubscribed hosts) before paying a poll.
    // On shm the spin budget is stretched: a yield round-robins the ranks
    // sharing the host's cores (each yield is a cheap handoff to a peer that
    // may be about to write this ring), where a nap is a blind wait.
    const std::size_t spin_us =
        is_shm_ ? cfg_->socket_spin_us * 64 : cfg_->socket_spin_us;
    if (idle < std::chrono::microseconds(spin_us)) {
      std::this_thread::yield();
      continue;
    }
    const int wait_fd = mesh_->fd(pid_, peer);
    if (is_shm_) {
      // The shm rings are memory — there is nothing to poll. Past the spin
      // budget, probe each pending peer's bootstrap control channel for
      // death (the one failure the data path cannot observe), then sleep
      // with the same bounded exponential backoff the socket path uses.
      // These probes only run while idle, so the zero-syscall steady state
      // is preserved.
      for (const StageState& s : stages_) {
        if (!s.send_done) check_peer_alive(st, s, send_peer(s.k));
      }
      if (recv_k_ < nprocs_) check_peer_alive(st, ss, peer);
      if (const auto d = syscall_fault(st, ss, FaultSite::PollCall, wait_fd,
                                       peer, 0)) {
        (void)d;  // Eintr/Eagain: skip this wait round
        backoff_us = std::min(backoff_us * 2,
                              cfg_->socket_backoff_max_ms * 1000);
        continue;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      backoff_us =
          std::min(backoff_us * 2, cfg_->socket_backoff_max_ms * 1000);
      continue;
    }
    // Idle past the spin budget: one poll over every pending fd, bounded so
    // aborts and timeouts are noticed (bounded exponential backoff).
    poll_fds_.clear();
    append_poll_fds(poll_fds_);
    if (const auto d = syscall_fault(st, ss, FaultSite::PollCall, wait_fd,
                                     peer, 0)) {
      // Eintr/Eagain: skip this poll round as if it was interrupted; the
      // loop re-pumps and re-polls with the next backoff step.
      (void)d;
      backoff_ms = std::min(backoff_ms * 2, cfg_->socket_backoff_max_ms);
      continue;
    }
    if (::poll(poll_fds_.data(), static_cast<nfds_t>(poll_fds_.size()),
               static_cast<int>(backoff_ms)) < 0 &&
        errno != EINTR) {
      // A real poll failure (EBADF after an injected hangup, ENOMEM) must be
      // diagnosed, not spun on: retrying would busy-loop until the stage
      // timeout with no chance of progress.
      throw BspTransportError("poll on stage sockets failed", st.pid, peer,
                              static_cast<std::int64_t>(st.superstep), ss.k,
                              errno, ss.send_moved + ss.recv_moved);
    }
    backoff_ms = std::min(backoff_ms * 2, cfg_->socket_backoff_max_ms);
  }
  window_active_ = false;
}

}  // namespace detail
}  // namespace gbsp
