#include "core/exchange_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

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
  chan_.assign(static_cast<std::size_t>(nprocs), nullptr);
  for (int j = 0; j < nprocs; ++j) {
    if (j != pid) chan_[static_cast<std::size_t>(j)] = mesh_->channel(pid, j);
  }
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
  for (auto& v : zc_out_) v.clear();
  zc_in_.clear();
}

bool ExchangeEngine::has_buffered_bytes() const {
  for (const Channel* c : chan_) {
    if (c != nullptr && c->has_buffered()) return true;
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
  if (dest != pid_ && n >= channel(dest).zc_min_bytes()) {
    ShmZcDesc desc;
    if (std::byte* slot = channel(dest).reserve_zc(n, &desc)) {
      // What travels the wire is this 16-byte descriptor, flagged by
      // pad == 1 in its wire header (begin_stage); the payload bytes never
      // move again.
      std::byte* dslot = outbox_[d].append(static_cast<std::uint32_t>(st.pid),
                                           st.seq_to[d]++, sizeof(desc));
      std::memcpy(dslot, &desc, sizeof(desc));
      zc_out_[d].push_back(outbox_[d].message_count() - 1);
      st.step.wire_zc_bytes += n;
      return slot;
    }
  }
  // Same bump-append staging as the deferred transport; the bytes hit the
  // wire at the boundary, in the rigid stage for this destination.
  return outbox_[d].append(static_cast<std::uint32_t>(st.pid),
                           st.seq_to[d]++, n);
}

void ExchangeEngine::open_boundary(WorkerState& dst) {
  dst.inbox.clear();
  dst.inbox_cursor = 0;
  inbox_arena_.release_slabs();  // last superstep's views are dead now
  for (Channel* c : chan_) {
    if (c != nullptr) c->open_boundary();
  }
  zc_in_.clear();  // defensive: an unwound publish must not leak fixups
  // Stage 0 of the schedule: self-delivery moves whole slabs, no wire.
  inbox_arena_.splice_from(outbox_[static_cast<std::size_t>(dst.pid)]);
}

void ExchangeEngine::apply_zc_views(WorkerState& dst,
                                    std::uint64_t& recv_packets) {
  for (const ZcIn& z : zc_in_) {
    Message& m = dst.inbox[z.ordinal];
    ShmZcDesc desc;
    std::memcpy(&desc, m.payload.data(), sizeof(desc));
    m.payload = channel(z.src).resolve_zc(
        desc, site(dst, z.src, /*k=*/-1, /*moved=*/0));
    dst.step.wire_zc_bytes += desc.len;
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
  // section leaves the process from the memory the sender built it in.
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
  channel(static_cast<int>(sp))
      .expect_stage(/*send_side=*/true,
                    sizeof(StagePreamble) +
                        static_cast<std::size_t>(ss.send_pre.header_bytes) +
                        static_cast<std::size_t>(ss.send_pre.payload_bytes));
}

std::optional<FaultInjector::Decision> ExchangeEngine::syscall_fault(
    WorkerState& st, int k, FaultSite at, int peer, std::uint64_t moved) {
  FaultInjector* inj = injector();
  if (inj == nullptr) return std::nullopt;
  FaultContext ctx;
  ctx.rank = st.pid;
  ctx.superstep = st.superstep;
  ctx.stage = k;
  ctx.peer = peer;
  auto d = inj->before_call(at, ctx);
  if (!d) return std::nullopt;
  st.step.injected_faults += 1;
  switch (d->kind) {
    case FaultKind::DelayUs:
      std::this_thread::sleep_for(std::chrono::microseconds(d->arg));
      return std::nullopt;  // proceed normally after the stall
    case FaultKind::PeerHangup:
      channel(peer).hang_up(site(st, peer, k, moved));
      return std::nullopt;
    case FaultKind::Abort:
      throw BspTransportError(
          std::string("injected abort at ") + to_string(at), st.pid, peer,
          static_cast<std::int64_t>(st.superstep), k, /*err=*/0, moved);
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
    st.step.injected_faults += 1;
    buf[static_cast<std::size_t>(*off) % n] ^= std::byte{0xA5};
  }
}

std::size_t ExchangeEngine::pump_send(WorkerState& st, StageState& ss) {
  const int peer = send_peer(ss.k);
  Channel& ch = channel(peer);
  std::vector<iovec>& iov = ss.send_iov;
  std::size_t moved = 0;
  while (!ss.send_done) {
    if (ss.send_idx == iov.size()) {
      // Whole stage is on the medium; the staging arena's bytes have been
      // read, so it can recycle its slabs for the next superstep.
      if (ss.send_arena != nullptr) ss.send_arena->clear();
      ss.send_arena = nullptr;
      ss.send_done = true;
      --sends_left_;
      break;
    }
    std::size_t clamp = 0;
    if (const auto d = syscall_fault(st, ss.k, FaultSite::SendCall, peer,
                                     ss.send_moved)) {
      if (d->kind == FaultKind::Eintr) continue;   // as if sendmsg -> EINTR
      if (d->kind == FaultKind::Eagain) break;     // as if sendmsg -> EAGAIN
      if (d->kind == FaultKind::ShortIo) {
        clamp = std::max<std::uint64_t>(d->arg, 1);
      }
    }
    const std::size_t n =
        ch.write(iov.data() + ss.send_idx, iov.size() - ss.send_idx, clamp,
                 site(st, peer, ss.k, ss.send_moved));
    if (n == 0) break;  // kernel buffer or ring full
    advance_iov(iov, ss.send_idx, n);
    moved += n;
    ss.send_moved += static_cast<std::uint64_t>(n);
    st.step.wire_bytes += static_cast<std::uint64_t>(n);
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
    // only from a channel with a slab; every other nonzero pad is
    // corruption.
    if (h.pad != 0 && !(h.pad == 1 && h.len == sizeof(ShmZcDesc) &&
                        channel(src).accepts_zc())) {
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
  // payload slot, so the payload section is read straight into the memory
  // the receiver's views will expose. Slots are pointer-stable across
  // appends (slabs never move).
  recv_iov_.clear();
  recv_idx_ = 0;
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
  ss.section_left = ss.recv_pre.payload_bytes;
  ss.phase = recv_iov_.empty() ? StageState::Phase::Done
                               : StageState::Phase::Payload;
}

void ExchangeEngine::next_recv() {
  if (++recv_k_ == nprocs_) return;
  StageState& ss = stages_[static_cast<std::size_t>(recv_k_ - 1)];
  begin_section(ss, StageState::Phase::Preamble, &ss.recv_pre,
                sizeof(StagePreamble));
}

void ExchangeEngine::begin_section(StageState& ss, StageState::Phase phase,
                                   void* base, std::size_t len) {
  recv_iov_.assign(1, iovec{base, len});
  recv_idx_ = 0;
  ss.section_left = len;
  ss.phase = phase;
}

void ExchangeEngine::advance_section(WorkerState& st, StageState& ss, int src,
                                     std::size_t got) {
  ss.recv_moved += static_cast<std::uint64_t>(got);
  ss.section_left -= static_cast<std::uint64_t>(got);
  advance_iov(recv_iov_, recv_idx_, got);
  if (ss.section_left != 0) return;
  switch (ss.phase) {
    case StageState::Phase::Preamble:
      // Corruption fires on completed control sections — the validation
      // path must be the thing that catches the garbled byte.
      maybe_corrupt(st, ss, src, reinterpret_cast<std::byte*>(&ss.recv_pre),
                    sizeof(StagePreamble));
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
        channel(src).expect_stage(
            /*send_side=*/false,
            sizeof(StagePreamble) +
                static_cast<std::size_t>(ss.recv_pre.header_bytes) +
                static_cast<std::size_t>(ss.recv_pre.payload_bytes));
        begin_section(ss, StageState::Phase::Headers, hdr_in_.data(),
                      hdr_in_.size());
      }
      break;
    case StageState::Phase::Headers:
      maybe_corrupt(st, ss, src, hdr_in_.data(), hdr_in_.size());
      parse_header_block(st, ss, src);
      break;
    case StageState::Phase::Payload:
      ss.phase = StageState::Phase::Done;
      break;
    case StageState::Phase::Done:
      break;
  }
  if (ss.phase == StageState::Phase::Done) ss.recv_done = true;
}

std::size_t ExchangeEngine::pump_recv(WorkerState& st, StageState& ss) {
  const int src = recv_peer(ss.k);
  Channel& ch = channel(src);
  std::size_t moved = 0;
  while (!ss.recv_done) {
    std::size_t clamp = 0;
    // Bytes the channel already holds are consumed without a fault
    // consult: only a transfer from the medium is a RecvCall.
    if (!ch.has_buffered()) {
      if (const auto d = syscall_fault(st, ss.k, FaultSite::RecvCall, src,
                                       ss.recv_moved)) {
        if (d->kind == FaultKind::Eintr) continue;  // as if recv -> EINTR
        if (d->kind == FaultKind::Eagain) break;    // as if recv -> EAGAIN
        if (d->kind == FaultKind::ShortIo) {
          clamp = std::max<std::uint64_t>(d->arg, 1);
        }
      }
    }
    const std::size_t got = ch.read(
        recv_iov_.data() + recv_idx_, recv_iov_.size() - recv_idx_,
        static_cast<std::size_t>(ss.section_left), clamp,
        site(st, src, ss.k, ss.recv_moved));
    if (got == 0) break;  // nothing to read yet
    moved += got;
    advance_section(st, ss, src, got);
  }
  return moved;
}

void ExchangeEngine::begin_window(WorkerState& st) {
  open_boundary(st);
  window_active_ = true;
  for (int k = 1; k < nprocs_; ++k) {
    begin_stage(stages_[static_cast<std::size_t>(k - 1)], k);
  }
  sends_left_ = nprocs_ - 1;
  recv_k_ = 0;
  next_recv();
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
    next_recv();
  }
  return moved;
}

void ExchangeEngine::add_waits(IdleWait& wait, WorkerState& st) {
  // Only the stage being received: data from later stages waits on the
  // medium, and waiting for it would wake a wait that cannot consume it.
  if (recv_k_ < nprocs_) {
    const StageState& ss = stages_[static_cast<std::size_t>(recv_k_ - 1)];
    const int peer = recv_peer(recv_k_);
    wait.add(channel(peer), /*send_side=*/false,
             site(st, peer, ss.k, ss.send_moved + ss.recv_moved));
  }
  for (const StageState& ss : stages_) {
    if (!ss.send_done) {
      const int peer = send_peer(ss.k);
      wait.add(channel(peer), /*send_side=*/true,
               site(st, peer, ss.k, ss.send_moved + ss.recv_moved));
    }
  }
}

void ExchangeEngine::finish_window(WorkerState& st) {
  wait_.progressed();
  while (!window_done()) {
    // Every round pumps every pending send as well as the receive: that is
    // what keeps the exchange deadlock-free when transfers exceed kernel
    // buffers or rings (every peer keeps draining the stream this rank
    // fills).
    if (pump_window(st) != 0) {
      wait_.progressed();
      continue;
    }
    if (window_done()) break;
    wait_.clear();
    add_waits(wait_, st);
    // The stage the wait is blocked on: the one being received, else the
    // first unfinished send.
    const IoSite& at = wait_.blocked_on();
    if (wait_.timed_out()) {
      at.fail("stage made no progress for " +
                  std::to_string(cfg_->socket_stage_timeout_ms) +
                  " ms (peer dead or wedged)",
              /*err=*/0);
    }
    if (wait_.spin()) continue;
    if (syscall_fault(st, at.stage, FaultSite::PollCall, at.peer, 0)) {
      // Eintr/Eagain: skip this wait round as if it was interrupted; the
      // loop re-pumps and waits again with the next backoff step.
      wait_.skip();
      continue;
    }
    if (!wait_.nap()) {
      // A real poll failure (EBADF after an injected hangup, ENOMEM) must be
      // diagnosed, not spun on: retrying would busy-loop until the stage
      // timeout with no chance of progress.
      at.fail("poll on stage sockets failed", errno);
    }
  }
  window_active_ = false;
}

}  // namespace detail
}  // namespace gbsp
