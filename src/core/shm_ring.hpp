// Shared-memory SPSC byte rings: the data plane of the Shm transport.
//
// Each ordered rank pair (i -> j) owns one direction block inside an mmap'd
// memfd segment created at bootstrap (core/mesh.hpp, ShmMesh). A direction
// block is a control page of monotonic atomic cursors, a byte ring the
// exchange's sectioned wire bytes stream through, and a zero-copy
// payload slab whose two halves recycle on alternating boundary epochs.
//
// Cursor discipline (classic SPSC): `tail` counts bytes ever produced,
// `head` bytes ever consumed; both only grow, and ring positions are the
// counters modulo capacity, so the full/empty ambiguity of wrapped indices
// never arises. The producer writes payload bytes first and publishes with a
// release store of tail; the consumer acquires tail, copies, and publishes
// consumption with a release store of head — the only synchronisation on the
// steady-state data path. No futex, no pipe, no syscall: waiting is the
// engine's spin-then-yield policy (core/exchange_engine.cpp).
//
// `boundaries_opened` is the direction's zero-copy epoch feedback channel:
// the CONSUMER stores its count of opened superstep boundaries (the moment
// delivered inbox views die), and the producer reads it to decide when a
// slab half may be recycled. See DESIGN.md section 15.
#pragma once

#include <sys/uio.h>  // iovec

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace gbsp {
namespace detail {

/// Control block at the head of one direction block, one atomic per cache
/// line so the producer's tail stores never bounce the consumer's head line.
struct ShmRingCtl {
  alignas(64) std::atomic<std::uint64_t> tail;  // bytes ever produced
  alignas(64) std::atomic<std::uint64_t> head;  // bytes ever consumed
  /// Written by the CONSUMER of this direction: how many superstep
  /// boundaries it has opened since the segment was mapped. Opening boundary
  /// b invalidates the inbox views delivered at boundary b-1, so the
  /// producer may reuse the slab half of epoch e once this reads >= e.
  alignas(64) std::atomic<std::uint64_t> boundaries_opened;
};
static_assert(sizeof(ShmRingCtl) == 192, "shm ring control layout drifted");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shm rings need lock-free 64-bit atomics");

/// One direction of a pair, as seen from either end: control block, ring
/// storage, and the zero-copy slab. All pointers alias the shared mapping.
struct ShmDirView {
  ShmRingCtl* ctl = nullptr;
  std::byte* ring = nullptr;
  std::size_t ring_cap = 0;
  std::byte* slab = nullptr;
  std::size_t slab_cap = 0;
};

/// Both directions of this rank's pair with one peer: `send` is the
/// direction this rank produces into, `recv` the one it consumes.
struct ShmPairView {
  ShmDirView send;
  ShmDirView recv;
};

/// Producer side: copies up to `max_bytes` from the scatter-gather list into
/// the ring (as much as fits) and publishes the new tail. Returns bytes
/// written; 0 means the ring is full — the shm analogue of EAGAIN.
inline std::size_t shm_ring_write(ShmDirView& d, const iovec* iov,
                                  std::size_t iovcnt, std::size_t max_bytes) {
  const std::uint64_t tail = d.ctl->tail.load(std::memory_order_relaxed);
  const std::uint64_t head = d.ctl->head.load(std::memory_order_acquire);
  std::size_t space = d.ring_cap - static_cast<std::size_t>(tail - head);
  if (space > max_bytes) space = max_bytes;
  if (space == 0) return 0;
  std::size_t written = 0;
  std::uint64_t cursor = tail;
  for (std::size_t e = 0; e < iovcnt && written < space; ++e) {
    const std::byte* src = static_cast<const std::byte*>(iov[e].iov_base);
    std::size_t n = iov[e].iov_len;
    if (n > space - written) n = space - written;
    // Up to two memcpys per entry: the run to the ring's end, then the wrap.
    std::size_t off = 0;
    while (off < n) {
      const std::size_t pos = static_cast<std::size_t>(cursor % d.ring_cap);
      std::size_t chunk = d.ring_cap - pos;
      if (chunk > n - off) chunk = n - off;
      std::memcpy(d.ring + pos, src + off, chunk);
      off += chunk;
      cursor += chunk;
    }
    written += n;
  }
  d.ctl->tail.store(tail + written, std::memory_order_release);
  return written;
}

/// Consumer side: copies up to `want` available bytes into `dst` and
/// publishes the new head. Returns bytes read; 0 means the ring is empty.
inline std::size_t shm_ring_read(ShmDirView& d, std::byte* dst,
                                 std::size_t want) {
  const std::uint64_t head = d.ctl->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = d.ctl->tail.load(std::memory_order_acquire);
  std::size_t avail = static_cast<std::size_t>(tail - head);
  if (avail > want) avail = want;
  if (avail == 0) return 0;
  std::size_t off = 0;
  std::uint64_t cursor = head;
  while (off < avail) {
    const std::size_t pos = static_cast<std::size_t>(cursor % d.ring_cap);
    std::size_t chunk = d.ring_cap - pos;
    if (chunk > avail - off) chunk = avail - off;
    std::memcpy(dst + off, d.ring + pos, chunk);
    off += chunk;
    cursor += chunk;
  }
  d.ctl->head.store(head + avail, std::memory_order_release);
  return avail;
}

/// Consumer side, scatter-gather: fills the list's entries in order from the
/// ring, up to `max_bytes`. Returns bytes read; 0 means the ring is empty.
inline std::size_t shm_ring_read_iov(ShmDirView& d, const iovec* iov,
                                     std::size_t iovcnt,
                                     std::size_t max_bytes) {
  const std::uint64_t head = d.ctl->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = d.ctl->tail.load(std::memory_order_acquire);
  std::size_t avail = static_cast<std::size_t>(tail - head);
  if (avail > max_bytes) avail = max_bytes;
  if (avail == 0) return 0;
  std::size_t read = 0;
  std::uint64_t cursor = head;
  for (std::size_t e = 0; e < iovcnt && read < avail; ++e) {
    std::byte* dst = static_cast<std::byte*>(iov[e].iov_base);
    std::size_t n = iov[e].iov_len;
    if (n > avail - read) n = avail - read;
    std::size_t off = 0;
    while (off < n) {
      const std::size_t pos = static_cast<std::size_t>(cursor % d.ring_cap);
      std::size_t chunk = d.ring_cap - pos;
      if (chunk > n - off) chunk = n - off;
      std::memcpy(dst + off, d.ring + pos, chunk);
      off += chunk;
      cursor += chunk;
    }
    read += n;
  }
  d.ctl->head.store(head + read, std::memory_order_release);
  return read;
}

/// On-wire descriptor of a zero-copy frame: what travels through the ring
/// (flagged by WireFrameHeader::pad == 1) instead of the payload itself.
/// `offset` is relative to the direction's slab base.
struct ShmZcDesc {
  std::uint64_t offset;
  std::uint64_t len;
};
static_assert(sizeof(ShmZcDesc) == 16, "zero-copy descriptor layout drifted");

}  // namespace detail
}  // namespace gbsp
