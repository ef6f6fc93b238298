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
// steady-state data path. No futex, no pipe, no syscall: RingChannel
// (core/channel.hpp) runs both ends, validates the peer's cursor against
// the capacity, and waits with the exchange's spin-then-nap policy.
//
// `boundaries_opened` is the direction's zero-copy epoch feedback channel:
// the CONSUMER stores its count of opened superstep boundaries (the moment
// delivered inbox views die), and the producer reads it to decide when a
// slab half may be recycled. See DESIGN.md section 15.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

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
