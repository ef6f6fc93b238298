// Superstep checkpointing for bounded-retry recovery.
//
// BSP hands recovery a gift the general message-passing model lacks: the
// superstep boundary is a consistent cut. At the top of a superstep every
// message of the previous h-relation has been delivered, nothing is in
// flight, and each processor's externally visible state is exactly (its
// registered memory, its inbox, its sequence counters). Snapshotting that
// tuple at the cut — and nothing else — is sufficient to replay the run
// bit-identically, because the program between cuts is deterministic local
// computation plus sends that the restored sequence counters re-number
// identically.
//
// The RecoveryManager keeps two pool-backed checkpoint slots per rank
// (current and previous). Two suffice: checkpoints are taken at the same
// superstep schedule on every rank, so when a failure interrupts a
// checkpoint wave, ranks differ by at most one completed checkpoint — the
// latest superstep present on *all* ranks is always in one of the two slots.
// The trace is not copied into slots: each rank keeps one append-only
// committed trace, every checkpoint appends the records closed since the
// previous one, and a slot stores only the committed length at its cut, so
// a checkpoint costs the same at superstep 10 as at superstep 10^5.
// Inbox snapshots are copied into a MessageArena fed by the runtime's
// SlabPool, so steady-state checkpointing recycles the same slabs instead of
// touching the allocator (the zero-alloc discipline of the message path,
// extended to the resilience layer).
//
// Threading: checkpoint() is called by each worker for its own rank at the
// top of a superstep — slots are per-rank, so no locking is needed.
// latest_complete()/restore() run single-threaded between run attempts,
// after every worker thread has joined.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/arena.hpp"
#include "core/stats.hpp"
#include "core/worker_state.hpp"

namespace gbsp {

class RecoveryManager {
 public:
  explicit RecoveryManager(SlabPool* pool) : pool_(pool) {}

  /// Forgets every checkpoint and sizes the per-rank slots: at the start of
  /// an independent run, and before a retry that replays from superstep 0
  /// (latest_complete() < 0). A retry that resumes must NOT call this — the
  /// surviving checkpoints are precisely what recovery restores.
  void reset(int nprocs);

  /// Snapshots `st` at the current superstep cut: registered regions, the
  /// save callback's bytes, the delivered inbox, sequence counters, the open
  /// superstep's record, and the trace so far (by appending the records
  /// closed since the rank's previous checkpoint to its committed trace,
  /// which must be a prefix of st.trace — true after reset() or restore()).
  /// Accrues st.step.checkpoint_bytes / checkpoint_us (charged to the
  /// superstep being opened). Called by st's own worker thread.
  void checkpoint(detail::WorkerState& st);

  /// Highest superstep for which every rank holds a checkpoint, or -1 when
  /// some rank has none (recovery must replay from the start).
  [[nodiscard]] std::int64_t latest_complete() const;

  /// Restores the counters, records, and inbox of `st` from rank st.pid's
  /// checkpoint at `step` (which must exist — see latest_complete()). The
  /// rank's committed trace is cut back to that checkpoint and any newer
  /// slot of the rank is invalidated: it describes a future the resumed
  /// attempt will re-run, and its trace records are gone. The next
  /// checkpoint overwrites the other slot, so the restored one survives it.
  /// Inbox views point into the checkpoint's own arena; they remain valid
  /// until two further checkpoints rotate the slot away, long after the
  /// first post-resume boundary replaces them with transport-owned views.
  /// Accrues st.step.restore_us.
  void restore(detail::WorkerState& st, std::uint64_t step);

  /// Copies the `index`-th registered region snapshot of rank `pid` at
  /// `step` into `base`. Called at re-registration time during a resumed
  /// prologue; throws std::logic_error when the program registers regions
  /// in a different order or size than the checkpointed run.
  void restore_region(int pid, std::uint64_t step, std::size_t index,
                      std::byte* base, std::size_t bytes) const;

  /// The save callback's bytes for rank `pid` at `step` (empty when the
  /// program registered no save callback).
  [[nodiscard]] const std::vector<std::byte>& user_state(
      int pid, std::uint64_t step) const;

 private:
  /// One per-rank checkpoint. The inbox arena is pool-backed so rotation
  /// recycles slabs instead of reallocating.
  struct Slot {
    bool valid = false;
    std::uint64_t superstep = 0;
    std::vector<std::uint32_t> seq_to;
    WorkerStepRecord step;  // the open superstep's record at the cut
    std::size_t trace_len = 0;  // committed_ records closed before the cut
    MessageArena inbox;
    std::size_t inbox_cursor = 0;
    std::vector<std::byte> user_state;
    std::vector<std::vector<std::byte>> regions;
  };

  [[nodiscard]] const Slot* find(int pid, std::uint64_t step) const;

  SlabPool* pool_;
  /// slots_[pid] = the rank's two rotating checkpoints; next_[pid] = which
  /// one the next checkpoint() overwrites.
  std::vector<std::vector<Slot>> slots_;
  std::vector<std::uint8_t> next_;
  /// committed_[pid] = the rank's trace up to its newest checkpoint; each
  /// valid slot's trace is its first trace_len records.
  std::vector<std::vector<WorkerStepRecord>> committed_;
};

}  // namespace gbsp
