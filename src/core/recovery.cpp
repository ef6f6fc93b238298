#include "core/recovery.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "util/timer.hpp"

namespace gbsp {

void RecoveryManager::reset(int nprocs) {
  // Slot arenas release their slabs into the pool here; the next run's
  // checkpoints reacquire them.
  slots_.clear();
  slots_.resize(static_cast<std::size_t>(nprocs));
  for (auto& per_rank : slots_) {
    per_rank.resize(2);
    for (Slot& s : per_rank) s.inbox.bind(pool_);
  }
  next_.assign(static_cast<std::size_t>(nprocs), 0);
  committed_.clear();
  committed_.resize(static_cast<std::size_t>(nprocs));
}

void RecoveryManager::checkpoint(detail::WorkerState& st) {
  WallTimer timer;
  const std::size_t pid = static_cast<std::size_t>(st.pid);
  Slot& slot = slots_[pid][next_[pid]];
  next_[pid] ^= 1;

  slot.superstep = st.superstep;
  slot.seq_to = st.seq_to;
  std::vector<WorkerStepRecord>& committed = committed_[pid];
  committed.insert(committed.end(),
                   st.trace.begin() +
                       static_cast<std::ptrdiff_t>(committed.size()),
                   st.trace.end());
  slot.trace_len = committed.size();
  slot.inbox_cursor = st.inbox_cursor;

  // Copy the delivered inbox out of the transport's arenas: the transport
  // recycles those at the next boundary, but the checkpoint must outlive it.
  slot.inbox.clear();
  std::uint64_t bytes = 0;
  for (const Message& m : st.inbox) {
    std::byte* dst = slot.inbox.append(m.source, m.seq, m.payload.size());
    if (!m.payload.empty()) {
      std::memcpy(dst, m.payload.data(), m.payload.size());
    }
    bytes += m.payload.size();
  }

  slot.user_state.clear();
  if (st.ckpt_save) {
    st.ckpt_save(slot.user_state);
    bytes += slot.user_state.size();
  }

  slot.regions.resize(st.ckpt_regions.size());
  for (std::size_t i = 0; i < st.ckpt_regions.size(); ++i) {
    const auto& r = st.ckpt_regions[i];
    slot.regions[i].assign(r.base, r.base + r.bytes);
    bytes += r.bytes;
  }

  st.step.checkpoint_bytes += bytes;
  st.step.checkpoint_us += timer.elapsed_s() * 1e6;
  // Copied last, so a superstep resumed from this cut is charged the
  // checkpoint that opened it, as in a run that never failed.
  slot.step = st.step;
  slot.valid = true;
}

std::int64_t RecoveryManager::latest_complete() const {
  // Every rank checkpoints on the same superstep schedule, so the newest
  // checkpoint present on ALL ranks is min over ranks of each rank's newest.
  // It remains to verify each rank actually holds that exact superstep (the
  // min-holder trivially does; the others hold it in cur or prev).
  std::int64_t candidate = -1;
  for (const auto& per_rank : slots_) {
    std::int64_t newest = -1;
    for (const Slot& s : per_rank) {
      if (s.valid) {
        newest = std::max(newest, static_cast<std::int64_t>(s.superstep));
      }
    }
    if (newest < 0) return -1;
    candidate = candidate < 0 ? newest : std::min(candidate, newest);
  }
  if (candidate < 0) return -1;
  for (std::size_t pid = 0; pid < slots_.size(); ++pid) {
    if (find(static_cast<int>(pid),
             static_cast<std::uint64_t>(candidate)) == nullptr) {
      return -1;
    }
  }
  return candidate;
}

const RecoveryManager::Slot* RecoveryManager::find(int pid,
                                                   std::uint64_t step) const {
  for (const Slot& s : slots_[static_cast<std::size_t>(pid)]) {
    if (s.valid && s.superstep == step) return &s;
  }
  return nullptr;
}

void RecoveryManager::restore(detail::WorkerState& st, std::uint64_t step) {
  WallTimer timer;
  const std::size_t pid = static_cast<std::size_t>(st.pid);
  const Slot* slot = find(st.pid, step);
  std::vector<WorkerStepRecord>& committed = committed_[pid];
  if (slot == nullptr || slot->trace_len > committed.size()) {
    throw std::logic_error("gbsp recovery: rank " + std::to_string(st.pid) +
                           " has no checkpoint at superstep " +
                           std::to_string(step));
  }
  std::vector<Slot>& per_rank = slots_[pid];
  for (Slot& s : per_rank) {
    if (s.valid && s.superstep > step) s.valid = false;
  }
  next_[pid] = slot == &per_rank[0] ? 1 : 0;
  st.superstep = slot->superstep;
  st.seq_to = slot->seq_to;
  st.step = slot->step;
  committed.resize(slot->trace_len);
  st.trace.assign(committed.begin(), committed.end());

  st.inbox.clear();
  st.inbox.reserve(slot->inbox.message_count());
  slot->inbox.for_each_frame([&](const MessageArena::Frame& f) {
    Message m;
    m.source = f.source;
    m.seq = f.seq;
    m.payload = ByteView{f.payload(), static_cast<std::size_t>(f.len)};
    st.inbox.push_back(m);
  });
  st.inbox_cursor = slot->inbox_cursor;

  st.step.restore_us += timer.elapsed_s() * 1e6;
}

void RecoveryManager::restore_region(int pid, std::uint64_t step,
                                     std::size_t index, std::byte* base,
                                     std::size_t bytes) const {
  const Slot* slot = find(pid, step);
  if (slot == nullptr || index >= slot->regions.size() ||
      slot->regions[index].size() != bytes) {
    throw std::logic_error(
        "gbsp recovery: rank " + std::to_string(pid) +
        " re-registered checkpoint region " + std::to_string(index) + " (" +
        std::to_string(bytes) +
        " bytes) that does not match the checkpointed registration order — "
        "resume-aware programs must register the same regions in the same "
        "order on every attempt");
  }
  if (bytes != 0) std::memcpy(base, slot->regions[index].data(), bytes);
}

const std::vector<std::byte>& RecoveryManager::user_state(
    int pid, std::uint64_t step) const {
  const Slot* slot = find(pid, step);
  if (slot == nullptr) {
    throw std::logic_error("gbsp recovery: rank " + std::to_string(pid) +
                           " has no checkpoint at superstep " +
                           std::to_string(step));
  }
  return slot->user_state;
}

}  // namespace gbsp
