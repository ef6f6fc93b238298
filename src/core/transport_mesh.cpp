#include "core/transport_mesh.hpp"

#include <cerrno>

namespace gbsp {

void MeshTransport::reset_run(
    const std::vector<std::unique_ptr<detail::WorkerState>>& states) {
  if (!mesh_->dirty() && states.size() == eng_.size()) {
    // When this process hosts every rank, a clean run ends with every
    // stream drained: nobody sends after the last boundary. Bytes still in
    // a receive buffer are then an undrained stream, and the mesh is
    // rebuilt rather than the bytes dropped. (A process-mode rank keeps
    // them: they are its peer's first stage of the next run, sent early.)
    for (const auto& e : eng_) {
      if (e->has_buffered_bytes()) mesh_->mark_dirty();
    }
  }
  if (!mesh_->dirty() && !eng_.empty()) {
    // Every previous exchange completed cleanly (and on shm the zero-copy
    // epoch persists with the mapping): the mesh is reused as-is. Only the
    // arenas reset (slabs go back to the pool for the new run to
    // reacquire).
    for (auto& e : eng_) {
      if (e != nullptr) e->reset_for_reuse();
    }
    return;
  }
  // First run, or a run that unwound mid-stage: an aborted exchange may
  // leave half-written stage data in kernel buffers or rings, which must not
  // leak into the next run. Rebuild the mesh from scratch.
  const int p = cfg_.nprocs;
  mesh_->build(p);
  eng_.clear();
  eng_.resize(static_cast<std::size_t>(p));
  for (const auto& st : states) {
    auto& e = eng_[static_cast<std::size_t>(st->pid)];
    e = std::make_unique<detail::ExchangeEngine>(cfg_, *pool_, *mesh_, abort_,
                                                 &fault_);
    e->attach(st->pid, p);
  }
}

std::byte* MeshTransport::stage_reserve(detail::WorkerState& st, int dest,
                                        std::size_t n) {
  return engine_of(st.pid).reserve(st, dest, n);
}

void MeshTransport::publish(detail::WorkerState& dst) {
  detail::ExchangeEngine& e = engine_of(dst.pid);
  dst.inbox.reserve(e.inbox_arena().message_count());
  std::uint64_t recv_packets = 0;
  append_views(dst, e.inbox_arena(), recv_packets);
  // Zero-copy shm frames arrived as 16-byte slab descriptors; swap their
  // views (and their packet accounting) onto the shared mapping before the
  // deterministic sort fixes the inbox order. A no-op for boundaries that
  // carried no descriptors.
  e.apply_zc_views(dst, recv_packets);
  finish_delivery(dst, recv_packets, cfg_.deterministic_delivery);
}

void MeshTransport::begin_exchange(detail::WorkerState& st) {
  try {
    inject_boundary_fault(FaultSite::Deliver, st);
    engine_of(st.pid).begin_window(st);
  } catch (...) {
    // Unwinding mid-stage strands half-written stage bytes in kernel
    // buffers or rings; the mesh must be rebuilt before the next run.
    mesh_->mark_dirty();
    throw;
  }
}

void MeshTransport::deliver_to(detail::WorkerState& dst) {
  detail::ExchangeEngine& e = engine_of(dst.pid);
  // A rigid boundary opens its window here; a split one opened it at
  // sync_begin.
  if (!e.window_active()) begin_exchange(dst);
  try {
    e.finish_window(dst);
  } catch (...) {
    mesh_->mark_dirty();
    throw;
  }
  publish(dst);
}

bool MeshTransport::progress(detail::WorkerState& st) {
  detail::ExchangeEngine& e = engine_of(st.pid);
  if (!e.window_active()) return false;
  if (e.window_done()) return true;
  try {
    e.pump_window(st);
    return e.window_done();
  } catch (...) {
    mesh_->mark_dirty();
    throw;
  }
}

void MeshTransport::exchange(
    const std::vector<std::unique_ptr<detail::WorkerState>>& states) {
  const int p = static_cast<int>(states.size());
  if (p == 1) {
    if (!states[0]->finished) deliver_to(*states[0]);
    return;
  }
  // Single-threaded driver: one thread advances every worker's exchange
  // window a round at a time, so the same wire protocol runs under the
  // Serialized scheduler. Finished workers still participate — their peers
  // expect a (possibly empty) stage from them on the shared stream.
  try {
    for (int i = 0; i < p; ++i) {
      begin_exchange(*states[static_cast<std::size_t>(i)]);
    }
    wait_.progressed();
    for (;;) {
      bool all_done = true;
      std::size_t moved = 0;
      for (int i = 0; i < p; ++i) {
        detail::ExchangeEngine& e = engine_of(i);
        if (e.window_done()) continue;
        moved += e.pump_window(*states[static_cast<std::size_t>(i)]);
        all_done = all_done && e.window_done();
      }
      if (all_done) break;
      if (moved != 0) {
        wait_.progressed();
        continue;
      }
      if (wait_.timed_out()) {
        throw BspTransportError(
            "serialized staged exchange made no progress for " +
                std::to_string(cfg_.socket_stage_timeout_ms) + " ms",
            /*rank=*/-1, /*peer=*/-1,
            static_cast<std::int64_t>(states[0]->superstep), /*stage=*/-1,
            /*err=*/0, /*bytes_moved=*/0);
      }
      // Every window is blocked (kernel buffers momentarily full on one
      // side, empty on the other): the engines' one idle wait, over every
      // engine's pending channels. On a single thread the spin's yield is a
      // no-op and the spin just retries the round.
      wait_.clear();
      for (int i = 0; i < p; ++i) {
        engine_of(i).add_waits(wait_, *states[static_cast<std::size_t>(i)]);
      }
      if (wait_.spin()) continue;
      if (!wait_.nap()) {
        throw BspTransportError(
            "poll in serialized staged exchange failed", /*rank=*/-1,
            /*peer=*/-1, static_cast<std::int64_t>(states[0]->superstep),
            /*stage=*/-1, errno, /*bytes_moved=*/0);
      }
    }
    // Every window is done; finish_window only closes it.
    for (int i = 0; i < p; ++i) {
      engine_of(i).finish_window(*states[static_cast<std::size_t>(i)]);
    }
  } catch (...) {
    mesh_->mark_dirty();
    throw;
  }
  for (const auto& st : states) publish(*st);
}

bool MeshTransport::has_unflushed(const detail::WorkerState& st) const {
  const auto i = static_cast<std::size_t>(st.pid);
  return i < eng_.size() && eng_[i] != nullptr && eng_[i]->has_unflushed();
}

}  // namespace gbsp
