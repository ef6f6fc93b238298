#include "core/transport_mesh.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "core/barrier.hpp"  // BspAborted

namespace gbsp {

void MeshTransport::reset_run(
    const std::vector<std::unique_ptr<detail::WorkerState>>& states) {
  if (!mesh_->dirty() && !eng_.empty()) {
    // Every previous exchange completed cleanly, so every stream is drained
    // (and on shm the zero-copy epoch persists with the mapping): the mesh
    // carries no state and is reused as-is. Only the arenas reset (slabs go
    // back to the pool for the new run to reacquire).
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

void MeshTransport::stage_send(detail::WorkerState& st, int dest,
                               const void* data, std::size_t n) {
  std::byte* slot = stage_reserve(st, dest, n);
  if (n != 0) std::memcpy(slot, data, n);
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

void MeshTransport::deliver_to(detail::WorkerState& dst) {
  detail::ExchangeEngine& e = engine_of(dst.pid);
  try {
    inject_boundary_fault(FaultSite::Deliver, dst);
    e.run_all_stages(dst);
  } catch (...) {
    // Unwinding mid-stage strands half-written stage bytes in kernel
    // buffers or rings; the mesh must be rebuilt before the next run.
    mesh_->mark_dirty();
    throw;
  }
  publish(dst);
}

void MeshTransport::begin_exchange(detail::WorkerState& st) {
  detail::ExchangeEngine& e = engine_of(st.pid);
  try {
    // Same fault-hook sequence as the rigid path: the sender-side Flush hook
    // (this transport's flush() is hook-only), then the Deliver hook at the
    // top of boundary delivery.
    inject_boundary_fault(FaultSite::Flush, st);
    inject_boundary_fault(FaultSite::Deliver, st);
    e.begin_window(st);
  } catch (...) {
    mesh_->mark_dirty();
    throw;
  }
}

bool MeshTransport::progress(detail::WorkerState& st) {
  detail::ExchangeEngine& e = engine_of(st.pid);
  if (!e.window_active()) return false;
  if (e.window_done()) return true;
  try {
    return e.pump_window(st);
  } catch (...) {
    mesh_->mark_dirty();
    throw;
  }
}

void MeshTransport::finish_exchange(detail::WorkerState& st) {
  detail::ExchangeEngine& e = engine_of(st.pid);
  if (!e.window_active()) {
    // No window in flight (a rigid boundary routed through the default
    // contract): behave exactly like deliver_to.
    deliver_to(st);
    return;
  }
  try {
    e.finish_window(st);
  } catch (...) {
    mesh_->mark_dirty();
    throw;
  }
  publish(st);
}

void MeshTransport::exchange(
    const std::vector<std::unique_ptr<detail::WorkerState>>& states) {
  using Clock = std::chrono::steady_clock;
  const int p = static_cast<int>(states.size());
  if (p == 1) {
    if (!states[0]->finished) deliver_to(*states[0]);
    return;
  }
  // Single-threaded driver: one thread advances every worker's staged
  // exchange, so the same wire protocol runs under the Serialized scheduler.
  // Finished workers still participate — their peers' schedule expects a
  // (possibly empty) stage from them on the shared stream.
  struct Task {
    detail::WorkerState* st = nullptr;
    detail::ExchangeEngine::StageState ss;
    bool done = false;
  };
  std::vector<Task> tasks(static_cast<std::size_t>(p));
  try {
    for (int i = 0; i < p; ++i) {
      Task& t = tasks[static_cast<std::size_t>(i)];
      t.st = states[static_cast<std::size_t>(i)].get();
      inject_boundary_fault(FaultSite::Deliver, *t.st);
      engine_of(i).open_boundary(*t.st);
      engine_of(i).begin_stage(t.ss, 1);
    }
    int done_count = 0;
    auto last_progress = Clock::now();
    std::size_t backoff_ms = cfg_.socket_backoff_initial_ms;
    while (done_count < p) {
      bool progressed = false;
      for (int i = 0; i < p; ++i) {
        Task& t = tasks[static_cast<std::size_t>(i)];
        if (t.done) continue;
        detail::ExchangeEngine& e = engine_of(i);
        std::size_t moved = 0;
        if (!t.ss.send_done) moved += e.pump_send(*t.st, t.ss);
        if (!t.ss.recv_done) moved += e.pump_recv(*t.st, t.ss);
        if (t.ss.send_done && t.ss.recv_done) {
          if (t.ss.k + 1 < p) {
            e.begin_stage(t.ss, t.ss.k + 1);
          } else {
            t.done = true;
            ++done_count;
          }
          progressed = true;
        }
        progressed = progressed || moved != 0;
      }
      if (progressed) {
        last_progress = Clock::now();
        backoff_ms = cfg_.socket_backoff_initial_ms;
        continue;
      }
      if (abort_ != nullptr && abort_->load(std::memory_order_acquire)) {
        throw BspAborted{};
      }
      const auto idle = Clock::now() - last_progress;
      if (idle > std::chrono::milliseconds(cfg_.socket_stage_timeout_ms)) {
        throw BspTransportError(
            "serialized staged exchange made no progress for " +
                std::to_string(cfg_.socket_stage_timeout_ms) + " ms",
            /*rank=*/-1, /*peer=*/-1,
            static_cast<std::int64_t>(states[0]->superstep), /*stage=*/-1,
            /*err=*/0, /*bytes_moved=*/0);
      }
      // Same adaptive spin as the threaded driver; on a single thread the
      // yield is a no-op and the spin just retries the pump round.
      if (idle < std::chrono::microseconds(cfg_.socket_spin_us)) {
        std::this_thread::yield();
        continue;
      }
      // All tasks hit EAGAIN in both directions (kernel buffers momentarily
      // full on one side, empty on the other): wait for any endpoint.
      std::vector<struct pollfd> fds;
      fds.reserve(static_cast<std::size_t>(2 * p));
      for (int i = 0; i < p; ++i) {
        const Task& t = tasks[static_cast<std::size_t>(i)];
        if (t.done) continue;
        detail::ExchangeEngine& e = engine_of(i);
        if (!t.ss.send_done) {
          fds.push_back({mesh_->fd(i, e.send_peer(t.ss)), POLLOUT, 0});
        }
        if (!t.ss.recv_done) {
          fds.push_back({mesh_->fd(i, e.recv_peer(t.ss)), POLLIN, 0});
        }
      }
      if (::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                 static_cast<int>(backoff_ms)) < 0 &&
          errno != EINTR) {
        throw BspTransportError(
            "poll in serialized staged exchange failed", /*rank=*/-1,
            /*peer=*/-1, static_cast<std::int64_t>(states[0]->superstep),
            /*stage=*/-1, errno, /*bytes_moved=*/0);
      }
      backoff_ms = std::min(backoff_ms * 2, cfg_.socket_backoff_max_ms);
    }
  } catch (...) {
    mesh_->mark_dirty();
    throw;
  }
  for (Task& t : tasks) publish(*t.st);
}

bool MeshTransport::has_unflushed(const detail::WorkerState& st) const {
  const auto i = static_cast<std::size_t>(st.pid);
  return i < eng_.size() && eng_[i] != nullptr && eng_[i]->has_unflushed();
}

}  // namespace gbsp
