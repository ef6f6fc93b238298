// Non-template half of the collectives layer: the shared inbox-contract
// diagnostic and the rooted-collective schedule selector (cost model +
// measured per-transport g/L defaults). See collectives.hpp and DESIGN.md
// section 13.
#include "core/collectives.hpp"

namespace gbsp {

namespace detail {

void require_clean_inbox(Worker& w, const char* what) {
  if (const std::size_t n = w.pending(); n != 0) {
    throw std::logic_error(std::string("gbsp ") + what +
                           ": inbox not drained on entry on rank " +
                           std::to_string(w.pid()) + " (" + std::to_string(n) +
                           " message" + (n == 1 ? "" : "s") + " pending)");
  }
}

void require_sliceable(std::size_t elems, int p) {
  if (elems / static_cast<std::size_t>(p) + 1 > std::size_t{0xffffffff}) {
    throw std::invalid_argument(
        "alltoallv: block slice exceeds 32-bit segment framing");
  }
}

CollectiveAlgorithm choose_rooted_algorithm(const Config& cfg, int p,
                                            std::size_t bytes) {
  switch (cfg.collective_schedule) {
    case CollectiveSchedule::Direct:
      return CollectiveAlgorithm::Direct;
    case CollectiveSchedule::Tree:
      return CollectiveAlgorithm::Tree;
    case CollectiveSchedule::Auto:
    case CollectiveSchedule::TwoPhase:  // not a rooted schedule: defer to cost
      break;
  }
  const double g_us = cfg.collective_g_us > 0.0
                          ? cfg.collective_g_us
                          : default_collective_g_us(cfg.delivery, cfg.nprocs);
  const double l_us = cfg.collective_l_us > 0.0
                          ? cfg.collective_l_us
                          : default_collective_l_us(cfg.delivery, cfg.nprocs);
  const ScheduleChoice c =
      evaluate_rooted_schedule(p, bytes, g_us, l_us, cfg.packet_unit_bytes);
  return c.schedule == CollectiveSchedule::Tree ? CollectiveAlgorithm::Tree
                                                : CollectiveAlgorithm::Direct;
}

}  // namespace detail

// Linear fits of the bsp_probe measurements in BENCH_transport.json, taken
// on a host with one hardware thread when the mesh transports still ran
// the exchange one stage at a time; they now post every stage at once
// (core/exchange_engine.hpp), which lowered socket L (EXPERIMENTS.md).
// These tables now price only the rooted collectives (Direct vs Tree);
// refitting them waits on a g/L probe that can resolve a 20% change
// (ROADMAP). Socket g and L both grow with p — more peers contend for the
// same cores — so the defaults scale with nprocs; the in-memory transports
// are flat within the measured band.
double default_collective_g_us(DeliveryStrategy d, int nprocs) {
  const double p = nprocs < 1 ? 1.0 : static_cast<double>(nprocs);
  switch (d) {
    case DeliveryStrategy::Socket:
      return 0.12 * p;  // p=2: 0.24, p=4: 0.48 (measured 0.242 / 0.528)
    case DeliveryStrategy::Tcp:
      // Loopback TCP between processes: same exchange as Socket
      // with the inet stack's extra per-byte cost; measured 0.136us at
      // p=2, 0.336us at p=4 (BENCH_tcp.json).
      return 0.08 * p;
    case DeliveryStrategy::Shm:
      // Cross-process shared-memory rings: the exchange's per-byte
      // cost is one memcpy each way, no kernel; measured 0.13us at p=2,
      // 0.31us at p=4 (BENCH_shm.json).
      return 0.07 * p;
    case DeliveryStrategy::Eager:
      return 0.10;
    case DeliveryStrategy::Deferred:
      break;
  }
  return 0.07;
}

double default_collective_l_us(DeliveryStrategy d, int nprocs) {
  const double p = nprocs < 1 ? 1.0 : static_cast<double>(nprocs);
  switch (d) {
    case DeliveryStrategy::Socket:
      // Fitted to the stage-at-a-time boundary of (p-1) rounds; measured
      // 11.5us at p=2, 51.5us at p=4.
      return 13.0 * (p > 1.0 ? p - 1.0 : 1.0);
    case DeliveryStrategy::Tcp:
      // Cross-process loopback boundary, fitted to the stage-at-a-time
      // rounds plus scheduler wake-ups between processes; measured 21.8us
      // at p=2, 74.4us at p=4 (BENCH_tcp.json).
      return 24.0 * (p > 1.0 ? p - 1.0 : 1.0);
    case DeliveryStrategy::Shm:
      // Stage rounds met spin-then-yield waits instead of poll wake-ups,
      // so the boundary undercuts both socket transports; measured 8us at
      // p=2, 27us at p=4 (BENCH_shm.json).
      return 9.0 * (p > 1.0 ? p - 1.0 : 1.0);
    case DeliveryStrategy::Eager:
      return 25.0;
    case DeliveryStrategy::Deferred:
      break;
  }
  return 20.0;
}

ScheduleChoice evaluate_rooted_schedule(int p, std::size_t bytes, double g_us,
                                        double l_us, std::size_t packet_unit) {
  ScheduleChoice c;
  if (p <= 1) {
    c.schedule = CollectiveSchedule::Direct;
    c.direct_us = 0.0;
    c.tree_us = 0.0;
    return c;
  }
  const double m = static_cast<double>(packets_for_bytes(bytes, packet_unit));
  int rounds = 0;
  for (int reach = 1; reach < p; reach *= 2) ++rounds;
  c.direct_us = l_us + g_us * m * static_cast<double>(p - 1);
  c.tree_us = static_cast<double>(rounds) * (l_us + g_us * m);
  // Ties go to Direct: fewer supersteps is the simpler schedule.
  c.schedule = c.tree_us < c.direct_us ? CollectiveSchedule::Tree
                                       : CollectiveSchedule::Direct;
  return c;
}

}  // namespace gbsp
