// Per-superstep instrumentation: the quantities of the BSP cost function
//   T = W + gH + LS            (paper Equation 1)
// where W = sum_i w_i (w_i = max over processors of local computation in
// superstep i), H = sum_i h_i (h_i = max over processors of max(packets sent,
// packets received)), and S = number of supersteps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gbsp {

/// What one processor did during one superstep (recorded lock-free by each
/// worker into its own trace, merged after the run).
struct WorkerStepRecord {
  /// Local computation time: wall time between boundaries when every worker
  /// has its own hardware thread and scheduling is Parallel; this thread's
  /// CPU time under Serialized scheduling or when workers outnumber the
  /// host's hardware threads (see ThreadCpuTimer, util/timer.hpp).
  double work_us = 0.0;
  std::uint64_t sent_packets = 0;   ///< outgoing, in packet units
  /// Incoming packets, in packet units, charged to the superstep that READS
  /// them (they were delivered at its opening boundary) — the paper's
  /// convention, visible in its matmult H figures.
  std::uint64_t recv_packets = 0;
  std::uint64_t sent_bytes = 0;
  std::uint64_t sent_messages = 0;
  /// Messages read in this superstep (same charging rule as recv_packets).
  std::uint64_t recv_messages = 0;
  /// Bytes this worker actually pushed onto the wire (frames + headers +
  /// stage counts) at the boundary that opened this superstep — same charging
  /// rule as recv_packets. Zero for in-memory transports, which move arenas
  /// instead of bytes; the socket transport reports real socket writes here.
  std::uint64_t wire_bytes = 0;
  /// Data-moving syscalls (sendmsg/recv/readv) the transport issued for this
  /// worker at the boundary that opened this superstep — the software-path
  /// constant factor behind the wire bytes. Zero for in-memory transports.
  std::uint64_t wire_syscalls = 0;
  /// Payload bytes that crossed to this worker's peers zero-copy through a
  /// shared-memory slab at the boundary that opened this superstep (sender
  /// reservations plus receiver view fixups; disjoint from wire_bytes). Zero
  /// off the shm transport.
  std::uint64_t wire_zc_bytes = 0;
  /// Faults the injection harness (core/fault.hpp) fired on this worker's
  /// behalf during the boundary that opened this superstep. Zero unless a
  /// FaultPlan is installed.
  std::uint64_t injected_faults = 0;
  /// Checkpoint taken at the top of this superstep (core/recovery.hpp):
  /// bytes snapshotted and time spent. Zero unless Config::checkpoint_every
  /// selected this superstep.
  std::uint64_t checkpoint_bytes = 0;
  double checkpoint_us = 0.0;
  /// Time spent restoring this worker's state into this superstep after a
  /// recovery (charged to the superstep execution resumed at).
  double restore_us = 0.0;
  /// Duration of the split-phase window (Worker::sync_begin()..sync_end())
  /// at the boundary that opened this superstep — the compute the caller
  /// overlapped with the exchange. 0 when the boundary was a rigid sync().
  double overlap_us = 0.0;
  /// Wire bytes this worker moved *inside* that window (subset of
  /// wire_bytes): the traffic that genuinely overlapped compute. Zero for
  /// in-memory transports, whose default split-phase mapping defers all
  /// movement to sync_end.
  std::uint64_t overlap_wire_bytes = 0;
  /// Destination-indexed packet counts; empty unless
  /// Config::collect_comm_matrix is set.
  std::vector<std::uint64_t> sent_to_packets;
};

/// Aggregated view of one superstep across all processors.
struct SuperstepStats {
  double w_max_us = 0.0;    ///< w_i: max local computation over processors
  double w_total_us = 0.0;  ///< sum of local computation over processors
  std::uint64_t h_packets = 0;      ///< h_i: max over procs of max(sent, recv)
  std::uint64_t total_packets = 0;  ///< total packets sent by all processors
  std::uint64_t total_bytes = 0;
  std::uint64_t total_messages = 0;
  /// Message-count analogue of h_i (for message-level models such as LogP).
  std::uint64_t h_messages = 0;
  /// Max over processors of (messages sent + messages read): the busiest
  /// endpoint, which pays LogP's per-message overhead o on both ends.
  std::uint64_t endpoint_messages = 0;
  /// Total bytes written to real sockets for this superstep's exchange
  /// (0 for in-memory transports). Framing overhead included, so this is the
  /// wire analogue of gH rather than a payload count.
  std::uint64_t total_wire_bytes = 0;
  /// Total data-path syscalls issued for this superstep's exchange (0 for
  /// in-memory transports): the per-stage software overhead that the socket
  /// transport's sectioned wire format amortises.
  std::uint64_t total_wire_syscalls = 0;
  /// Total payload bytes that moved zero-copy through shared-memory slabs at
  /// this superstep's boundary (0 off the shm transport; disjoint from
  /// total_wire_bytes).
  std::uint64_t total_wire_zc_bytes = 0;
  /// Faults injected across all processors at this superstep's boundary.
  std::uint64_t total_injected_faults = 0;
  /// Checkpoint bytes snapshotted across all processors at the top of this
  /// superstep, and the max per-processor time spent doing it (the cut is
  /// synchronous, so the max is what the critical path pays).
  std::uint64_t total_checkpoint_bytes = 0;
  double checkpoint_max_us = 0.0;
  double restore_max_us = 0.0;
  /// Max over processors of the split-phase window that opened this
  /// superstep (0 when every worker crossed the boundary with rigid sync()):
  /// the compute time the critical path hid behind the exchange.
  double overlap_max_us = 0.0;
  /// Total wire bytes moved inside split-phase windows at this superstep's
  /// opening boundary (subset of total_wire_bytes).
  std::uint64_t total_overlap_wire_bytes = 0;
};

/// Full accounting for one BSP run.
struct RunStats {
  int nprocs = 0;
  double wall_s = 0.0;  ///< measured wall-clock time of the whole run
  /// Times Runtime::run() recovered from a transport failure (restored a
  /// checkpoint or replayed from the start) before completing. 0 on a clean
  /// run; the trace/superstep data describe the *successful* attempt.
  std::uint64_t recoveries = 0;
  std::vector<SuperstepStats> supersteps;
  /// Raw per-worker traces (worker-major), kept for emulation/analysis.
  std::vector<std::vector<WorkerStepRecord>> traces;

  [[nodiscard]] std::size_t S() const { return supersteps.size(); }

  /// W: the work depth in seconds (sum over supersteps of max work).
  [[nodiscard]] double W_s() const;

  /// Total work in seconds (sum over supersteps and processors); the paper's
  /// "Total Work" column, which excludes idle time from load imbalance.
  [[nodiscard]] double total_work_s() const;

  /// H: sum over supersteps of h_i, in packet units.
  [[nodiscard]] std::uint64_t H() const;

  /// Total packets sent over the whole run.
  [[nodiscard]] std::uint64_t total_packets() const;
  [[nodiscard]] std::uint64_t total_bytes() const;

  /// Total bytes on the wire over the whole run (0 unless the socket
  /// transport ran the exchanges).
  [[nodiscard]] std::uint64_t total_wire_bytes() const;

  /// Total data-path syscalls over the whole run (0 unless the socket
  /// transport ran the exchanges).
  [[nodiscard]] std::uint64_t total_wire_syscalls() const;

  /// Total zero-copy slab bytes over the whole run (0 unless the shm
  /// transport ran the exchanges).
  [[nodiscard]] std::uint64_t total_wire_zc_bytes() const;

  /// Total faults injected over the whole run (0 without a FaultPlan).
  [[nodiscard]] std::uint64_t total_injected_faults() const;

  /// Total bytes checkpointed over the whole run (0 unless
  /// Config::checkpoint_every is set).
  [[nodiscard]] std::uint64_t total_checkpoint_bytes() const;

  /// Critical-path compute hidden behind exchanges, in seconds: sum over
  /// supersteps of the max split-phase window (0 for all-rigid runs).
  [[nodiscard]] double overlap_s() const;

  /// Total wire bytes moved inside split-phase windows over the whole run.
  [[nodiscard]] std::uint64_t total_overlap_wire_bytes() const;

  /// Merges per-worker traces into per-superstep aggregates. Called by the
  /// runtime; public so emulation replays can re-aggregate.
  void aggregate_from_traces();

  /// One-line human-readable summary: "S=.. W=..s H=.. wall=..s".
  [[nodiscard]] std::string summary() const;
};

}  // namespace gbsp
