// Ablation of the message-delivery transport: the paper's Appendix B.1
// eager scheme (shared alternating input buffers with chunk-granularity
// locking — "when a process acquires a lock it allocates enough space for
// 1000 packets, so the locking cost is small per packet") versus the
// lock-free deferred exchange, across chunk sizes — and versus the Appendix
// B.3 socket transport, which pays real syscalls and wire framing for the
// same h-relation.
//
//   --transport all|deferred|eager|socket   restrict the rows
//   --transport tcp|shm                     cross-process rows; must run
//                                           under bsp_launch (rank env, with
//                                           the matching --transport), and
//                                           is deliberately NOT part of
//                                           "all" — the in-process rows
//                                           would measure nothing useful
//                                           inside every rank. Only rank 0
//                                           prints and writes --json.
//   --sizes 16,4096,65536                   payload-size sweep (bytes);
//                                           message count scales as 16/size
//                                           to keep traffic volume comparable
//   --reps N                                median of N runs per row
//   --json PATH                             machine-readable results
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "core/runtime.hpp"
#include "core/transport.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

// Messaging-heavy program: every superstep, each worker scatters `msgs`
// `size`-byte packets round-robin over the other workers.
std::function<void(gbsp::Worker&)> traffic(int steps, int msgs, int size) {
  return [steps, msgs, size](gbsp::Worker& w) {
    const int p = w.nprocs();
    std::vector<char> pkt(static_cast<std::size_t>(size),
                          static_cast<char>(w.pid()));
    for (int s = 0; s < steps; ++s) {
      if (p > 1) {
        for (int k = 0; k < msgs; ++k) {
          int d = (w.pid() + 1 + k % (p - 1)) % p;
          w.send_bytes(d, pkt.data(), pkt.size());
        }
      }
      w.sync();
      std::size_t got = 0;
      while (w.get_message() != nullptr) ++got;
      if (p > 1 && got != static_cast<std::size_t>(msgs)) {
        throw std::logic_error("delivery ablation: lost messages");
      }
    }
  };
}

struct Row {
  std::string label;
  std::string transport;
  int payload_bytes = 0;
  double us_per_superstep = 0.0;
  double msgs_per_s = 0.0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_syscalls = 0;
  std::uint64_t wire_zc_bytes = 0;
  double syscalls_per_stage = 0.0;
};

// Runs the traffic program `reps` times and returns the median wall time
// per superstep (median damps scheduler noise better than the mean).
Row measure(const gbsp::Config& cfg, const std::string& label, int steps,
            int msgs, int size, int reps) {
  gbsp::Runtime rt(cfg);
  std::vector<double> us;
  std::uint64_t wire = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t zc = 0;
  us.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    gbsp::WallTimer timer;
    gbsp::RunStats stats = rt.run(traffic(steps, msgs, size));
    us.push_back(timer.elapsed_us() / steps);
    wire = stats.total_wire_bytes();
    syscalls = stats.total_wire_syscalls();
    zc = stats.total_wire_zc_bytes();
  }
  std::sort(us.begin(), us.end());
  Row row;
  row.label = label;
  row.transport = gbsp::to_string(cfg.delivery);
  row.payload_bytes = size;
  row.us_per_superstep = us[us.size() / 2];
  // Every superstep moves msgs messages per worker (p > 1).
  const double total_msgs =
      static_cast<double>(msgs) * (cfg.nprocs > 1 ? cfg.nprocs : 1);
  row.msgs_per_s = total_msgs / (row.us_per_superstep * 1e-6);
  row.wire_bytes = wire;
  row.wire_syscalls = syscalls;
  row.wire_zc_bytes = zc;
  // The total exchange runs p*(p-1) worker-stages per boundary
  // (each worker sends one stage and drains one stage per peer).
  const double stages = static_cast<double>(steps) * cfg.nprocs *
                        (cfg.nprocs > 1 ? cfg.nprocs - 1 : 1);
  row.syscalls_per_stage = static_cast<double>(syscalls) / stages;
  return row;
}

std::vector<int> parse_sizes(const std::string& spec) {
  std::vector<int> sizes;
  std::stringstream ss(spec);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    const int v = std::stoi(tok);
    if (v < 1) throw std::invalid_argument("--sizes entries must be >= 1");
    sizes.push_back(v);
  }
  if (sizes.empty()) sizes.push_back(16);
  return sizes;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gbsp;
  CliArgs args(argc, argv);
  const int steps = static_cast<int>(args.get_int("steps", 300));
  const int msgs = static_cast<int>(args.get_int("msgs", 2000));
  const int np = static_cast<int>(args.get_int("procs", 4));
  const int reps = static_cast<int>(args.get_int("reps", 1));
  const std::string which = args.get_string("transport", "all");
  const std::string json_path = args.get_string("json", "");
  const std::vector<int> sizes = parse_sizes(args.get_string("sizes", "16"));
  const auto want = [&](const char* t) {
    return which == "all" || which == t;
  };

  const bool proc_mode = which == "tcp" || which == "shm";
  Config tcp_base;  // rank identity from bsp_launch when --transport tcp|shm
  if (proc_mode &&
      (!configure_proc_from_env(tcp_base) ||
       to_string(tcp_base.delivery) != which)) {
    std::cerr << "--transport " << which
              << " needs the matching bsp_launch rank environment; run "
                 "e.g.\n  bsp_launch -p 4 --transport " << which << " -- "
              << argv[0] << " --transport " << which << "\n";
    return 1;
  }
  const bool chatty = !proc_mode || tcp_base.rank == 0;
  const int run_np = proc_mode ? tcp_base.nprocs : np;

  if (chatty) {
    std::cout << "== delivery ablation: " << msgs
              << " packets/worker/superstep at 16 B (count scales with "
                 "payload size), p="
              << run_np << ", median of " << reps
              << " rep(s), wall-clock us per superstep ==\n";
  }

  std::vector<Row> rows;
  for (const int size : sizes) {
    // Keep the traffic volume roughly constant across the sweep: fewer,
    // larger messages as the payload grows.
    const int m = std::max(1, static_cast<int>(
                                  static_cast<std::int64_t>(msgs) * 16 / size));
    const std::string suffix =
        sizes.size() > 1 ? ", " + std::to_string(size) + " B" : "";
    if (want("deferred")) {
      Config cfg;
      cfg.nprocs = np;
      cfg.delivery = DeliveryStrategy::Deferred;
      rows.push_back(measure(cfg, "deferred (lock-free exchange)" + suffix,
                             steps, m, size, reps));
    }
    if (want("eager")) {
      for (std::size_t chunk : {1u, 10u, 100u, 1000u}) {
        Config cfg;
        cfg.nprocs = np;
        cfg.delivery = DeliveryStrategy::Eager;
        cfg.eager_chunk_messages = chunk;
        rows.push_back(measure(
            cfg, "eager, chunk " + std::to_string(chunk) + suffix, steps, m,
            size, reps));
      }
    }
    if (want("socket")) {
      Config cfg;
      cfg.nprocs = np;
      cfg.delivery = DeliveryStrategy::Socket;
      rows.push_back(measure(cfg, "socket (all-pairs total exchange)" + suffix,
                             steps, m, size, reps));
    }
    if (proc_mode) {
      // Every rank runs the same measurement in lockstep; rank 0's wall
      // clock is the row (the boundary barrier keeps all ranks within one
      // exchange of each other).
      const std::string label =
          which == "shm" ? "shm (zero-syscall shared memory)" + suffix
                         : "tcp (cross-process loopback)" + suffix;
      rows.push_back(measure(tcp_base, label, steps, m, size, reps));
    }
  }

  if (!chatty) return 0;  // non-zero proc ranks: measure, stay silent

  TextTable t({"strategy", "payload B", "us/superstep", "msgs/s",
               "wire bytes/run", "syscalls/stage"});
  for (const Row& r : rows) {
    t.row()
        .add(r.label)
        .add(static_cast<std::int64_t>(r.payload_bytes))
        .add(r.us_per_superstep, 1)
        .add(r.msgs_per_s, 0)
        .add(static_cast<std::int64_t>(r.wire_bytes))
        .add(r.syscalls_per_stage, 2);
  }
  t.render(std::cout);
  std::cout << "\nexpected shape: eager with tiny chunks pays a lock per "
               "flush; chunk ~1000 approaches deferred, reproducing the "
               "paper's rationale for chunked allocation. The socket "
               "transport pays syscalls and wire framing for the same "
               "h-relation — the price of the PC-LAN realisation; its "
               "sectioned wire format keeps syscalls/stage flat as the "
               "message count grows.\n";

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n  \"bench\": \"ablation_delivery\",\n"
       << "  \"nprocs\": " << np << ", \"steps\": " << steps
       << ", \"msgs_per_proc_per_step\": " << msgs << ", \"reps\": " << reps
       << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      os << "    {\"label\": \"" << r.label << "\", \"transport\": \""
         << r.transport << "\", \"payload_bytes\": " << r.payload_bytes
         << ", \"median_us_per_superstep\": " << r.us_per_superstep
         << ", \"msgs_per_s\": " << static_cast<std::uint64_t>(r.msgs_per_s)
         << ", \"wire_bytes_per_run\": " << r.wire_bytes
         << ", \"wire_syscalls_per_run\": " << r.wire_syscalls
         << ", \"wire_zc_bytes_per_run\": " << r.wire_zc_bytes
         << ", \"syscalls_per_stage\": " << r.syscalls_per_stage << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    if (!os.good()) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
  }
  return 0;
}
