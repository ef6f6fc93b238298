// Ablation of the superstep barrier algorithm (paper Appendix B.1 uses
// spin-flag synchronization on the SGI). Measures the wall-clock cost per
// empty superstep of the three barrier implementations on the native thread
// backend, up to an oversubscribed row (p = 2 x hardware threads).
//
// Oversubscribed hosts (more workers than hardware threads): a barrier that
// spins with CPU pauses burns the core the awaited worker needs. The default
// central-spin barrier therefore yields instead of pausing there (and, on
// any host, after its first ~5 us of spinning), and parks after a ~50 us
// budget. On a 4-thread Xeon at p = 8 it measured 10-22 us per superstep
// against 29-37 us for the blocking barrier, which parks at once and pays a
// futex wake per waiter.
#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace gbsp;
  CliArgs args(argc, argv);
  const int steps = static_cast<int>(args.get_int("steps", 2000));
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  std::cout << "== barrier ablation: wall-clock us per empty superstep ==\n"
            << "(native thread backend; host has " << hw
            << " hardware threads; * = oversubscribed; central-spin is the "
               "default)\n";
  std::vector<int> procs = {2, 4, 8, 2 * hw};
  std::sort(procs.begin(), procs.end());
  procs.erase(std::unique(procs.begin(), procs.end()), procs.end());
  TextTable t({"nprocs", "central-spin", "central-blocking", "dissemination"});
  for (int np : procs) {
    t.row().add(std::to_string(np) + (np > hw ? "*" : ""));
    for (BarrierKind kind :
         {BarrierKind::CentralSpin, BarrierKind::CentralBlocking,
          BarrierKind::Dissemination}) {
      Config cfg;
      cfg.nprocs = np;
      cfg.barrier = kind;
      cfg.collect_stats = false;
      Runtime rt(cfg);
      WallTimer timer;
      rt.run([steps](Worker& w) {
        for (int s = 0; s < steps; ++s) w.sync();
      });
      t.add(timer.elapsed_us() / steps, 2);
    }
  }
  t.render(std::cout);
  return 0;
}
