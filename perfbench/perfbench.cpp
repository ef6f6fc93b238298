// perfbench: the end-to-end benchmark of the Green BSP runtime.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--corrupt-run K] [--trace-out FILE] [--git-sha SHA]
//
// One process runs one workload on one Runtime (4 processors, in-process
// transport, no watchdog). Set-up -- input generation, Runtime construction
// and one warm-up run -- is repeated at least kMinSetups times and for about
// kSetupBudgetS. Then Runtime::run is timed repeatedly for --seconds; every
// output is checked against a sequential oracle outside the timed region,
// and a run that throws or mismatches counts as failed without ending the
// loop.
//
// --trace 0 prints the raw samples -- per-run wall and CPU time, per-set-up
// time, peak RSS -- from which run.py derives the end-to-end metrics.
// --trace 1 times half the budget untraced and half traced, probes the
// transport's g and L by timing Worker::sync() in SPMD loops on the same
// Runtime, and prints the per-layer metrics: the p90 run time, the RunStats
// split of each run into W, gH and LS, the Eq. 1 prediction against the
// measurement, SlabPool growth, set-up phases and the tracing overhead. Spans go to --trace-out as
// Chrome trace-event JSON.
//
// --tiny shrinks every workload for the self-test; --corrupt-run K flips one
// output bit after timed run K so the self-test can check that verification
// counts it. The last stdout line is a JSON object; lines before it starting
// with '#' record the host and the model check.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/ocean/ocean_bsp.hpp"
#include "apps/ocean/ocean_seq.hpp"
#include "apps/sort/sample_sort.hpp"
#include "core/runtime.hpp"
#include "core/transport.hpp"
#include "cost/fit.hpp"
#include "cost/predictor.hpp"
#include "trace.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using perfbench::ScopedSpan;
using perfbench::Span;
using perfbench::Tracer;

constexpr int kProcs = 4;
// A set-up takes ~15 ms for ocean and ~250 ms for sort; repeating it for a
// fixed budget steadies the median of the short one.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetS = 1.0;
constexpr int kTinySetups = 2;

// ---------------------------------------------------------------------------
// Workloads

/// One application problem: its seeded inputs, the SPMD program over them,
/// its outputs, and the sequential oracle those outputs must match.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Computes the oracle's outputs. Called once, never timed.
  virtual void make_reference(std::uint64_t seed) = 0;
  /// Generates the inputs from the seed, allocates the outputs and builds
  /// the program. Timed as setup.inputs.
  virtual void make_inputs(std::uint64_t seed) = 0;
  [[nodiscard]] virtual const std::function<void(gbsp::Worker&)>& program()
      const = 0;
  /// Resets the outputs, so a run that writes nothing cannot pass.
  virtual void clear_outputs() = 0;
  [[nodiscard]] virtual bool outputs_match() const = 0;
  /// Flips one output bit: the self-test's deliberately corrupted output.
  virtual void corrupt_output() = 0;
  /// Solves the same problem on one processor; returns milliseconds.
  virtual double sequential_ms() = 0;
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Ocean takes no random input: the grid size and physical constants are
/// the whole problem, so the seed only labels the run.
class OceanWorkload final : public Workload {
 public:
  explicit OceanWorkload(bool tiny) {
    cfg_.n = tiny ? 34 : 130;
    cfg_.timesteps = 2;
  }

  void make_reference(std::uint64_t /*seed*/) override {
    gbsp::OceanSequential seq(cfg_);
    seq.run();
    ref_psi_ = seq.psi();
    ref_zeta_ = seq.zeta();
  }

  void make_inputs(std::uint64_t /*seed*/) override {
    const auto cells =
        static_cast<std::size_t>(cfg_.n) * static_cast<std::size_t>(cfg_.n);
    psi_.assign(cells, 0.0);
    zeta_.assign(cells, 0.0);
    program_ = gbsp::make_ocean_program(cfg_, &psi_, &zeta_, &info_);
  }

  [[nodiscard]] const std::function<void(gbsp::Worker&)>& program()
      const override {
    return program_;
  }

  void clear_outputs() override {
    std::fill(psi_.begin(), psi_.end(), 0.0);
    std::fill(zeta_.begin(), zeta_.end(), 0.0);
  }

  /// Interior cells must be bit-identical to the sequential run; the BSP
  /// program leaves the boundary ring unpublished.
  [[nodiscard]] bool outputs_match() const override {
    const auto n = static_cast<std::size_t>(cfg_.n);
    for (std::size_t i = 1; i + 1 < n; ++i) {
      const std::size_t at = i * n + 1;
      const std::size_t bytes = (n - 2) * sizeof(double);
      if (std::memcmp(&psi_[at], &ref_psi_[at], bytes) != 0 ||
          std::memcmp(&zeta_[at], &ref_zeta_[at], bytes) != 0) {
        return false;
      }
    }
    return true;
  }

  void corrupt_output() override {
    std::uint64_t bits = 0;
    double& cell = psi_[psi_.size() / 2 + 1];
    std::memcpy(&bits, &cell, sizeof bits);
    bits ^= 1;
    std::memcpy(&cell, &bits, sizeof bits);
  }

  double sequential_ms() override {
    const auto t0 = std::chrono::steady_clock::now();
    gbsp::OceanSequential seq(cfg_);
    seq.run();
    return ms_since(t0);
  }

 private:
  gbsp::OceanConfig cfg_;
  std::vector<double> psi_, zeta_, ref_psi_, ref_zeta_;
  gbsp::OceanRunInfo info_;
  std::function<void(gbsp::Worker&)> program_;
};

/// Uniform 64-bit keys drawn from the seed.
class SortWorkload final : public Workload {
 public:
  explicit SortWorkload(bool tiny) : n_(std::size_t{1} << (tiny ? 12 : 22)) {}

  void make_reference(std::uint64_t seed) override {
    ref_ = keys(seed);
    std::sort(ref_.begin(), ref_.end());
  }

  void make_inputs(std::uint64_t seed) override {
    input_ = keys(seed);
    out_.assign(n_, 0);
    program_ = gbsp::make_sample_sort_program(input_, &out_);
  }

  [[nodiscard]] const std::function<void(gbsp::Worker&)>& program()
      const override {
    return program_;
  }

  void clear_outputs() override { std::fill(out_.begin(), out_.end(), 0); }

  [[nodiscard]] bool outputs_match() const override {
    return out_ == ref_;
  }

  void corrupt_output() override { out_[n_ / 2] ^= 1; }

  double sequential_ms() override {
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<std::uint64_t> sorted = gbsp::bsp_sample_sort(input_, 1);
    const double ms = ms_since(t0);
    if (sorted != ref_) {
      throw std::runtime_error("sort4m: sequential baseline output is wrong");
    }
    return ms;
  }

 private:
  [[nodiscard]] std::vector<std::uint64_t> keys(std::uint64_t seed) const {
    gbsp::Xoshiro256 rng(seed);
    std::vector<std::uint64_t> v(n_);
    for (auto& k : v) k = rng.next();
    return v;
  }

  std::size_t n_;
  std::vector<std::uint64_t> input_, out_, ref_;
  std::function<void(gbsp::Worker&)> program_;
};

struct WorkloadSpec {
  const char* name;
  gbsp::DeliveryStrategy delivery;
  bool sort;
};

// Why each workload was chosen is recorded beside its name in
// BENCHMARK.json, which run.py prints with every result.
constexpr WorkloadSpec kWorkloads[] = {
    {"ocean130-socket", gbsp::DeliveryStrategy::Socket, false},
    {"ocean130-deferred", gbsp::DeliveryStrategy::Deferred, false},
    {"sort4m-socket", gbsp::DeliveryStrategy::Socket, true},
};

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Statistics and host record

/// Linear-interpolation quantile (numpy's default); q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) * 1e-3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        if (start != std::string::npos) return line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Escapes the characters JSON forbids raw inside a string.
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    throw std::runtime_error("perfbench: metric is not a finite number");
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Measurement

struct Options {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  long corrupt_run = -1;
  std::string trace_out;
  std::string git_sha;
};

struct SetupTimes {
  double inputs_s = 0.0;
  double runtime_s = 0.0;
  double first_run_s = 0.0;
  [[nodiscard]] double total_s() const {
    return inputs_s + runtime_s + first_run_s;
  }
};

/// The RunStats quantities of one run the per-layer metrics are made from.
struct LayerSample {
  double wall_ms = 0.0;
  double w_ms = 0.0;
  double work_total_ms = 0.0;
  std::uint64_t supersteps = 0;
  std::uint64_t h_packets = 0;
  std::uint64_t messages = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_syscalls = 0;
};

LayerSample layer_sample(const gbsp::RunStats& st) {
  LayerSample s;
  s.wall_ms = st.wall_s * 1e3;
  s.w_ms = st.W_s() * 1e3;
  s.work_total_ms = st.total_work_s() * 1e3;
  s.supersteps = st.S();
  s.h_packets = st.H();
  for (const auto& step : st.supersteps) s.messages += step.total_messages;
  s.payload_bytes = st.total_bytes();
  s.wire_bytes = st.total_wire_bytes();
  s.wire_syscalls = st.total_wire_syscalls();
  return s;
}

/// Median of one field over a vector of records.
template <typename T, typename F>
double median_of(const std::vector<T>& v, F field) {
  std::vector<double> xs;
  xs.reserve(v.size());
  for (const auto& s : v) xs.push_back(static_cast<double>(field(s)));
  return median(xs);
}

class Bench {
 public:
  Bench(const Options& opt, Tracer& tracer)
      : opt_(opt), tracer_(tracer) {
    if (opt.spec->sort) {
      wl_ = std::make_unique<SortWorkload>(opt.tiny);
    } else {
      wl_ = std::make_unique<OceanWorkload>(opt.tiny);
    }
    cfg_.nprocs = kProcs;
    cfg_.delivery = opt.spec->delivery;
  }

  /// Oracle first (untimed), then the timed set-ups; the Runtime and
  /// inputs of the last one serve the timed runs.
  void setup() {
    {
      ScopedSpan span(tracer_, "oracle");
      wl_->make_reference(opt_.seed);
    }
    const auto start = std::chrono::steady_clock::now();
    for (int k = 0; more_setups(k, ms_since(start) * 1e-3); ++k) {
      rt_.reset();
      ScopedSpan span(tracer_, "setup", -1, k);
      SetupTimes t;
      auto t0 = std::chrono::steady_clock::now();
      {
        ScopedSpan s(tracer_, "setup.inputs", span.id(), k);
        wl_->make_inputs(opt_.seed);
      }
      t.inputs_s = ms_since(t0) * 1e-3;
      t0 = std::chrono::steady_clock::now();
      {
        ScopedSpan s(tracer_, "setup.runtime", span.id(), k);
        rt_ = std::make_unique<gbsp::Runtime>(cfg_);
      }
      t.runtime_s = ms_since(t0) * 1e-3;
      t0 = std::chrono::steady_clock::now();
      bool ran = false;
      {
        ScopedSpan s(tracer_, "setup.first_run", span.id(), k);
        ran = run_once();
      }
      t.first_run_s = ms_since(t0) * 1e-3;
      {
        ScopedSpan s(tracer_, "verify", span.id(), k);
        tally(ran && wl_->outputs_match());
      }
      setups_.push_back(t);
    }
  }

  /// Times Runtime::run for `seconds`, verifying each output afterwards.
  /// Spans are recorded only when `traced`.
  void timed_loop(double seconds, bool traced, std::vector<double>* wall_ms,
                  std::vector<double>* cpu_ms,
                  std::vector<LayerSample>* layers) {
    Tracer off(false);
    Tracer& tr = traced ? tracer_ : off;
    ScopedSpan loop(tr, traced ? "timed.traced" : "timed.untraced");
    const auto start = std::chrono::steady_clock::now();
    do {
      const int run = static_cast<int>(timed_runs_++);
      wl_->clear_outputs();
      gbsp::RunStats stats;
      bool ran = false;
      const double cpu0 = process_cpu_ms();
      const auto t0 = std::chrono::steady_clock::now();
      {
        ScopedSpan s(tr, "run", loop.id(), run);
        ran = run_once(&stats);
      }
      const double wall = ms_since(t0);
      const double cpu = process_cpu_ms() - cpu0;
      ScopedSpan s(tr, "verify", loop.id(), run);
      if (run == opt_.corrupt_run) wl_->corrupt_output();
      const bool ok = ran && wl_->outputs_match();
      tally(ok);
      if (ok) {
        wall_ms->push_back(wall);
        cpu_ms->push_back(cpu);
        if (layers != nullptr) layers->push_back(layer_sample(stats));
      }
    } while (ms_since(start) < seconds * 1e3);
  }

  /// Probes the transport's (g, L) on this workload's Runtime: L from empty
  /// supersteps, g from the slope of h-relations of 16-byte packets, each
  /// point the median over supersteps of the workers' mean sync() time.
  gbsp::MachineParams probe_g_L() {
    const int steps = opt_.tiny ? 10 : 200;
    const int reps = opt_.tiny ? 1 : 5;
    std::vector<gbsp::ProbeSample> samples;
    std::vector<double> empty;
    {
      ScopedSpan probe(tracer_, "probe.L");
      for (int r = 0; r < reps; ++r) {
        empty.push_back(probe_step_us(0, steps, probe.id(), r));
      }
    }
    const double L = median(empty);
    samples.push_back({0, L});
    {
      ScopedSpan probe(tracer_, "probe.g");
      int r = 0;
      for (const int per_peer : {16, 64, 256}) {
        std::vector<double> t;
        for (int k = 0; k < reps; ++k) {
          t.push_back(probe_step_us(per_peer, steps / 4, probe.id(), r++));
        }
        samples.push_back(
            {static_cast<std::uint64_t>(per_peer * (kProcs - 1)), median(t)});
      }
    }
    gbsp::MachineParams mp = gbsp::fit_g_L(samples);
    mp.L_us = L;
    return mp;
  }

  double sequential_ms() {
    const int reps = opt_.tiny ? 1 : 3;
    std::vector<double> t;
    ScopedSpan span(tracer_, "sequential");
    for (int r = 0; r < reps; ++r) t.push_back(wl_->sequential_ms());
    return median(t);
  }

  [[nodiscard]] std::uint64_t fresh_allocations() const {
    return rt_->slab_pool().fresh_allocations();
  }
  [[nodiscard]] const std::vector<SetupTimes>& setups() const {
    return setups_;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  [[nodiscard]] bool more_setups(int done, double elapsed_s) const {
    if (opt_.tiny) return done < kTinySetups;
    return done < kMinSetups ||
           (done < kMaxSetups && elapsed_s < kSetupBudgetS);
  }

  /// One Runtime::run of the program; false if it threw.
  bool run_once(gbsp::RunStats* stats = nullptr) {
    try {
      gbsp::RunStats st = rt_->run(wl_->program());
      if (stats != nullptr) *stats = std::move(st);
      return true;
    } catch (const std::exception& e) {
      if (failed_ == 0) std::fprintf(stderr, "run threw: %s\n", e.what());
      return false;
    }
  }

  void tally(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  /// One probe run of `steps` supersteps, each worker sending `per_peer`
  /// 16-byte packets to every other worker; returns the median over
  /// supersteps of the workers' mean sync() time in microseconds.
  double probe_step_us(int per_peer, int steps, int parent, int rep) {
    std::vector<std::vector<double>> dur(
        kProcs, std::vector<double>(static_cast<std::size_t>(steps)));
    std::vector<std::vector<Span>> spans(kProcs);
    const Tracer& tr = tracer_;
    rt_->run([&](gbsp::Worker& w) {
      const int pid = w.pid();
      auto& mine = spans[static_cast<std::size_t>(pid)];
      if (tr.enabled()) mine.reserve(static_cast<std::size_t>(steps));
      const char pkt[16] = {};
      for (int s = 0; s < steps; ++s) {
        for (int d = 1; d < kProcs; ++d) {
          for (int k = 0; k < per_peer; ++k) {
            w.send_bytes((pid + d) % kProcs, pkt, sizeof pkt);
          }
        }
        const double t0 = tr.now_us();
        w.sync();
        const double t1 = tr.now_us();
        dur[static_cast<std::size_t>(pid)][static_cast<std::size_t>(s)] =
            t1 - t0;
        if (tr.enabled()) mine.push_back({"sync", t0, t1, parent, rep, 1 + pid});
        while (w.get_message() != nullptr) {
        }
      }
    });
    for (const auto& v : spans) tracer_.add(v);
    std::vector<double> per_step(static_cast<std::size_t>(steps), 0.0);
    for (const auto& d : dur) {
      for (std::size_t s = 0; s < d.size(); ++s) per_step[s] += d[s] / kProcs;
    }
    return median(per_step);
  }

  const Options& opt_;
  Tracer& tracer_;
  std::unique_ptr<Workload> wl_;
  gbsp::Config cfg_;
  std::unique_ptr<gbsp::Runtime> rt_;
  std::vector<SetupTimes> setups_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t timed_runs_ = 0;
};

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string host_record(const Options& opt) {
  std::string s = "{";
  s += "\"workload\":" + json_string(opt.spec->name);
  s += ",\"seed\":" + std::to_string(opt.seed);
  s += ",\"transport\":" +
       json_string(gbsp::to_string(opt.spec->delivery));
  s += ",\"nprocs\":" + std::to_string(kProcs);
  s += ",\"host_nproc\":" +
       std::to_string(std::thread::hardware_concurrency());
  s += ",\"cpu_model\":" + json_string(cpu_model());
  s += ",\"compiler\":" + json_string(PERFBENCH_COMPILER);
  s += ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
  s += ",\"git_sha\":" + json_string(opt.git_sha);
  s += ",\"tiny\":" + std::string(opt.tiny ? "true" : "false");
  return s + "}";
}

void print_result(const Bench& b, const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += b.failed() == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(b.attempted());
  s += ", \"failed\": " + std::to_string(b.failed());
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    s += (i == 0 ? "" : ", ") + json_string(m.name) + ": {\"value\": " +
         json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    s += (i == 0 ? "" : ", ") + json_number(v[i]);
  }
  return s + "]";
}

/// Untraced mode: times the runs and prints the raw samples as the last
/// line. run.py derives the end-to-end metrics of each of several such
/// processes and reports their medians.
void print_samples(Bench& b, const Options& opt) {
  std::vector<double> wall, cpu, setup;
  b.timed_loop(opt.seconds, false, &wall, &cpu, nullptr);
  for (const auto& t : b.setups()) setup.push_back(t.total_s());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"samples\": {\"run_ms\": %s, \"cpu_ms\": %s, \"setup_s\": %s, "
      "\"peak_rss_mb\": %s}}\n",
      b.failed() == 0 ? "true" : "false",
      static_cast<unsigned long long>(b.attempted()),
      static_cast<unsigned long long>(b.failed()), json_array(wall).c_str(),
      json_array(cpu).c_str(), json_array(setup).c_str(),
      json_number(peak_rss_mb()).c_str());
}

std::vector<Metric> per_layer(Bench& b, const Options& opt,
                              const Tracer& tracer) {
  std::vector<double> wall_u, cpu_u, wall_t, cpu_t;
  std::vector<LayerSample> layers;
  const std::uint64_t fresh0 = b.fresh_allocations();
  b.timed_loop(opt.seconds / 2, false, &wall_u, &cpu_u, nullptr);
  b.timed_loop(opt.seconds / 2, true, &wall_t, &cpu_t, &layers);
  const std::uint64_t fresh = b.fresh_allocations() - fresh0;
  if (wall_u.empty() || layers.empty()) {
    throw std::runtime_error("no timed run passed");
  }
  const gbsp::MachineParams mp = b.probe_g_L();
  const double seq_ms = b.sequential_ms();

  const double p50 = median(wall_u);
  const double w_ms = median_of(layers, [](auto& s) { return s.w_ms; });
  const double S = median_of(layers, [](auto& s) { return s.supersteps; });
  const double H = median_of(layers, [](auto& s) { return s.h_packets; });
  const double syscalls =
      median_of(layers, [](auto& s) { return s.wire_syscalls; });
  const double boundary_ms =
      median_of(layers, [](auto& s) { return s.wall_ms - s.w_ms; });
  const double predicted_ms =
      gbsp::predict_cost(w_ms * 1e-3, static_cast<std::uint64_t>(H),
                         static_cast<std::uint64_t>(S), mp)
          .total_s() *
      1e3;
  std::printf(
      "# eq1 %s: W=%.3f ms + g*H=%.3f us*%.0f + L*S=%.3f us*%.0f -> "
      "predicted %.3f ms, measured p50 %.3f ms, residual %+.3f ms\n",
      opt.spec->name, w_ms, mp.g_us, H, mp.L_us, S, predicted_ms, p50,
      p50 - predicted_ms);
  for (const auto& [name, t] : tracer.self_time_by_name()) {
    std::printf("# span %-18s count %8llu total %12.3f ms self %12.3f ms\n",
                name.c_str(), static_cast<unsigned long long>(t.count),
                t.total_us * 1e-3, t.self_us * 1e-3);
  }

  const double fail_ratio =
      static_cast<double>(b.failed()) / static_cast<double>(b.attempted());
  const auto& su = b.setups();
  return {
      {"run_ms_p90", quantile(wall_u, 0.9), "ms"},
      {"apps.w_ms", w_ms, "ms"},
      {"apps.work_total_ms",
       median_of(layers, [](auto& s) { return s.work_total_ms; }), "ms"},
      {"apps.imbalance_ms", median_of(layers,
                                      [](auto& s) {
                                        return s.w_ms -
                                               s.work_total_ms / kProcs;
                                      }),
       "ms"},
      {"apps.seq_ms", seq_ms, "ms"},
      {"apps.speedup", seq_ms / p50, "x"},
      {"runtime.supersteps", S, "count"},
      {"runtime.boundary_ms", boundary_ms, "ms"},
      {"runtime.boundary_us_per_step", boundary_ms * 1e3 / S, "us"},
      {"exchange.h_packets", H, "packets"},
      {"exchange.messages",
       median_of(layers, [](auto& s) { return s.messages; }), "count"},
      {"exchange.payload_bytes",
       median_of(layers, [](auto& s) { return s.payload_bytes; }), "bytes"},
      {"exchange.wire_bytes",
       median_of(layers, [](auto& s) { return s.wire_bytes; }), "bytes"},
      {"exchange.wire_syscalls", syscalls, "count"},
      {"exchange.syscalls_per_step", syscalls / S, "count"},
      {"exchange.L_us", mp.L_us, "us"},
      {"exchange.g_us", mp.g_us, "us/packet"},
      {"model.predicted_ms", predicted_ms, "ms"},
      {"model.residual_ms", p50 - predicted_ms, "ms"},
      {"arena.fresh_allocs", static_cast<double>(fresh), "count"},
      {"setup.inputs_s",
       median_of(su, [](auto& t) { return t.inputs_s; }), "s"},
      {"setup.runtime_s", median_of(su, [](auto& t) { return t.runtime_s; }),
       "s"},
      {"setup.first_run_s",
       median_of(su, [](auto& t) { return t.first_run_s; }), "s"},
      {"trace.overhead_pct", (median(wall_t) - p50) / p50 * 100.0, "%"},
      {"verify.fail_ratio", fail_ratio, "ratio"},
  };
}

Options parse_options(int argc, char** argv) {
  gbsp::CliArgs args(argc, argv);
  Options opt;
  const std::string name = args.get_string("workload", "");
  opt.spec = find_workload(name);
  if (opt.spec == nullptr) {
    throw std::invalid_argument("unknown --workload '" + name + "'");
  }
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opt.seconds = args.get_double("seconds", 10.0);
  if (!(opt.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  opt.trace = args.get_int("trace", 0) != 0;
  opt.tiny = args.has_flag("tiny");
  opt.corrupt_run = static_cast<long>(args.get_int("corrupt-run", -1));
  opt.trace_out = args.get_string("trace-out", "");
  opt.git_sha = args.get_string("git-sha", "unknown");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_options(argc, argv);
    Tracer tracer(opt.trace);
    Bench bench(opt, tracer);
    const std::string host = host_record(opt);
    std::printf("# host %s\n", host.c_str());
    bench.setup();
    if (!opt.trace) {
      print_samples(bench, opt);
      return 0;
    }
    const std::vector<Metric> metrics = per_layer(bench, opt, tracer);
    if (!opt.trace_out.empty() &&
        !tracer.write_chrome_json(opt.trace_out, host)) {
      std::fprintf(stderr, "cannot write trace to %s\n",
                   opt.trace_out.c_str());
      return 1;
    }
    print_result(bench, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
