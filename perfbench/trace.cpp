#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::begin(const std::string& name, int parent, int run) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_us = now_us();
  s.end_us = s.start_us;
  s.parent = parent;
  s.run = run;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
}

void Tracer::add(const std::vector<Span>& spans) {
  if (!enabled_) return;
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::vector<double> Tracer::self_times_us() const {
  // Children may overlap one another (the per-worker sync spans of one probe
  // run do), so a parent's covered time is the union of its children's
  // intervals clipped to the parent.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_us, s.end_us});
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_us);
      hi = std::min(hi, s.end_us);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = (s.end_us - s.start_us) - covered;
  }
  return self;
}

std::map<std::string, SelfTime> Tracer::self_time_by_name() const {
  const std::vector<double> self = self_times_us();
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SelfTime& t = out[spans_[i].name];
    ++t.count;
    t.total_us += spans_[i].end_us - spans_[i].start_us;
    t.self_us += self[i];
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& metadata_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_times_us();
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
                  "\"traceEvents\":[\n",
               metadata_json.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are benchmark-chosen identifiers; no JSON escaping needed.
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"run\":%d,\"self_us\":%.3f}}",
                 i == 0 ? "" : ",\n", s.name.c_str(), s.tid, s.start_us,
                 s.end_us - s.start_us, i, s.parent, s.run, self[i]);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
