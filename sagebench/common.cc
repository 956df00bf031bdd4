#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace sagebench {

int64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

sage::sim::DeviceSpec BenchSpec() {
  sage::sim::DeviceSpec spec;
  spec.l2_bytes = 64 << 10;
  return spec;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - lo);
}

double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50.0);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SimCounters::Add(const sage::sim::GpuDevice& device) {
  const auto& dev = device.mem().device_stats();
  const auto& host = device.mem().host_stats();
  const auto& tiles = device.tile_cache().stats();
  sectors += dev.sectors;
  l2_hits += dev.l2_hits;
  l2_misses += dev.l2_misses;
  useful_bytes += dev.useful_bytes;
  loaded_bytes += dev.loaded_bytes;
  host_sectors += host.sectors;
  kernels += device.totals().kernels;
  modeled_s += device.totals().seconds;
  tile_hits += tiles.hits;
  tile_misses += tiles.misses;
  tile_evictions += tiles.evictions;
}

void SimCounters::Add(const SimCounters& o) {
  sectors += o.sectors;
  l2_hits += o.l2_hits;
  l2_misses += o.l2_misses;
  useful_bytes += o.useful_bytes;
  loaded_bytes += o.loaded_bytes;
  host_sectors += o.host_sectors;
  kernels += o.kernels;
  modeled_s += o.modeled_s;
  tile_hits += o.tile_hits;
  tile_misses += o.tile_misses;
  tile_evictions += o.tile_evictions;
}

int32_t Tracer::Begin(const char* name, int32_t parent, int64_t request) {
  if (!enabled_) return kNoParent;
  spans_.push_back({name, NowNs(), -1, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t id) {
  if (id == kNoParent) return;
  spans_[id].end_ns = NowNs();
}

int32_t Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                    int32_t parent, int64_t request) {
  if (!enabled_) return kNoParent;
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

namespace {

/// Total length of the union of [start, end) intervals (sorted in place).
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>>& intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = -1;
  for (const auto& [s, e] : intervals) {
    if (s > cur_end) {
      if (cur_end > cur_start) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_start) total += cur_end - cur_start;
  return total;
}

}  // namespace

std::vector<std::pair<std::string, double>> Tracer::SelfMsByName() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != kNoParent && s.end_ns >= s.start_ns) {
      children[s.parent].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, int64_t> self_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) continue;  // never closed
    // Clip children to the parent, then subtract their union.
    for (auto& [cs, ce] : children[i]) {
      cs = std::clamp(cs, s.start_ns, s.end_ns);
      ce = std::clamp(ce, s.start_ns, s.end_ns);
    }
    self_ns[s.name] +=
        (s.end_ns - s.start_ns) - UnionLength(children[i]);
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [layer, ns] : self_ns) out.push_back({layer, ns / 1e6});
  return out;
}

double Tracer::UnattributedMs(int64_t begin_ns, int64_t end_ns) const {
  std::vector<std::pair<int64_t, int64_t>> covered;
  covered.reserve(spans_.size());
  for (const Span& s : spans_) {
    if (s.end_ns < s.start_ns) continue;
    const int64_t a = std::clamp(s.start_ns, begin_ns, end_ns);
    const int64_t b = std::clamp(s.end_ns, begin_ns, end_ns);
    if (b > a) covered.push_back({a, b});
  }
  return ((end_ns - begin_ns) - UnionLength(covered)) / 1e6;
}

double Tracer::CostPerSpanNs() {
  constexpr int kSpans = 200000;
  Tracer scratch(true);
  scratch.spans_.reserve(kSpans / 2);  // half the pushes still regrow
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) scratch.End(scratch.Begin("calibrate"));
  return static_cast<double>(NowNs() - start) / kSpans;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"request\":%lld}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<long long>(s.request < 0 ? 0 : s.request % 128),
                 s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::string RunMetricOf(const std::string& cell) {
  const std::string sharded = "sharded.";
  return cell.rfind(sharded, 0) == 0
             ? "core.sharded.run_ms." + cell.substr(sharded.size())
             : "core.run_ms." + cell;
}

void Result::Mismatch(const std::string& what) {
  correct = false;
  ++failed;
  notes.push_back("MISMATCH " + what);
}

void AddSimMetrics(const SimCounters& sim, double ns_per_sector,
                   Result* result) {
  auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  result->Layer("sim.ns_per_sector", ns_per_sector, "ns");
  result->Layer("sim.sectors", sim.sectors, "count");
  result->Layer("sim.l2_hit_rate",
                ratio(sim.l2_hits, static_cast<double>(sim.l2_hits) +
                                       sim.l2_misses),
                "ratio");
  result->Layer("sim.amplification",
                ratio(sim.loaded_bytes, sim.useful_bytes), "ratio");
  result->Layer("sim.kernels", sim.kernels, "count");
  result->Layer("sim.modeled_s", sim.modeled_s, "s");
  result->Layer("sim.host_sectors", sim.host_sectors, "count");
  result->Layer("sim.tile_cache.hit_rate",
                ratio(sim.tile_hits, static_cast<double>(sim.tile_hits) +
                                         sim.tile_misses),
                "ratio");
  result->Layer("sim.tile_cache.evictions", sim.tile_evictions, "count");
}

void AddServeNotMeasured(Result* result) {
  for (const auto& [name, unit] :
       std::vector<std::pair<const char*, const char*>>{
           {"serve.registry_add_ms", "ms"},  {"serve.submit_us_p50", "us"},
           {"serve.submit_us_p99", "us"},    {"serve.queue_wait_ms_p50", "ms"},
           {"serve.queue_wait_ms_p99", "ms"}, {"serve.coalesce_ms_p99", "ms"},
           {"serve.run_ms_p50", "ms"},       {"serve.run_ms_p99", "ms"},
           {"serve.run_ms_per_req", "ms"},   {"serve.batch_size_mean", "requests"},
           {"serve.samples", "count"},       {"serve.dispatches", "count"},
           {"serve.engines_created", "count"}, {"serve.cache.evictions", "count"},
           {"serve.shed", "count"},          {"serve.rejected", "count"},
           {"serve.add_retries", "count"}}) {
    result->Layer(name, 0.0, unit);
  }
}

void FinishTrace(const Tracer& tracer, const Settings& settings,
                 int64_t begin_ns, int64_t end_ns, Result* result) {
  const double wall_ms = (end_ns - begin_ns) / 1e6;
  const double unattributed = tracer.UnattributedMs(begin_ns, end_ns);
  result->Layer("trace.spans", static_cast<double>(tracer.size()), "count");
  result->Layer("trace.wall_ms", wall_ms, "ms");
  result->Layer("trace.unattributed_ms", unattributed, "ms");
  result->Layer("trace.unattributed_frac", unattributed / wall_ms, "ratio");
  result->Layer("trace.overhead_frac",
                tracer.size() * Tracer::CostPerSpanNs() / 1e6 / wall_ms,
                "ratio");
  // Every span name appears, so the metric set is the same on every
  // workload; names a workload never records read 0.
  std::map<std::string, double> self;
  for (const char* name : kSpanNames) self[name] = 0.0;
  for (const auto& [name, ms] : tracer.SelfMsByName()) {
    if (self.count(name) == 0) {
      throw std::logic_error(std::string("span name not in kSpanNames: ") +
                             name);
    }
    self[name] = ms;
  }
  for (const auto& [name, ms] : self) {
    result->Layer("trace.self_ms." + name, ms, "ms");
  }
  const std::string path = settings.workdir + "/trace-" + settings.workload +
                           "-" + std::to_string(settings.seed) + ".json";
  if (tracer.WriteChromeJson(path)) result->Note("trace written to " + path);
}

}  // namespace sagebench
