// SageBench shared pieces: the clock, the in-memory span tracer, raw-sample
// percentiles, and the result record every workload fills in.
//
// The benchmark drives the library only through its public entry points and
// times those calls from here; nothing in src/ is instrumented.
#ifndef SAGEBENCH_COMMON_H_
#define SAGEBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/device_spec.h"
#include "sim/gpu_device.h"

namespace sagebench {

/// Steady-clock nanoseconds since the process-wide epoch (first call).
int64_t NowNs();
inline double MsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

/// The simulated device every workload runs on: the repository's bench
/// spec (one 72-SM device with the L2 scaled down with the datasets).
sage::sim::DeviceSpec BenchSpec();

/// Linear-interpolated percentile (q in [0, 100]) of raw samples; 0 when
/// empty. Sorts a copy.
double Percentile(std::vector<double> samples, double q);
double Median(const std::vector<double>& samples);
double Mean(const std::vector<double>& samples);

/// Peak resident set of this process, in MB.
double PeakRssMb();

/// Device counters of one or more simulated devices, summed.
struct SimCounters {
  uint64_t sectors = 0;       ///< device-space sectors (hit + miss)
  uint64_t l2_hits = 0;
  uint64_t l2_misses = 0;
  uint64_t useful_bytes = 0;
  uint64_t loaded_bytes = 0;
  uint64_t host_sectors = 0;  ///< host-space (PCIe) sectors
  uint64_t kernels = 0;
  double modeled_s = 0.0;
  uint64_t tile_hits = 0;
  uint64_t tile_misses = 0;
  uint64_t tile_evictions = 0;

  void Add(const sage::sim::GpuDevice& device);
  void Add(const SimCounters& other);
  /// Every sector the simulator modeled, device and host space.
  uint64_t all_sectors() const { return sectors + host_sectors; }
};

/// In-memory span recorder. Spans carry a name ("<layer>.<what>"), start,
/// end, parent span and request id; they are written out once, at exit.
/// Disabled tracers record nothing. Not thread-safe: only the benchmark's
/// generator thread records spans.
class Tracer {
 public:
  static constexpr int32_t kNoParent = -1;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span starting now; returns its id (kNoParent when disabled).
  int32_t Begin(const char* name, int32_t parent = kNoParent,
                int64_t request = -1);
  void End(int32_t id);
  /// Records a finished span with explicit times.
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent = kNoParent, int64_t request = -1);
  size_t size() const { return spans_.size(); }

  /// Self time (span minus the part its children cover) summed per span
  /// name, in ms. Concurrent spans (serve requests) each count in full.
  std::vector<std::pair<std::string, double>> SelfMsByName() const;
  /// Wall time in [begin_ns, end_ns) covered by no span, in ms.
  double UnattributedMs(int64_t begin_ns, int64_t end_ns) const;
  /// Host ns one Begin/End pair costs, measured on a scratch tracer.
  static double CostPerSpanNs();
  /// Chrome trace-event JSON (open in Perfetto / chrome://tracing).
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    int64_t request;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name,
             int32_t parent = Tracer::kNoParent, int64_t request = -1)
      : tracer_(tracer), id_(tracer.Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int32_t id_;
};

/// Command-line settings shared by every workload.
struct Settings {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for run-private files (serve-cold's graph files, the trace).
  std::string workdir = ".";
  /// Test hook: flip one bit of one checked digest, so the output check
  /// must fail. Never set by the benchmark command.
  bool corrupt_digest = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Raw samples behind a percentile or median; 0 for other metrics.
  size_t samples = 0;
};

/// What a workload run reports: metrics in print order and human-readable
/// notes (thread budget, digests, failures).
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;

  void E2e(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    end_to_end.push_back({name, value, unit, samples});
  }
  void Layer(const std::string& name, double value, const std::string& unit,
             size_t samples = 0) {
    per_layer.push_back({name, value, unit, samples});
  }
  void Note(const std::string& line) { notes.push_back(line); }
  /// Records a failed output check: counts it and clears `correct`.
  void Mismatch(const std::string& what);
};

/// The traverse cells, "<app>.<dataset>[.ooc]" and "sharded.<app>"; their
/// per-cell metrics read 0 on the serve workloads.
inline constexpr const char* kTraverseCells[] = {
    "bfs.ljournal-s",      "sssp.ljournal-s",     "pagerank.ljournal-s",
    "msbfs.ljournal-s",    "bfs.uk-2002s",        "sssp.uk-2002s",
    "pagerank.uk-2002s",   "msbfs.uk-2002s",      "bfs.ljournal-s.ooc",
    "sssp.ljournal-s.ooc", "sharded.bfs",         "sharded.pagerank"};

/// Host run-time metric of a traverse cell: core.run_ms.<cell>, or
/// core.sharded.run_ms.<app> for the sharded cells.
std::string RunMetricOf(const std::string& cell);

/// Every span name the workloads record; "<layer>.<call>", where layer
/// "bench" is the benchmark's own work around the calls.
inline constexpr const char* kSpanNames[] = {
    "bench.setup",  "bench.warmup",        "bench.cell",
    "bench.verify", "graph.generate",      "graph.load",
    "serve.registry_add", "serve.request", "serve.submit",
    "serve.queue",  "serve.coalesce",      "serve.run",
    "core.create",  "core.bind",           "core.run",
    "core.sharded_create", "core.sharded_run", "apps.digest"};

/// Adds the sim.* per-layer metrics of `sim`, with the measured host ns
/// per simulated sector.
void AddSimMetrics(const SimCounters& sim, double ns_per_sector,
                   Result* result);
/// Adds the serve.* per-layer metrics as 0, for the workload without a
/// service.
void AddServeNotMeasured(Result* result);

/// Adds the trace-derived per-layer metrics (spans, self time per span,
/// unattributed wall time, estimated tracing overhead) and writes the
/// spans to <workdir>/trace-<workload>-<seed>.json.
void FinishTrace(const Tracer& tracer, const Settings& settings,
                 int64_t begin_ns, int64_t end_ns, Result* result);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

Result RunTraverse(const Settings& settings);
Result RunServeHot(const Settings& settings);
Result RunServeCold(const Settings& settings);

}  // namespace sagebench

#endif  // SAGEBENCH_COMMON_H_
