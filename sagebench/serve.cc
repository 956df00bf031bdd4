// serve-hot and serve-cold: closed loops against a live QueryService in
// worker mode. One generator thread (this one) keeps a fixed number of
// requests outstanding, polls their futures, and records client-side
// latency from the Submit call to the response being ready. After the
// window a seeded sample of responses is re-run solo on fresh engines and
// must give the same digests.
//
// serve-hot: two small in-core graphs, zipf-hot bfs sources, 128
// outstanding — coalescing and queueing do their work.
// serve-cold: uniform sources, 6 outstanding, an out-of-core ljournal-s, and
// a graph load from disk every kLoadEvery requests under a registry memory
// budget — eviction, engine rebuilds, graph IO and paging do theirs.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "apps/registry.h"
#include "common.h"
#include "core/engine.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "serve/graph_registry.h"
#include "serve/service.h"
#include "util/random.h"

namespace sagebench {
namespace {

using sage::graph::Csr;
using sage::graph::NodeId;
using sage::serve::Request;
using sage::serve::Response;

constexpr uint32_t kEnginesPerGraph = 3;
constexpr uint32_t kMaxWorkers = 3;
constexpr uint32_t kPrIterations = 5;
/// Responses re-run solo after the window.
constexpr size_t kVerifySample = 32;

/// One answered (or refused) request, as the client saw it.
struct Completed {
  Request request;
  Response response;
  double submit_us = 0.0;
  double latency_ms = 0.0;
  bool in_window = false;  ///< ready before the window closed
};

/// The live service and everything it serves; rebuilt per set-up repeat.
struct ServeSetup {
  sage::serve::GraphRegistry registry;
  std::unique_ptr<sage::serve::QueryService> service;
  std::vector<std::string> graphs;           ///< request targets, in order
  /// Per-graph request sources: serve-hot's hot set, or every node with
  /// an out-edge (a query from an isolated node does no work).
  std::map<std::string, std::vector<NodeId>> sources;
  uint64_t csr_bytes = 0;                    ///< sum of registered CSRs
  double generate_ms = 0.0;
  std::vector<double> add_ms;  ///< set-up registry adds

  ~ServeSetup() {
    if (service) service->Shutdown();
  }

  /// Registers a graph as a request target, timing the Add into `ms`.
  sage::util::Status Add(const std::string& name, Csr csr, Tracer& tracer,
                         int32_t parent, std::vector<double>* ms) {
    const uint64_t bytes = csr.MemoryBytes();
    const int64_t start = NowNs();
    sage::util::Status added = [&] {
      ScopedSpan span(tracer, "serve.registry_add", parent);
      return registry.Add(name, std::move(csr));
    }();
    ms->push_back(MsSince(start));
    if (added.ok()) {
      csr_bytes += bytes;
      graphs.push_back(name);
    }
    return added;
  }

  /// Set-up registration: a graph that cannot be added ends the run.
  void AddOrThrow(const std::string& name, Csr csr, Tracer& tracer,
                  int32_t parent) {
    sage::util::Status added =
        Add(name, std::move(csr), tracer, parent, &add_ms);
    if (!added.ok()) throw std::runtime_error(added.ToString());
  }
};

uint32_t WorkerThreads() {
  // One generator thread plus the workers stay within the machine.
  const uint32_t hw = std::max(2u, std::thread::hardware_concurrency());
  return std::min(kMaxWorkers, hw - 1);
}

sage::serve::ServeOptions BaseOptions() {
  sage::serve::ServeOptions options;
  options.worker_threads = WorkerThreads();
  options.engines_per_graph = kEnginesPerGraph;
  options.batching = true;
  options.max_pending = 4096;
  options.device_spec = BenchSpec();
  options.engine_options.host_threads = 1;
  return options;
}

/// Keeps `depth` requests outstanding until `window_end_ns` or until
/// `max_requests` were submitted, then drains. `next(i)` makes request i;
/// `before_submit(i)` runs first (serve-cold's graph loads).
std::vector<Completed> ClosedLoop(
    sage::serve::QueryService& service, Tracer& tracer, size_t depth,
    int64_t window_end_ns, uint64_t max_requests, uint64_t first_id,
    const std::function<Request(uint64_t)>& next,
    const std::function<void(uint64_t)>& before_submit = nullptr) {
  struct Outstanding {
    Completed record;
    std::future<Response> future;
    int64_t start_ns = 0;
    int64_t submitted_ns = 0;
  };
  std::vector<Outstanding> outstanding;
  std::vector<Completed> done;
  uint64_t index = 0;
  for (;;) {
    while (outstanding.size() < depth && index < max_requests &&
           NowNs() < window_end_ns) {
      if (before_submit) before_submit(index);
      Outstanding o;
      o.record.request = next(index);
      o.record.request.id = first_id + index;
      ++index;
      o.start_ns = NowNs();
      auto future = service.Submit(o.record.request);
      o.submitted_ns = NowNs();
      o.record.submit_us = (o.submitted_ns - o.start_ns) / 1e3;
      if (!future.ok()) {
        o.record.response.status = future.status();
        done.push_back(std::move(o.record));
        continue;
      }
      o.future = std::move(*future);
      outstanding.push_back(std::move(o));
    }
    if (outstanding.empty()) break;
    bool any = false;
    for (size_t i = 0; i < outstanding.size();) {
      Outstanding& o = outstanding[i];
      if (o.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const int64_t ready_ns = NowNs();
      any = true;
      o.record.response = o.future.get();
      o.record.latency_ms = (ready_ns - o.start_ns) / 1e6;
      o.record.in_window = ready_ns <= window_end_ns;
      if (tracer.enabled()) {
        const int64_t id = static_cast<int64_t>(o.record.request.id);
        const int32_t span =
            tracer.Add("serve.request", o.start_ns, ready_ns,
                       Tracer::kNoParent, id);
        tracer.Add("serve.submit", o.start_ns, o.submitted_ns, span, id);
        // Response::timing's segments, laid end to end after Submit.
        const auto& t = o.record.response.timing;
        int64_t at = o.submitted_ns;
        for (const auto& [name, ms] :
             {std::pair<const char*, double>{"serve.queue", t.queue_wait_ms},
              {"serve.coalesce", t.coalesce_ms},
              {"serve.run", t.run_ms}}) {
          const int64_t end = at + static_cast<int64_t>(ms * 1e6);
          tracer.Add(name, at, end, span, id);
          at = end;
        }
      }
      done.push_back(std::move(o.record));
      if (i + 1 != outstanding.size()) o = std::move(outstanding.back());
      outstanding.pop_back();
    }
    if (!any) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return done;
}

/// Host timings and sim counters of the verification re-runs; on the serve
/// workloads they stand in for the engines the service builds internally.
struct VerifyFigures {
  SimCounters sim;
  int64_t run_ns = 0;
  uint64_t edges = 0;
  std::vector<double> create_ms, bind_ms, digest_ms;
};

/// Re-runs a seeded sample of answered requests solo, each on a fresh
/// device and engine, and compares digests.
VerifyFigures VerifySample(const ServeSetup& setup,
                           const std::vector<Completed>& done,
                           const Settings& settings, Tracer& tracer,
                           Result* result) {
  VerifyFigures fig;
  std::vector<size_t> ok;
  for (size_t i = 0; i < done.size(); ++i) {
    if (done[i].response.status.ok()) ok.push_back(i);
  }
  sage::util::Rng rng(settings.seed ^ 0x5645524946590000ull);  // "VERIFY"
  rng.Shuffle(ok);
  ok.resize(std::min(ok.size(), kVerifySample));
  std::sort(ok.begin(), ok.end());
  const auto& engine_options = setup.service->options().engine_options;
  ScopedSpan verify(tracer, "bench.verify");
  for (size_t n = 0; n < ok.size(); ++n) {
    const Completed& c = done[ok[n]];
    const Csr* csr = setup.registry.Find(c.request.graph);
    sage::sim::GpuDevice device(BenchSpec());
    int64_t t = NowNs();
    auto engine = [&] {
      ScopedSpan span(tracer, "core.create", verify.id());
      return sage::core::Engine::Create(&device, *csr, engine_options);
    }();
    fig.create_ms.push_back(MsSince(t));
    auto program = sage::apps::CreateProgram(c.request.app);
    if (!engine.ok() || !program.ok()) {
      result->Mismatch("verify " + c.request.graph + "/" + c.request.app +
                       ": cannot build a solo engine");
      continue;
    }
    t = NowNs();
    const sage::util::Status bound = [&] {
      ScopedSpan span(tracer, "core.bind", verify.id());
      return (*engine)->Bind(program->get());
    }();
    fig.bind_ms.push_back(MsSince(t));
    if (!bound.ok()) {
      result->Mismatch("verify " + c.request.graph + "/" + c.request.app +
                       ": " + bound.ToString());
      continue;
    }
    t = NowNs();
    auto stats = [&] {
      ScopedSpan span(tracer, "core.run", verify.id());
      return sage::apps::RunApp(**engine, **program, c.request.params);
    }();
    fig.run_ns += NowNs() - t;
    t = NowNs();
    uint64_t digest = 0;
    {
      ScopedSpan span(tracer, "apps.digest", verify.id());
      digest = sage::apps::OutputDigest(**engine, **program);
    }
    fig.digest_ms.push_back(MsSince(t));
    uint64_t want = c.response.output_digest;
    if (settings.corrupt_digest && n == 0) want ^= 1;
    if (!stats.ok() || digest != want) {
      result->Mismatch("request " + std::to_string(c.request.id) + " " +
                       c.request.graph + "/" + c.request.app +
                       ": served digest differs from a solo run");
    }
    if (stats.ok()) fig.edges += stats->edges_traversed;
    fig.sim.Add(device);
  }
  result->Note("verified " + std::to_string(ok.size()) +
               " sampled responses against solo runs");
  return fig;
}

/// A closed-loop workload: how to build its service and its requests.
struct ServeWorkload {
  size_t depth = 0;
  uint64_t warmup_requests = 0;
  /// Builds graphs, registry and service (timed as set-up).
  std::function<std::unique_ptr<ServeSetup>(Tracer&, int32_t)> build;
  /// Request i of the stream drawn from `rng`.
  std::function<Request(ServeSetup&, sage::util::Rng&, uint64_t)> next;
  /// Optional hook before request i (serve-cold's loads).
  std::function<void(ServeSetup&, uint64_t)> before_submit;
  /// Loads made during the window and their timings (serve-cold).
  std::vector<double> load_ms;
  std::vector<double> window_add_ms;
  uint64_t loads_attempted = 0;
  uint64_t add_retries = 0;  ///< loads refused by a full registry, retried
  std::vector<std::string> load_errors;
};

uint64_t CounterOr0(const sage::util::MetricsSnapshot& snap,
                    const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

Result RunServe(const Settings& settings, ServeWorkload& w) {
  Result result;
  Tracer tracer(settings.trace);
  const int64_t process_start = NowNs();

  std::vector<double> setup_s;
  std::vector<double> generate_ms;
  std::unique_ptr<ServeSetup> setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    setup.reset();  // tear the previous repeat down outside the timing
    const int64_t start = NowNs();
    ScopedSpan span(tracer, "bench.setup");
    setup = w.build(tracer, span.id());
    generate_ms.push_back(setup->generate_ms);
    // Warm-up: a fixed number of requests from a separate stream builds
    // the warm engines and programs the window will use.
    {
      ScopedSpan warm(tracer, "bench.warmup", span.id());
      sage::util::Rng rng(settings.seed * 31 + 7);
      Tracer off(false);
      const auto warm_done = ClosedLoop(
          *setup->service, off, w.depth, INT64_MAX, w.warmup_requests,
          1ull << 40, [&](uint64_t i) { return w.next(*setup, rng, i); });
      for (const Completed& c : warm_done) {
        if (!c.response.status.ok()) {
          result.Mismatch("warm-up request failed: " +
                          c.response.status.ToString());
        }
      }
    }
    setup_s.push_back((NowNs() - start) / 1e9);
  }
  const auto before = setup->service->metrics().Snapshot();

  // Timed window.
  sage::util::Rng rng(settings.seed);
  const int64_t window_start = NowNs();
  const int64_t window_end =
      window_start + static_cast<int64_t>(settings.seconds * 1e9);
  std::vector<Completed> done = ClosedLoop(
      *setup->service, tracer, w.depth, window_end, UINT64_MAX, 0,
      [&](uint64_t i) { return w.next(*setup, rng, i); },
      w.before_submit
          ? std::function<void(uint64_t)>(
                [&](uint64_t i) { w.before_submit(*setup, i); })
          : nullptr);
  const double window_s = (window_end - window_start) / 1e9;
  const auto after = setup->service->metrics().Snapshot();

  std::vector<double> latency_ms, submit_us, queue_ms, coalesce_ms, run_ms,
      run_per_req;
  double edges = 0.0;
  double inverse_batch = 0.0;
  uint64_t ok_in_window = 0;
  for (const Completed& c : done) {
    ++result.attempted;
    if (!c.response.status.ok()) {
      ++result.failed;
      continue;
    }
    if (!c.in_window) continue;
    ++ok_in_window;
    const auto& t = c.response.timing;
    const double batch = std::max<uint32_t>(1, c.response.batch_size);
    latency_ms.push_back(c.latency_ms);
    submit_us.push_back(c.submit_us);
    queue_ms.push_back(t.queue_wait_ms);
    coalesce_ms.push_back(t.coalesce_ms);
    run_ms.push_back(t.run_ms);
    run_per_req.push_back(t.run_ms / batch);
    edges += c.response.stats.edges_traversed / batch;
    inverse_batch += 1.0 / batch;
  }
  // Window loads are operations too: a load that fails counts.
  result.attempted += w.loads_attempted;
  result.failed += w.load_errors.size();
  if (!w.load_errors.empty()) {
    result.Note("failed load " + w.load_errors.front());
  }
  for (const Completed& c : done) {
    if (!c.response.status.ok()) {
      result.Note("failed request " + std::to_string(c.request.id) + ": " +
                  c.response.status.ToString());
      break;  // one example is enough; the count is in `failed`
    }
  }

  const VerifyFigures fig =
      VerifySample(*setup, done, settings, tracer, &result);
  result.attempted += std::min(done.size(), kVerifySample);

  result.E2e("setup_s", Median(setup_s), "s", setup_s.size());
  result.E2e("edges_per_s", edges / window_s, "edges/s");
  result.E2e("req_per_s", ok_in_window / window_s, "req/s");
  result.E2e("latency_ms_p50", Percentile(latency_ms, 50), "ms",
             latency_ms.size());
  result.E2e("latency_ms_p99", Percentile(latency_ms, 99), "ms",
             latency_ms.size());
  result.E2e("ok_frac",
             static_cast<double>(result.attempted - result.failed) /
                 std::max<uint64_t>(1, result.attempted),
             "ratio");
  result.E2e("peak_rss_mb", PeakRssMb(), "MB");
  result.Note("threads: generator=1 workers=" +
              std::to_string(setup->service->options().worker_threads) +
              " host_threads=1");
  result.Note(settings.workload + ": " + std::to_string(done.size()) +
              " requests, " + std::to_string(w.depth) + " outstanding, " +
              std::to_string(setup->service->options().worker_threads) +
              " workers + 1 generator thread; latency samples " +
              std::to_string(latency_ms.size()) + " (in window)");

  if (!settings.trace) return result;

  auto delta = [&](const std::string& name) {
    return static_cast<double>(CounterOr0(after, name) -
                               CounterOr0(before, name));
  };
  double shed = 0.0;
  for (const char* cls : {"interactive", "batch", "best_effort"}) {
    shed += delta(std::string("serve.shed.") + cls);
  }
  std::vector<double> add_ms = setup->add_ms;
  add_ms.insert(add_ms.end(), w.window_add_ms.begin(), w.window_add_ms.end());
  const uint64_t sectors = fig.sim.all_sectors();
  AddSimMetrics(fig.sim,
                sectors == 0 ? 0.0 : fig.run_ns / static_cast<double>(sectors),
                &result);
  // Per-cell figures belong to traverse.
  for (const char* cell : kTraverseCells) {
    result.Layer(std::string("sim.ns_per_sector.") + cell, 0.0, "ns");
    result.Layer(RunMetricOf(cell), 0.0, "ms");
  }
  result.Layer("trace.edges_per_s", 0.0, "edges/s");
  result.Layer("core.ns_per_edge",
               fig.edges == 0 ? 0.0 : fig.run_ns / static_cast<double>(fig.edges),
               "ns");
  result.Layer("core.create_ms", Median(fig.create_ms), "ms",
               fig.create_ms.size());
  result.Layer("core.bind_ms", Median(fig.bind_ms), "ms", fig.bind_ms.size());
  result.Layer("graph.generate_ms", Median(generate_ms), "ms",
               generate_ms.size());
  result.Layer("graph.load_ms", Median(w.load_ms), "ms", w.load_ms.size());
  result.Layer("serve.registry_add_ms", Median(add_ms), "ms", add_ms.size());
  const size_t n = latency_ms.size();
  result.Layer("serve.submit_us_p50", Percentile(submit_us, 50), "us", n);
  result.Layer("serve.submit_us_p99", Percentile(submit_us, 99), "us", n);
  result.Layer("serve.queue_wait_ms_p50", Percentile(queue_ms, 50), "ms", n);
  result.Layer("serve.queue_wait_ms_p99", Percentile(queue_ms, 99), "ms", n);
  result.Layer("serve.coalesce_ms_p99", Percentile(coalesce_ms, 99), "ms", n);
  result.Layer("serve.run_ms_p50", Percentile(run_ms, 50), "ms", n);
  result.Layer("serve.run_ms_p99", Percentile(run_ms, 99), "ms", n);
  result.Layer("serve.run_ms_per_req", Mean(run_per_req), "ms", n);
  result.Layer("serve.batch_size_mean",
               inverse_batch == 0.0 ? 0.0 : ok_in_window / inverse_batch,
               "requests");
  result.Layer("serve.samples", static_cast<double>(latency_ms.size()),
               "count");
  result.Layer("serve.dispatches", delta("serve.batches"), "count");
  result.Layer("serve.engines_created", delta("serve.engines_created"),
               "count");
  result.Layer("serve.cache.evictions", delta("serve.cache.evictions"),
               "count");
  result.Layer("serve.shed", shed, "count");
  result.Layer("serve.rejected", delta("serve.rejected"), "count");
  result.Layer("serve.add_retries", static_cast<double>(w.add_retries),
               "count");
  result.Layer("apps.digest_ms", Median(fig.digest_ms), "ms",
               fig.digest_ms.size());
  result.Layer("trace.req_per_s", ok_in_window / window_s, "req/s");
  FinishTrace(tracer, settings, process_start, NowNs(), &result);
  return result;
}

/// Every node with at least one out-edge.
std::vector<NodeId> NonIsolated(const Csr& csr) {
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < csr.num_nodes(); ++v) {
    if (csr.OutDegree(v) > 0) nodes.push_back(v);
  }
  return nodes;
}

/// `count` distinct seeded sources with at least one out-edge.
std::vector<NodeId> HotSet(const Csr& csr, size_t count, uint64_t seed) {
  sage::util::Rng rng(seed);
  std::vector<NodeId> nodes = NonIsolated(csr);
  rng.Shuffle(nodes);
  nodes.resize(std::min(nodes.size(), count));
  return nodes;
}

}  // namespace

Result RunServeHot(const Settings& settings) {
  constexpr size_t kHotSet = 256;
  ServeWorkload w;
  w.depth = 128;
  w.warmup_requests = 128;
  w.build = [&](Tracer& tracer, int32_t parent) {
    auto setup = std::make_unique<ServeSetup>();
    const uint64_t s = settings.seed;
    int64_t t = NowNs();
    Csr rmat, web;
    {
      ScopedSpan span(tracer, "graph.generate", parent);
      rmat = sage::graph::GenerateRmat(12, 12 * 4096, 0.57, 0.19, 0.19,
                                       s * 2 + 1);
      web = sage::graph::GenerateWebCopy(12000, 8, 0.7, s * 2 + 2);
    }
    setup->generate_ms = MsSince(t);
    setup->sources["rmat-12"] = HotSet(rmat, kHotSet, s + 11);
    setup->sources["web-12k"] = HotSet(web, kHotSet, s + 12);
    setup->AddOrThrow("rmat-12", std::move(rmat), tracer, parent);
    setup->AddOrThrow("web-12k", std::move(web), tracer, parent);
    setup->service = std::make_unique<sage::serve::QueryService>(
        &setup->registry, BaseOptions());
    return setup;
  };
  w.next = [](ServeSetup& setup, sage::util::Rng& rng, uint64_t) {
    Request r;
    r.graph = setup.graphs[rng.UniformU32(setup.graphs.size())];
    const auto& hot = setup.sources[r.graph];
    const double u = rng.UniformDouble();
    if (u < 0.85) {
      r.app = "bfs";
      r.params.sources = {hot[rng.Zipf(hot.size(), 1.0)]};
    } else if (u < 0.95) {
      r.app = "pagerank";
      r.params.iterations = kPrIterations;
    } else {
      r.app = "sssp";
      r.params.sources = {hot[rng.UniformU32(hot.size())]};
    }
    return r;
  };
  return RunServe(settings, w);
}

Result RunServeCold(const Settings& settings) {
  /// A graph is loaded from disk before every kLoadEvery-th request.
  constexpr uint64_t kLoadEvery = 50;
  constexpr uint64_t kLjEvery = 20;
  constexpr int kLoadFiles = 4;
  /// Per-engine resident-CSR budget: ljournal-s is over it, the small
  /// graphs are far under it.
  constexpr uint64_t kEngineBudget = 1 << 20;
  /// A refused load is retried for up to kAddAttempts * kAddRetryPause.
  constexpr int kAddAttempts = 400;
  constexpr auto kAddRetryPause = std::chrono::milliseconds(5);
  ServeWorkload w;
  w.depth = 6;
  w.warmup_requests = 24;
  const std::string dir = settings.workdir + "/cold-" +
                          std::to_string(settings.seed) + "-" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  // The run-private graph files go away on every exit path.
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } remove_dir{dir};
  uint64_t pool_allowance = 0;
  uint64_t loads = 0;
  std::string newest;
  Tracer* window_tracer = nullptr;

  w.build = [&](Tracer& tracer, int32_t parent) {
    window_tracer = &tracer;
    auto setup = std::make_unique<ServeSetup>();
    const uint64_t s = settings.seed;
    int64_t t = NowNs();
    std::vector<std::pair<std::string, Csr>> graphs;
    {
      ScopedSpan span(tracer, "graph.generate", parent);
      graphs.emplace_back("ljournal-s",
                          sage::graph::MakeDataset(
                              sage::graph::DatasetId::kLjournals,
                              sage::graph::DatasetScale::kBench));
      graphs.emplace_back("rmat-11", sage::graph::GenerateRmat(
                                         11, 8 * 2048, 0.57, 0.19, 0.19,
                                         s * 8 + 1));
      graphs.emplace_back("web-3k",
                          sage::graph::GenerateWebCopy(3000, 8, 0.7, s * 8 + 2));
      graphs.emplace_back("uniform-2k",
                          sage::graph::GenerateUniform(2000, 16000, s * 8 + 3));
      graphs.emplace_back("community-2k", sage::graph::GenerateCommunity(
                                              2048, 8, 256, 0.8, s * 8 + 4));
      // The files loaded during the window: big enough that a few warm
      // pools of them outgrow the pool allowance, so loads keep evicting.
      for (int k = 0; k < kLoadFiles; ++k) {
        const Csr g = sage::graph::GenerateRmat(13, 8 << 13, 0.55, 0.2, 0.2,
                                                s * 8 + 5 + k);
        const std::string path = dir + "/load-" + std::to_string(k) +
                                 ".sagecsr";
        if (!sage::graph::SaveCsrBinary(g, path).ok()) {
          throw std::runtime_error("cannot write " + path);
        }
      }
    }
    setup->generate_ms = MsSince(t);
    // Room for every worker to hold a busy ljournal-s engine, so a load
    // always fits once idle pools are shed; beyond that, loads evict.
    pool_allowance = WorkerThreads() * graphs[0].second.MemoryBytes();
    for (auto& [name, csr] : graphs) {
      setup->sources[name] = NonIsolated(csr);
      setup->AddOrThrow(name, std::move(csr), tracer, parent);
    }
    auto options = BaseOptions();
    options.engine_options.memory_budget_bytes = kEngineBudget;
    setup->service = std::make_unique<sage::serve::QueryService>(
        &setup->registry, options);
    setup->registry.set_memory_budget_bytes(setup->csr_bytes + pool_allowance);
    setup->registry.set_evictor(setup->service.get());
    loads = 0;
    newest.clear();
    return setup;
  };
  w.next = [&](ServeSetup& setup, sage::util::Rng& rng, uint64_t i) {
    Request r;
    // Every kLjEvery-th request is an out-of-core ljournal-s bfs, at fixed
    // positions so each run carries the same share of this heavy request.
    if (i % kLjEvery == kLjEvery / 2) {
      r.graph = "ljournal-s";
    } else if (rng.UniformDouble() < 0.37 && !newest.empty()) {
      r.graph = newest;
    } else {
      r.graph = setup.graphs[1 + rng.UniformU32(setup.graphs.size() - 1)];
    }
    const auto& sources = setup.sources[r.graph];
    auto source = [&] { return sources[rng.UniformU32(sources.size())]; };
    const double u = rng.UniformDouble();
    if (r.graph == "ljournal-s" || u < 0.15) {
      r.app = "bfs";
      r.params.sources = {source()};
    } else if (u < 0.3) {
      r.app = "msbfs";
      for (int k = 0; k < 4; ++k) r.params.sources.push_back(source());
    } else {
      r.app = "sssp";
      r.params.sources = {source()};
    }
    return r;
  };
  w.before_submit = [&](ServeSetup& setup, uint64_t i) {
    if (i % kLoadEvery != kLoadEvery - 1) return;
    Tracer& tracer = *window_tracer;
    const std::string path =
        dir + "/load-" + std::to_string(loads % kLoadFiles) + ".sagecsr";
    ++w.loads_attempted;
    const std::string name = "loaded-" + std::to_string(loads++);
    sage::util::Status added;
    // GraphRegistry::Add evicts once, then refuses with kResourceExhausted
    // when a dispatch claimed a new engine in between or busy engines held
    // the memory. Like any client of a full service, the generator pauses,
    // letting in-flight requests finish, and loads again; the retries are
    // counted (serve.add_retries), and only a load that never fits fails.
    for (int attempt = 0; attempt < kAddAttempts; ++attempt) {
      if (attempt > 0) {
        ++w.add_retries;
        std::this_thread::sleep_for(kAddRetryPause);
      }
      int64_t t = NowNs();
      auto csr = [&] {
        ScopedSpan span(tracer, "graph.load");
        return sage::graph::LoadCsrBinary(path);
      }();
      w.load_ms.push_back(MsSince(t));
      added = csr.status();
      if (!added.ok()) break;
      setup.sources[name] = NonIsolated(*csr);
      setup.registry.set_memory_budget_bytes(
          setup.csr_bytes + csr->MemoryBytes() + pool_allowance);
      added = setup.Add(name, std::move(*csr), tracer, Tracer::kNoParent,
                        &w.window_add_ms);
      if (added.code() != sage::util::StatusCode::kResourceExhausted) break;
    }
    if (!added.ok()) {
      w.load_errors.push_back(name + ": " + added.ToString());
      return;
    }
    newest = name;
  };
  Result result = RunServe(settings, w);
  result.Note("serve-cold: " + std::to_string(loads) +
              " graphs loaded from disk during the window");
  return result;
}

}  // namespace sagebench
