// traverse: pure simulator throughput, no service. A closed loop on one
// thread runs every cell (app x dataset, two out-of-core cells, two K=4
// sharded cells) on a fresh device and engine, round after round, until the
// window is spent; only whole rounds count. Outputs are checked against the
// sequential references after the window.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/bfs.h"
#include "apps/msbfs.h"
#include "apps/pagerank.h"
#include "apps/reference.h"
#include "apps/registry.h"
#include "apps/sssp.h"
#include "common.h"
#include "core/engine.h"
#include "core/sharded_engine.h"
#include "graph/datasets.h"
#include "util/random.h"

namespace sagebench {
namespace {

using sage::graph::Csr;
using sage::graph::NodeId;

constexpr uint32_t kPrIterations = 5;
constexpr uint32_t kMsBfsSources = 64;
constexpr uint32_t kShards = 4;
/// Absolute per-node tolerance of PageRank against the reference (ranks
/// sum to 1; the engine's summation order differs from the reference's).
constexpr double kPrTolerance = 1e-9;

struct Cell {
  std::string name;  ///< one of kTraverseCells
  const Csr* csr = nullptr;
  std::string app;
  sage::apps::AppParams params;
  bool out_of_core = false;
  bool sharded = false;
};

/// One execution of one cell.
struct CellRun {
  bool ok = false;
  std::string error;
  int64_t run_ns = 0;  ///< host time inside RunApp / ShardedEngine::Run
  double create_ms = 0.0;
  double bind_ms = 0.0;
  double digest_ms = 0.0;
  uint64_t edges = 0;
  uint64_t digest = 0;
  SimCounters sim;
};

sage::core::EngineOptions CellOptions(const Cell& cell) {
  sage::core::EngineOptions options;
  options.host_threads = 1;
  if (cell.out_of_core) {
    // Below the adjacency size: the adjacency pages over the PCIe link
    // through the tile cache.
    options.memory_budget_bytes = cell.csr->MemoryBytes() / 4;
  }
  return options;
}

/// Output checks that need the live engine; run only after the window.
using EngineCheck = std::function<void(const sage::core::Engine&,
                                       const sage::core::FilterProgram&)>;
using ShardedCheck = std::function<void(const sage::core::ShardedEngine&)>;

CellRun RunEngineCell(const Cell& cell, Tracer& tracer, int32_t parent,
                      const EngineCheck& check) {
  CellRun out;
  sage::sim::GpuDevice device(BenchSpec());
  int64_t t = NowNs();
  auto engine = [&] {
    ScopedSpan span(tracer, "core.create", parent);
    return sage::core::Engine::Create(&device, *cell.csr, CellOptions(cell));
  }();
  out.create_ms = MsSince(t);
  auto program = sage::apps::CreateProgram(cell.app);
  if (!engine.ok() || !program.ok()) {
    out.error = !engine.ok() ? engine.status().ToString()
                             : program.status().ToString();
    return out;
  }
  t = NowNs();
  sage::util::Status bound = [&] {
    ScopedSpan span(tracer, "core.bind", parent);
    return (*engine)->Bind(program->get());
  }();
  out.bind_ms = MsSince(t);
  if (!bound.ok()) {
    out.error = bound.ToString();
    return out;
  }
  t = NowNs();
  auto stats = [&] {
    ScopedSpan span(tracer, "core.run", parent);
    return sage::apps::RunApp(**engine, **program, cell.params);
  }();
  out.run_ns = NowNs() - t;
  if (!stats.ok()) {
    out.error = stats.status().ToString();
    return out;
  }
  t = NowNs();
  {
    ScopedSpan span(tracer, "apps.digest", parent);
    out.digest = sage::apps::OutputDigest(**engine, **program);
  }
  out.digest_ms = MsSince(t);
  out.edges = stats->edges_traversed;
  out.sim.Add(device);
  if (check) check(**engine, **program);
  out.ok = true;
  return out;
}

CellRun RunShardedCell(const Cell& cell, Tracer& tracer, int32_t parent,
                       const ShardedCheck& check) {
  CellRun out;
  sage::core::ShardOptions options;
  options.num_shards = kShards;
  options.host_threads = 1;
  options.spec = BenchSpec();
  options.engine_options = CellOptions(cell);
  int64_t t = NowNs();
  auto engine = [&] {
    ScopedSpan span(tracer, "core.sharded_create", parent);
    return sage::core::ShardedEngine::Create(*cell.csr, options);
  }();
  out.create_ms = MsSince(t);
  if (!engine.ok()) {
    out.error = engine.status().ToString();
    return out;
  }
  t = NowNs();
  auto stats = [&] {
    ScopedSpan span(tracer, "core.sharded_run", parent);
    return (*engine)->Run(cell.app, cell.params);
  }();
  out.run_ns = NowNs() - t;
  if (!stats.ok()) {
    out.error = stats.status().ToString();
    return out;
  }
  t = NowNs();
  {
    ScopedSpan span(tracer, "apps.digest", parent);
    out.digest = (*engine)->OutputDigest();
  }
  out.digest_ms = MsSince(t);
  out.edges = stats->stats.edges_traversed;
  for (uint32_t i = 0; i < (*engine)->group().size(); ++i) {
    out.sim.Add(*(*engine)->group().device(i));
  }
  if (check) check(**engine);
  out.ok = true;
  return out;
}

CellRun RunCell(const Cell& cell, Tracer& tracer,
                int32_t parent = Tracer::kNoParent,
                const EngineCheck& check = nullptr,
                const ShardedCheck& sharded_check = nullptr) {
  ScopedSpan span(tracer, "bench.cell", parent);
  return cell.sharded ? RunShardedCell(cell, tracer, span.id(), sharded_check)
                      : RunEngineCell(cell, tracer, span.id(), check);
}

/// A seeded source with out-degree >= 8, so traversals cover the graph.
NodeId PickSource(const Csr& csr, sage::util::Rng& rng) {
  for (int tries = 0; tries < 100000; ++tries) {
    const NodeId v = rng.UniformU32(csr.num_nodes());
    if (csr.OutDegree(v) >= 8) return v;
  }
  return 0;
}

std::vector<Cell> MakeCells(const Csr& lj, const Csr& uk, uint64_t seed) {
  sage::util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<Cell> cells;
  for (const auto& [dataset, csr] :
       {std::pair<std::string, const Csr*>{"ljournal-s", &lj},
        std::pair<std::string, const Csr*>{"uk-2002s", &uk}}) {
    const NodeId source = PickSource(*csr, rng);
    std::vector<NodeId> ms_sources;
    for (uint32_t i = 0; i < kMsBfsSources; ++i) {
      ms_sources.push_back(PickSource(*csr, rng));
    }
    for (const char* app : {"bfs", "sssp", "pagerank", "msbfs"}) {
      Cell cell;
      cell.name = std::string(app) + "." + dataset;
      cell.csr = csr;
      cell.app = app;
      cell.params.iterations = kPrIterations;
      if (cell.app == "msbfs") {
        cell.params.sources = ms_sources;
      } else if (cell.app != "pagerank") {
        cell.params.sources = {source};
      }
      cells.push_back(cell);
    }
  }
  // Out-of-core and sharded cells reuse ljournal-s's bfs/sssp/pagerank
  // parameters, so their digests must equal the in-core ones.
  for (const Cell& base : std::vector<Cell>(cells)) {
    if (base.csr != &lj) continue;
    if (base.app == "bfs" || base.app == "sssp") {
      Cell cell = base;
      cell.name += ".ooc";
      cell.out_of_core = true;
      cells.push_back(cell);
    }
  }
  for (const Cell& base : std::vector<Cell>(cells)) {
    if (base.csr != &lj || base.out_of_core) continue;
    if (base.app == "bfs" || base.app == "pagerank") {
      Cell cell = base;
      cell.name = "sharded." + base.app;
      cell.sharded = true;
      cells.push_back(cell);
    }
  }
  return cells;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Checks one cell's outputs against the sequential references.
class OutputChecker {
 public:
  explicit OutputChecker(Result* result) : result_(result) {}

  EngineCheck For(const Cell& cell) {
    return [this, &cell](const sage::core::Engine&,
                         const sage::core::FilterProgram& program) {
      const Csr& csr = *cell.csr;
      uint64_t bad = 0;
      if (cell.app == "bfs") {
        const auto& p = static_cast<const sage::apps::BfsProgram&>(program);
        const auto ref = sage::apps::BfsReference(csr, cell.params.sources[0]);
        for (NodeId v = 0; v < csr.num_nodes(); ++v) {
          bad += p.DistanceOf(v) != ref[v];
        }
      } else if (cell.app == "sssp") {
        const auto& p = static_cast<const sage::apps::SsspProgram&>(program);
        const auto ref = sage::apps::SsspReference(csr, cell.params.sources[0]);
        for (NodeId v = 0; v < csr.num_nodes(); ++v) {
          bad += p.DistanceOf(v) != ref[v];
        }
      } else if (cell.app == "pagerank") {
        const auto& p =
            static_cast<const sage::apps::PageRankProgram&>(program);
        bad += RankErrors(csr, [&](NodeId v) { return p.RankOf(v); });
      } else if (cell.app == "msbfs") {
        const auto& p =
            static_cast<const sage::apps::MultiSourceBfsProgram&>(program);
        for (uint32_t i = 0; i < cell.params.sources.size(); ++i) {
          const auto ref = sage::apps::BfsReference(csr, cell.params.sources[i]);
          for (NodeId v = 0; v < csr.num_nodes(); ++v) {
            bad += p.Reached(i, v) !=
                   (ref[v] != sage::apps::BfsProgram::kUnreached);
          }
        }
      }
      Report(cell, bad);
    };
  }

  ShardedCheck ForSharded(const Cell& cell) {
    return [this, &cell](const sage::core::ShardedEngine& engine) {
      uint64_t bad = 0;
      if (cell.app == "pagerank") {
        bad = RankErrors(*cell.csr,
                         [&](NodeId v) { return engine.RankOf(v); });
      } else {
        const auto ref =
            sage::apps::BfsReference(*cell.csr, cell.params.sources[0]);
        for (NodeId v = 0; v < cell.csr->num_nodes(); ++v) {
          bad += engine.DistanceOf(v) != ref[v];
        }
      }
      Report(cell, bad);
    };
  }

 private:
  template <typename RankOf>
  uint64_t RankErrors(const Csr& csr, RankOf rank_of) {
    const auto ref = sage::apps::PageRankReference(csr, kPrIterations);
    uint64_t bad = 0;
    for (NodeId v = 0; v < csr.num_nodes(); ++v) {
      bad += !(std::fabs(rank_of(v) - ref[v]) <= kPrTolerance);
    }
    return bad;
  }

  void Report(const Cell& cell, uint64_t bad) {
    if (bad != 0) {
      result_->Mismatch(cell.name + ": " + std::to_string(bad) +
                        " nodes differ from the reference");
    }
  }

  Result* result_;
};

}  // namespace

Result RunTraverse(const Settings& settings) {
  Result result;
  Tracer tracer(settings.trace);
  const int64_t process_start = NowNs();

  // Set-up, repeated; the last repetition's graphs are measured.
  std::vector<double> setup_s;
  std::vector<double> generate_ms;
  Csr lj;
  Csr uk;
  std::vector<Cell> cells;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const int64_t start = NowNs();
    ScopedSpan setup(tracer, "bench.setup");
    {
      ScopedSpan span(tracer, "graph.generate", setup.id());
      lj = sage::graph::MakeDataset(sage::graph::DatasetId::kLjournals,
                                    sage::graph::DatasetScale::kBench);
      uk = sage::graph::MakeDataset(sage::graph::DatasetId::kUk2002s,
                                    sage::graph::DatasetScale::kBench);
    }
    generate_ms.push_back(MsSince(start));
    cells = MakeCells(lj, uk, settings.seed);
    // Warm-up: one bfs per dataset faults in code and allocator pages.
    for (const Cell& cell : cells) {
      if (cell.app == "bfs" && !cell.out_of_core && !cell.sharded) {
        const CellRun warm = RunCell(cell, tracer, setup.id());
        if (!warm.ok) result.Mismatch(cell.name + " warm-up: " + warm.error);
      }
    }
    setup_s.push_back((NowNs() - start) / 1e9);
  }

  // Timed window: whole rounds of every cell. A round is this workload's
  // request: its latency is the round's wall time. (Single cells would put
  // the median in the gap between two cell sizes.)
  std::vector<std::vector<CellRun>> rounds;
  std::vector<double> round_ms;
  const int64_t window_start = NowNs();
  const int64_t window_end =
      window_start + static_cast<int64_t>(settings.seconds * 1e9);
  while (rounds.empty() || NowNs() < window_end) {
    const int64_t round_start = NowNs();
    std::vector<CellRun> round;
    for (const Cell& cell : cells) {
      round.push_back(RunCell(cell, tracer));
      ++result.attempted;
      if (!round.back().ok) {
        result.Mismatch(cell.name + " failed: " + round.back().error);
      }
    }
    rounds.push_back(std::move(round));
    round_ms.push_back(MsSince(round_start));
  }
  const double window_s = (NowNs() - window_start) / 1e9;

  // Every round must repeat the first exactly: digests and sim counters.
  const std::vector<CellRun>& first = rounds.front();
  for (const auto& round : rounds) {
    for (size_t c = 0; c < cells.size(); ++c) {
      if (round[c].digest != first[c].digest ||
          round[c].sim.all_sectors() != first[c].sim.all_sectors()) {
        result.Mismatch(cells[c].name + ": rounds differ");
      }
    }
  }

  // Output check: re-run each cell once against the references; its digest
  // must equal the window's.
  OutputChecker checker(&result);
  std::map<std::string, uint64_t> digest_of;
  for (size_t c = 0; c < cells.size(); ++c) {
    uint64_t want = first[c].digest;
    if (settings.corrupt_digest && c == 0) want ^= 1;
    const CellRun again =
        RunCell(cells[c], tracer, Tracer::kNoParent, checker.For(cells[c]),
                checker.ForSharded(cells[c]));
    if (!again.ok || again.digest != want) {
      result.Mismatch(cells[c].name + ": digest " + Hex(again.digest) +
                      " != window digest " + Hex(want));
    }
    digest_of[cells[c].name] = first[c].digest;
  }
  // Out-of-core and sharded runs must answer exactly like in-core.
  for (const auto& [variant, base] :
       std::vector<std::pair<std::string, std::string>>{
           {"bfs.ljournal-s.ooc", "bfs.ljournal-s"},
           {"sssp.ljournal-s.ooc", "sssp.ljournal-s"},
           {"sharded.bfs", "bfs.ljournal-s"}}) {
    if (digest_of[variant] != digest_of[base]) {
      result.Mismatch(variant + " digest differs from " + base);
    }
  }

  // End-to-end metrics.
  uint64_t edges = 0;
  int64_t run_ns = 0;
  for (const auto& round : rounds) {
    for (const CellRun& run : round) {
      edges += run.edges;
      run_ns += run.run_ns;
    }
  }
  const uint64_t ok_cells = result.attempted - std::min(result.attempted,
                                                        result.failed);
  result.E2e("setup_s", Median(setup_s), "s", setup_s.size());
  result.E2e("edges_per_s", edges / (run_ns / 1e9), "edges/s");
  result.E2e("req_per_s", rounds.size() / window_s, "req/s");
  result.E2e("latency_ms_p50", Percentile(round_ms, 50), "ms",
             round_ms.size());
  result.E2e("latency_ms_p99", Percentile(round_ms, 99), "ms",
             round_ms.size());
  result.E2e("ok_frac",
             static_cast<double>(ok_cells) /
                 std::max<uint64_t>(1, result.attempted),
             "ratio");
  result.E2e("peak_rss_mb", PeakRssMb(), "MB");
  result.Note("threads: generator=1 workers=0 host_threads=1");
  result.Note("traverse: " + std::to_string(rounds.size()) + " rounds x " +
              std::to_string(cells.size()) + " cells in " +
              std::to_string(window_s) + " s; latency samples " +
              std::to_string(round_ms.size()) + " (one per round)");
  for (size_t c = 0; c < cells.size(); ++c) {
    result.Note("cell " + cells[c].name + " digest " + Hex(first[c].digest) +
                " edges " + std::to_string(first[c].edges) + " sectors " +
                std::to_string(first[c].sim.all_sectors()));
  }

  if (!settings.trace) return result;

  // Per-layer metrics.
  SimCounters sim;  // one round: exact, seed-determined counts
  for (size_t c = 0; c < cells.size(); ++c) sim.Add(first[c].sim);
  std::vector<double> create_ms, bind_ms, digest_ms;
  for (const auto& round : rounds) {
    for (size_t c = 0; c < cells.size(); ++c) {
      if (!cells[c].sharded) {
        create_ms.push_back(round[c].create_ms);
        bind_ms.push_back(round[c].bind_ms);
      }
      digest_ms.push_back(round[c].digest_ms);
    }
  }
  AddSimMetrics(sim, run_ns / static_cast<double>(sim.all_sectors() *
                                                  rounds.size()),
                &result);
  for (size_t c = 0; c < cells.size(); ++c) {
    std::vector<double> ns;
    for (const auto& round : rounds) ns.push_back(round[c].run_ns);
    result.Layer("sim.ns_per_sector." + cells[c].name,
                 Median(ns) / first[c].sim.all_sectors(), "ns", ns.size());
  }
  for (size_t c = 0; c < cells.size(); ++c) {
    std::vector<double> ms;
    for (const auto& round : rounds) ms.push_back(round[c].run_ns / 1e6);
    result.Layer(RunMetricOf(cells[c].name), Median(ms), "ms", ms.size());
  }
  result.Layer("core.ns_per_edge", static_cast<double>(run_ns) / edges, "ns");
  result.Layer("core.create_ms", Median(create_ms), "ms", create_ms.size());
  result.Layer("core.bind_ms", Median(bind_ms), "ms", bind_ms.size());
  result.Layer("graph.generate_ms", Median(generate_ms), "ms",
               generate_ms.size());
  result.Layer("apps.digest_ms", Median(digest_ms), "ms", digest_ms.size());
  result.Layer("trace.edges_per_s", edges / (run_ns / 1e9), "edges/s");
  // No service and no graph files on this workload.
  AddServeNotMeasured(&result);
  result.Layer("graph.load_ms", 0.0, "ms");
  result.Layer("trace.req_per_s", 0.0, "req/s");
  FinishTrace(tracer, settings, process_start, NowNs(), &result);
  return result;
}

}  // namespace sagebench
