#include "workloads.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "algorithms/runner.h"
#include "graph/generators.h"
#include "graph/ref/reference.h"
#include "util/rng.h"

namespace hostbench {
namespace {

using chaos::ClusterConfig;
using chaos::InputGraph;
using chaos::TimeNs;

// The figure benches' default testbed shape at reduced scale: about four
// streaming partitions per machine, about 128 chunks per machine per scan,
// and every fixed per-request latency shrunk by chunk_bytes / 4 MiB so the
// miniature stays bandwidth-bound like the paper's SSD/40GigE testbed.
ClusterConfig MiniatureConfig(const InputGraph& g, int machines, uint64_t seed) {
  ClusterConfig cfg;
  cfg.machines = machines;
  cfg.seed = seed;
  const auto m = static_cast<uint64_t>(machines);
  cfg.memory_budget_bytes = std::max<uint64_t>(g.num_vertices * 48 / (4 * m) + 1, 4 << 10);
  cfg.chunk_bytes =
      std::min<uint64_t>(std::max<uint64_t>(g.input_wire_bytes() / (m * 128) + 1, 2 << 10),
                         4ull << 20);
  const double miniature = static_cast<double>(cfg.chunk_bytes) / static_cast<double>(4ull << 20);
  auto shrink = [miniature](TimeNs t) {
    return std::max<TimeNs>(static_cast<TimeNs>(static_cast<double>(t) * miniature), 1);
  };
  cfg.storage.access_latency = shrink(cfg.storage.access_latency);
  cfg.net.one_way_latency = shrink(cfg.net.one_way_latency);
  cfg.net.local_latency = shrink(cfg.net.local_latency);
  cfg.net.incast_backlog_threshold = shrink(cfg.net.incast_backlog_threshold);
  cfg.net.incast_penalty = shrink(cfg.net.incast_penalty);
  cfg.cost.ns_per_message = std::max(1.0, cfg.cost.ns_per_message * miniature);
  cfg.steal.backoff_initial = shrink(cfg.steal.backoff_initial);
  cfg.steal.backoff_max = shrink(cfg.steal.backoff_max);
  // The update-plane combining chaos_run turns on (library default: off).
  cfg.wire_combine = true;
  cfg.steal_combine = true;
  return cfg;
}

InputGraph Prepare(const char* algorithm, const InputGraph& raw, Tracer& tracer) {
  ScopedSpan span(tracer, "graph.prepare");
  return chaos::PrepareInput(algorithm, raw);
}

InputGraph Rmat(uint32_t scale, uint64_t seed, Tracer& tracer) {
  ScopedSpan span(tracer, "graph.generate");
  chaos::RmatOptions opt;
  opt.scale = scale;
  opt.seed = seed;
  return chaos::GenerateRmat(opt);
}

// PageRank for 5 iterations on RMAT-20 (2^24 edges), 4 healthy machines.
Workload ScanPagerank(uint64_t seed, Tracer& tracer) {
  Workload w;
  w.kind = Kind::kStatic;
  w.iterations = 5;
  w.graph = Prepare("pagerank", Rmat(20, seed, tracer), tracer);
  w.config = MiniatureConfig(w.graph, 4, seed);
  return w;
}

// PageRank on RMAT-15 at 32 machines in fig21's compute-bound regime, with
// machines 0-3 running 8x slower and the adaptive steal runtime on. Twenty
// iterations, not fig21's five: each superstep's steal race moves the
// simulated time by several percent from seed to seed, and summing twenty
// of them keeps sim_s within a few percent across seeds.
Workload StealStorm(uint64_t seed, Tracer& tracer) {
  constexpr int kMachines = 32;
  Workload w;
  w.kind = Kind::kStatic;
  w.iterations = 20;
  w.graph = Prepare("pagerank", Rmat(15, seed, tracer), tracer);
  ClusterConfig& cfg = w.config;
  cfg = MiniatureConfig(w.graph, kMachines, seed);
  // One core, NVMe-class storage and heavy per-item CPU costs, so scan
  // compute paces each superstep and a CPU straggler binds.
  cfg.cost.cores = 1;
  cfg.storage.bandwidth_bps = 10e9;
  cfg.cost.ns_per_edge_scatter = 30.0;
  cfg.cost.ns_per_update_gather = 30.0;
  cfg.cost.ns_per_vertex_apply = 20.0;
  cfg.cost.ns_per_vertex_merge = 10.0;
  // Control messages are fixed-size: full-size 4 us cost, not miniaturized.
  cfg.cost.ns_per_message = 4000.0;
  // Four streaming partitions per machine.
  cfg.memory_budget_bytes =
      std::max<uint64_t>(w.graph.num_vertices * 8 / (4 * static_cast<uint64_t>(kMachines)), 1024);
  cfg.steal.mode = chaos::StealMode::kAdaptive;
  cfg.steal.backoff = true;
  cfg.steal.victim_check = true;
  cfg.steal.steal_domain = 8;
  for (int m = 0; m < kMachines / 8; ++m) {
    chaos::FaultEvent e;
    e.machine = m;
    e.target = chaos::FaultTarget::kCpu;
    e.factor = 1.0 / 8.0;
    cfg.faults.Add(e);
  }
  w.expect.steals_granted = true;
  return w;
}

}  // namespace

// The vertex of highest degree (lowest id on ties) in the largest weakly
// connected component of `g`. Direction does not matter to either, so the
// raw graph gives the same choice as its undirected preparation.
chaos::VertexId GiantComponentSource(const InputGraph& g) {
  const std::vector<chaos::VertexId> labels = chaos::ref::ComponentLabels(g);
  std::unordered_map<chaos::VertexId, uint64_t> sizes;
  for (const chaos::VertexId label : labels) {
    ++sizes[label];
  }
  chaos::VertexId giant = 0;
  uint64_t giant_size = 0;
  for (const auto& [label, size] : sizes) {
    if (size > giant_size || (size == giant_size && label < giant)) {
      giant = label;
      giant_size = size;
    }
  }
  std::vector<uint64_t> degrees(g.num_vertices, 0);
  for (const chaos::Edge& e : g.edges) {
    ++degrees[e.src];
    ++degrees[e.dst];
  }
  chaos::VertexId best = giant;
  for (chaos::VertexId v = 0; v < g.num_vertices; ++v) {
    if (labels[v] == giant && degrees[v] > degrees[best]) {
      best = v;
    }
  }
  return best;
}

namespace {

// Incremental SSSP over four 1% hotspot mutation epochs on a weighted 2^17-page
// web graph, 4 machines, buffer pools capped at 1 MiB, checkpoint every 4
// supersteps.
Workload EvolveSpill(uint64_t seed, Tracer& tracer) {
  constexpr uint64_t kPoolBudget = 1 << 20;
  Workload w;
  w.kind = Kind::kEvolving;
  {
    ScopedSpan span(tracer, "graph.generate");
    chaos::WebGraphOptions opt;
    opt.num_pages = 1 << 17;
    opt.weighted = true;
    opt.seed = seed;
    w.graph = chaos::GenerateWebGraph(opt);
  }
  w.min_reach = 0.9;
  w.config = MiniatureConfig(Prepare("sssp", w.graph, tracer), 4, seed);
  w.config.pool_budget_bytes = kPoolBudget;
  w.config.checkpoint_interval = 4;
  w.mutations.log.num_batches = 4;
  w.mutations.log.rate = 0.01;
  // Hotspot churn: a seeded vertex set takes most inserts and deletes, which
  // keeps each epoch's re-convergence depth, and so sim_s, steadier across
  // seeds than uniform mutations on most seeds (hostbench/README.md).
  w.mutations.log.preset = chaos::MutatePreset::kHotspot;
  w.mutations.log.seed = chaos::Mix64(seed ^ 0xe701);
  w.mutations.incremental = true;
  w.expect.mutation_epochs = 4;
  w.expect.spills = true;
  w.expect.pool_budget = kPoolBudget;
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"scan_pagerank", "steal_storm", "evolve_spill"};
  return kNames;
}

Workload MakeWorkload(const std::string& name, uint64_t seed, Tracer& tracer) {
  if (name == "scan_pagerank") {
    return ScanPagerank(seed, tracer);
  }
  if (name == "steal_storm") {
    return StealStorm(seed, tracer);
  }
  if (name == "evolve_spill") {
    return EvolveSpill(seed, tracer);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace hostbench
