// Host-time benchmark of the Chaos simulator.
//
//   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// One process runs one workload: it generates the input from the seed
// (timed as setup_s from process start), then runs the whole simulation in
// rounds until `--seconds` have passed, checks every round's outputs, and
// prints one JSON object as its last line of standard output. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records a span around each call into a layer and reports the per-layer
// metrics, and writes the spans to <out-dir>. One simulation runs at a
// time, on this thread.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/basic.h"
#include "algorithms/runner.h"
#include "check.h"
#include "core/cluster.h"
#include "graph/mutation_log.h"
#include "graph/ref/reference.h"
#include "trace.h"
#include "workloads.h"

namespace hostbench {
namespace {

using chaos::Bucket;
using chaos::RunMetrics;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         std::find(WorkloadNames().begin(), WorkloadNames().end(), args->workload) !=
             WorkloadNames().end() &&
         args->seconds > 0;
}

struct Round {
  RunMetrics metrics;
  std::vector<double> values;
  double wall_s = 0.0;
  uint64_t edges_fed = 0;  // static workloads: edges pushed through the feed
};

Round RunStatic(const Workload& w, Tracer& tracer) {
  using P = chaos::PageRankProgram;
  Round round;
  const auto start = Clock::now();
  std::unique_ptr<chaos::Cluster<P>> cluster;
  {
    ScopedSpan build(tracer, "core.cluster_build");
    cluster = std::make_unique<chaos::Cluster<P>>(w.config, P(w.iterations));
  }
  int phase = tracer.Begin("core.ingest");
  chaos::RunResult<P> run = cluster->RunStreaming(
      w.graph.num_vertices, w.graph.weighted, [&](const chaos::Cluster<P>::BatchSink& sink) {
        sink(w.graph.edges);
        round.edges_fed += w.graph.edges.size();
        tracer.End(phase);
        phase = tracer.Begin("core.execute");
      });
  tracer.End(phase);
  round.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  round.metrics = std::move(run.metrics);
  round.values = std::move(run.values);
  return round;
}

Round RunEvolving(const Workload& w, Tracer& tracer) {
  Round round;
  chaos::JobSpec spec = chaos::MakeJob("sssp", w.graph, w.config);
  spec.params.source = w.source;
  spec.mutations = w.mutations;
  const auto start = Clock::now();
  chaos::JobResult result;
  {
    ScopedSpan run(tracer, "algorithms.run_job");
    result = chaos::RunJob(spec);
  }
  round.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  round.metrics = std::move(result.metrics);
  round.values = std::move(result.values);
  return round;
}

template <typename T>
uint64_t SumMachines(const RunMetrics& m, T chaos::MachineMetrics::*field) {
  uint64_t total = 0;
  for (const auto& mm : m.machines) {
    total += mm.*field;
  }
  return total;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Simulated counts and times read from RunMetrics: deterministic for a
// seed, so every round must repeat them exactly.
std::vector<Metric> SimulatedMetrics(const RunMetrics& m) {
  using MM = chaos::MachineMetrics;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t chunks_served = 0;
  for (const auto& d : m.devices) {
    bytes_read += d.bytes_read;
    bytes_written += d.bytes_written;
    chunks_served += d.chunks_served;
  }
  uint64_t acquires = 0;
  chaos::TimeNs stall = 0;
  for (const auto& p : m.pools) {
    acquires += p.acquires;
    stall += p.stall_time;
  }
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> out = {
      {"core.supersteps", count(m.supersteps), "count"},
      {"core.edges_scanned", count(SumMachines(m, &MM::edges_processed)), "count"},
      {"core.updates_emitted", count(SumMachines(m, &MM::updates_emitted)), "count"},
      {"core.updates_gathered", count(SumMachines(m, &MM::updates_processed)), "count"},
      {"core.chunks_fetched", count(SumMachines(m, &MM::chunks_fetched)), "count"},
      {"steal.proposals_sent", count(m.StealProposalsSent()), "count"},
      {"steal.requests_declined", count(m.StealRequestsDeclined()), "count"},
      {"steal.victim_misses", count(SumMachines(m, &MM::victim_misses)), "count"},
      {"steal.partitions_granted", count(m.PartitionsGranted()), "count"},
      {"steal.stolen_chunks", count(m.StolenChunks()), "count"},
      {"steal.backoffs", count(m.StealBackoffs()), "count"},
      {"steal.proposals_combined", count(m.StealProposalsCombined()), "count"},
      {"net.messages", count(m.messages), "count"},
      {"net.bytes", count(m.network_bytes), "B"},
      {"net.incast_events", count(m.incast_events), "count"},
      {"net.update_wire_bytes_saved", count(m.UpdateWireBytesSaved()), "B"},
      {"storage.bytes_read", count(bytes_read), "B"},
      {"storage.bytes_written", count(bytes_written), "B"},
      {"storage.chunks_served", count(chunks_served), "count"},
      {"storage.device_utilization", m.MeanDeviceUtilization(), "ratio"},
      {"pool.peak_bytes", count(m.PeakMemoryBytes()), "B"},
      {"pool.spill_bytes", count(m.SpillBytesMoved()), "B"},
      {"pool.stall_ms", static_cast<double>(stall) / 1e6, "ms"},
      {"pool.acquires", count(acquires), "count"},
      {"mutate.epochs", count(m.mutation_epochs.size()), "count"},
      {"mutate.edges_applied", count(m.MutationEdgesApplied()), "count"},
      {"mutate.frontier", count(m.MutationFrontierTotal()), "count"},
      {"mutate.resets", count(m.MutationResetsTotal()), "count"},
  };
  static constexpr std::pair<Bucket, const char*> kBuckets[] = {
      {Bucket::kGpMaster, "gp_master"}, {Bucket::kGpSteal, "gp_steal"},
      {Bucket::kCopy, "copy"},          {Bucket::kMerge, "merge"},
      {Bucket::kMergeWait, "merge_wait"}, {Bucket::kBarrier, "barrier"},
      {Bucket::kPreprocess, "preprocess"}, {Bucket::kCheckpoint, "checkpoint"},
      {Bucket::kMutate, "mutate"},
  };
  static_assert(std::size(kBuckets) == static_cast<size_t>(Bucket::kNumBuckets));
  for (const auto& [bucket, name] : kBuckets) {
    out.push_back({std::string("sim.bucket.") + name + "_s",
                   static_cast<double>(m.SumBucket(bucket)) / 1e9, "s"});
  }
  return out;
}

RunTotals Totals(const RunMetrics& m) {
  using MM = chaos::MachineMetrics;
  RunTotals t;
  t.edges_scanned = SumMachines(m, &MM::edges_processed);
  t.updates_emitted = SumMachines(m, &MM::updates_emitted);
  t.updates_gathered = SumMachines(m, &MM::updates_processed);
  t.partitions_granted = m.PartitionsGranted();
  t.mutation_epochs = m.mutation_epochs.size();
  t.spill_bytes = m.SpillBytesMoved();
  for (const auto& p : m.pools) {
    t.pool_budgets.push_back(p.budget_bytes);
    t.pool_peaks.push_back(p.peak_bytes);
  }
  return t;
}

// True when `b` repeats `a`'s simulated metrics and values bit for bit.
bool SameRun(const Round& a, const Round& b) {
  const std::vector<Metric> ma = SimulatedMetrics(a.metrics);
  const std::vector<Metric> mb = SimulatedMetrics(b.metrics);
  for (size_t i = 0; i < ma.size(); ++i) {
    if (std::memcmp(&ma[i].value, &mb[i].value, sizeof(double)) != 0) {
      return false;
    }
  }
  return a.metrics.total_time == b.metrics.total_time && a.values.size() == b.values.size() &&
         std::memcmp(a.values.data(), b.values.data(), a.values.size() * sizeof(double)) == 0;
}

// Checks one round's outputs against the reference models. Records the
// graph.mutation_log span: MutationLog construction plus GraphAfter(k),
// the same calls the evolving driver makes.
std::vector<std::string> Check(const Workload& w, const Round& round, Tracer& tracer) {
  ScopedSpan span(tracer, "check");
  std::vector<std::string> errors;
  Expect expect = w.expect;
  if (w.kind == Kind::kStatic) {
    expect.edges_scanned = static_cast<uint64_t>(w.iterations) * round.edges_fed;
    CheckPageRank(round.values, chaos::ref::PageRank(w.graph, static_cast<int>(w.iterations)),
                  &errors);
  } else {
    chaos::InputGraph mutated;
    {
      ScopedSpan log_span(tracer, "graph.mutation_log");
      const chaos::MutationLog log(w.graph, w.mutations.log);
      mutated = log.GraphAfter(log.num_batches());
    }
    const chaos::InputGraph prepared = chaos::PrepareInput("sssp", mutated);
    CheckDistances(round.values, chaos::ref::DijkstraDistances(prepared, w.source), &errors);
    CheckReach(round.values, w.min_reach, &errors);
  }
  CheckTotals(Totals(round.metrics), expect, &errors);
  return errors;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

int Main(const Args& args) {
  Tracer tracer(args.trace);
  int setup_span = tracer.Begin("setup");
  Workload w = MakeWorkload(args.workload, args.seed, tracer);
  tracer.End(setup_span);
  const double setup_s = static_cast<double>(NowNs()) / 1e9;
  if (w.kind == Kind::kEvolving) {
    ScopedSpan span(tracer, "graph.choose_source");
    w.source = GiantComponentSource(w.graph);
  }

  // Timed region: whole rounds until --seconds have passed. Each round
  // after the first must repeat the first bit for bit.
  std::vector<Round> kept;  // the first round, whose outputs are checked
  std::vector<double> walls;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const auto start = Clock::now();
  do {
    Round round = w.kind == Kind::kStatic ? RunStatic(w, tracer) : RunEvolving(w, tracer);
    ++attempted;
    walls.push_back(round.wall_s);
    if (kept.empty()) {
      kept.push_back(std::move(round));
    } else if (!SameRun(kept.front(), round)) {
      ++failed;
      std::fprintf(stderr, "round %llu differs from round 1\n",
                   static_cast<unsigned long long>(attempted));
    }
  } while (std::chrono::duration<double>(Clock::now() - start).count() < args.seconds);
  const double peak_rss_mb = PeakRssMiB();

  const Round& first = kept.front();
  const std::vector<std::string> errors = Check(w, first, tracer);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  if (!errors.empty()) {
    failed = attempted;  // every round that matched round 1 fails with it
  }

  const double wall_s = Median(walls);
  const double sim_s = first.metrics.total_seconds();
  const std::vector<Metric> sim = SimulatedMetrics(first.metrics);
  const auto edges_scanned = static_cast<double>(Totals(first.metrics).edges_scanned);
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"wall_s", wall_s, "s"},
        {"setup_s", setup_s, "s"},
        {"edges_per_s", edges_scanned / wall_s, "edges/s"},
        {"sim_s", sim_s, "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
  } else {
    auto span_ms = [&](const char* name) { return Median(tracer.DurationsMs(name)); };
    const double messages = static_cast<double>(first.metrics.messages);
    metrics = {
        {"graph.generate_ms", span_ms("graph.generate"), "ms"},
        {"graph.prepare_ms", span_ms("graph.prepare"), "ms"},
        {"graph.mutation_log_ms", span_ms("graph.mutation_log"), "ms"},
        {"core.cluster_build_ms", span_ms("core.cluster_build"), "ms"},
        {"core.ingest_ms", span_ms("core.ingest"), "ms"},
        {"core.execute_ms", span_ms("core.execute"), "ms"},
        {"algorithms.run_job_ms", span_ms("algorithms.run_job"), "ms"},
        {"core.host_ns_per_edge", edges_scanned > 0 ? wall_s * 1e9 / edges_scanned : 0.0, "ns"},
        {"net.host_ns_per_message", messages > 0 ? wall_s * 1e9 / messages : 0.0, "ns"},
        {"sim.host_s_per_sim_s", sim_s > 0 ? wall_s / sim_s : 0.0, "ratio"},
    };
    metrics.insert(metrics.end(), sim.begin(), sim.end());
  }

  const std::string result = ResultJson(errors.empty() && failed == 0, attempted, failed, metrics);
  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + (args.trace ? "-trace" : "");
    if (FILE* f = std::fopen((stem + ".result.json").c_str(), "w")) {
      std::fprintf(f, "%s\n", result.c_str());
      std::fclose(f);
    }
    if (args.trace && !tracer.WriteJson(stem + ".spans.json")) {
      std::fprintf(stderr, "cannot write %s.spans.json\n", stem.c_str());
      return 1;
    }
  }
  std::printf("workload=%s seed=%llu setup_s=%.4f sim_s=%.6f round wall_s:",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), setup_s, sim_s);
  for (const double wall : walls) {
    std::printf(" %.4f", wall);
  }
  std::printf("\n");
  std::printf("%s\n", result.c_str());
  return errors.empty() && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  hostbench::Args args;
  if (!hostbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hostbench --workload <scan_pagerank|steal_storm|evolve_spill> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  return hostbench::Main(args);
}
