// The host-time benchmark's three workloads: their inputs, their cluster
// configurations and what their checks require. The configurations live
// here, not in bench/, so edits to the figure benches cannot move them.
#ifndef HOSTBENCH_WORKLOADS_H_
#define HOSTBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "check.h"
#include "core/config.h"
#include "core/job_spec.h"
#include "graph/types.h"
#include "trace.h"

namespace hostbench {

enum class Kind {
  kStatic,    // PageRank through Cluster<P>::RunStreaming
  kEvolving,  // incremental SSSP over mutation epochs through RunJob
};

struct Workload {
  Kind kind = Kind::kStatic;
  // Static workloads: the prepared graph the cluster ingests. Evolving: the
  // raw graph RunJob takes (the evolving driver prepares it per epoch).
  chaos::InputGraph graph;
  chaos::ClusterConfig config;
  uint32_t iterations = 0;           // PageRank
  chaos::VertexId source = 0;        // SSSP: set by GiantComponentSource
  chaos::MutationSchedule mutations; // evolving only
  double min_reach = 0.0;            // SSSP: share of vertices that must be reached
  Expect expect;                     // edges_scanned is filled per round from the feed
};

const std::vector<std::string>& WorkloadNames();

// Generates and prepares the named workload's input from `seed` and builds
// its configuration and mutation schedule — the set-up that setup_s times.
// Records graph.generate and graph.prepare spans.
Workload MakeWorkload(const std::string& name, uint64_t seed, Tracer& tracer);

// The vertex of highest degree in the largest weakly connected component
// of `g`: the evolving workload's SSSP source. The benchmark's own choice,
// so it is made after setup_s is read.
chaos::VertexId GiantComponentSource(const chaos::InputGraph& g);

}  // namespace hostbench

#endif  // HOSTBENCH_WORKLOADS_H_
