// Output checks of the host-time benchmark, kept free of the library so
// check_selftest.cc can feed them hand-made results.
//
// Every check appends one line per violation to `errors`; an empty list
// means the run's outputs hold. Two kinds of checks:
//  * values against a reference model computed apart from the program
//    (graph/ref), under the differential suite's tolerances;
//  * properties the method must have, through totals reached by
//    independent paths (the benchmark's own edge count, both ends of the
//    update plane, the buffer pools' budgets).
#ifndef HOSTBENCH_CHECK_H_
#define HOSTBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

// PageRank: |x - e| <= 1e-3 * (1 + |e|) for every vertex.
void CheckPageRank(const std::vector<double>& got, const std::vector<double>& want,
                   std::vector<std::string>* errors);

// SSSP distances: infinity matches infinity; finite values agree within
// 1e-3 (the mutated column of the differential suite).
void CheckDistances(const std::vector<double>& got, const std::vector<double>& want,
                    std::vector<std::string>* errors);

// The share of vertices with a finite distance must exceed `min_share`, so
// a traversal from a badly chosen source cannot pass as a measured run.
void CheckReach(const std::vector<double>& distances, double min_share,
                std::vector<std::string>* errors);

// Totals a run reports, summed over machines.
struct RunTotals {
  uint64_t edges_scanned = 0;
  uint64_t updates_emitted = 0;
  uint64_t updates_gathered = 0;
  uint64_t partitions_granted = 0;
  uint64_t mutation_epochs = 0;
  uint64_t spill_bytes = 0;
  std::vector<uint64_t> pool_budgets;  // per machine
  std::vector<uint64_t> pool_peaks;    // per machine
};

// What a workload requires of its totals; zero / empty = not checked.
struct Expect {
  uint64_t edges_scanned = 0;    // iterations x prepared edges fed (static runs)
  bool steals_granted = false;   // at least one partition granted
  uint64_t mutation_epochs = 0;  // epochs that must all be applied
  bool spills = false;           // buffer pools must have spilled
  uint64_t pool_budget = 0;      // every pool's budget, and cap on its peak
};

// Always checks updates_emitted == updates_gathered (stolen replicas
// included), plus whatever `expect` asks for.
void CheckTotals(const RunTotals& totals, const Expect& expect,
                 std::vector<std::string>* errors);

}  // namespace hostbench

#endif  // HOSTBENCH_CHECK_H_
