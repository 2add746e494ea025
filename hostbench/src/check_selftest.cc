// Self-test of the benchmark's output checks: a correct result must pass,
// and each perturbation (a vertex value moved beyond tolerance, an
// edge-scan total off by one, ...) must fail. Exits 0 only if every case
// behaves. Run through `python3 hostbench/run.py --self-test`.
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "check.h"

using hostbench::Expect;
using hostbench::RunTotals;

namespace {

int g_failures = 0;

void Case(const char* name, bool want_pass,
          const std::function<void(std::vector<std::string>*)>& run) {
  std::vector<std::string> errors;
  run(&errors);
  const bool passed = errors.empty();
  if (passed != want_pass) {
    ++g_failures;
    std::printf("FAIL %s: checker %s\n", name,
                passed ? "accepted a wrong result" : "rejected a right one");
    for (const std::string& e : errors) {
      std::printf("  %s\n", e.c_str());
    }
  } else {
    std::printf("ok   %s\n", name);
  }
}

}  // namespace

int main() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> ranks = {0.15, 1.0, 2.5, 40.0};
  const std::vector<double> dists = {0.0, 1.5, kInf, 7.25};

  RunTotals totals;
  totals.edges_scanned = 5 * 1000;
  totals.updates_emitted = totals.updates_gathered = 4321;
  totals.partitions_granted = 3;
  totals.mutation_epochs = 4;
  totals.spill_bytes = 1 << 20;
  totals.pool_budgets = {1 << 20, 1 << 20};
  totals.pool_peaks = {1 << 20, 900000};
  Expect expect;
  expect.edges_scanned = 5 * 1000;
  expect.steals_granted = true;
  expect.mutation_epochs = 4;
  expect.spills = true;
  expect.pool_budget = 1 << 20;

  Case("pagerank exact", true, [&](auto* e) { hostbench::CheckPageRank(ranks, ranks, e); });
  Case("pagerank within tolerance", true, [&](auto* e) {
    std::vector<double> got = ranks;
    got[3] += 0.9e-3 * (1.0 + 40.0);
    hostbench::CheckPageRank(got, ranks, e);
  });
  Case("pagerank vertex beyond tolerance", false, [&](auto* e) {
    std::vector<double> got = ranks;
    got[2] += 1.1e-3 * (1.0 + 2.5);
    hostbench::CheckPageRank(got, ranks, e);
  });
  Case("pagerank NaN", false, [&](auto* e) {
    std::vector<double> got = ranks;
    got[0] = std::numeric_limits<double>::quiet_NaN();
    hostbench::CheckPageRank(got, ranks, e);
  });
  Case("pagerank missing vertex", false, [&](auto* e) {
    hostbench::CheckPageRank({ranks.begin(), ranks.end() - 1}, ranks, e);
  });
  Case("sssp exact", true, [&](auto* e) { hostbench::CheckDistances(dists, dists, e); });
  Case("sssp vertex beyond tolerance", false, [&](auto* e) {
    std::vector<double> got = dists;
    got[3] += 2e-3;
    hostbench::CheckDistances(got, dists, e);
  });
  Case("sssp reached where unreachable", false, [&](auto* e) {
    std::vector<double> got = dists;
    got[2] = 3.0;
    hostbench::CheckDistances(got, dists, e);
  });
  Case("sssp unreachable where reached", false, [&](auto* e) {
    std::vector<double> got = dists;
    got[1] = kInf;
    hostbench::CheckDistances(got, dists, e);
  });
  Case("reach above share", true, [&](auto* e) { hostbench::CheckReach(dists, 0.5, e); });
  Case("reach below share", false, [&](auto* e) { hostbench::CheckReach(dists, 0.8, e); });
  Case("totals as expected", true, [&](auto* e) { hostbench::CheckTotals(totals, expect, e); });
  Case("edge-scan total off by one", false, [&](auto* e) {
    RunTotals t = totals;
    t.edges_scanned += 1;
    hostbench::CheckTotals(t, expect, e);
  });
  Case("update lost between emit and gather", false, [&](auto* e) {
    RunTotals t = totals;
    t.updates_gathered -= 1;
    hostbench::CheckTotals(t, expect, e);
  });
  Case("no steal granted", false, [&](auto* e) {
    RunTotals t = totals;
    t.partitions_granted = 0;
    hostbench::CheckTotals(t, expect, e);
  });
  Case("epoch skipped", false, [&](auto* e) {
    RunTotals t = totals;
    t.mutation_epochs = 3;
    hostbench::CheckTotals(t, expect, e);
  });
  Case("no spill", false, [&](auto* e) {
    RunTotals t = totals;
    t.spill_bytes = 0;
    hostbench::CheckTotals(t, expect, e);
  });
  Case("pool peak over budget", false, [&](auto* e) {
    RunTotals t = totals;
    t.pool_peaks[1] = (1 << 20) + 1;
    hostbench::CheckTotals(t, expect, e);
  });

  std::printf("%s: %d case(s) failed\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
