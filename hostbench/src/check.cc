#include "check.h"

#include <cmath>
#include <sstream>

namespace hostbench {
namespace {

// Reports at most this many per-vertex mismatches, then a count.
constexpr size_t kMaxListed = 5;

void Report(std::vector<std::string>* errors, const std::string& what, size_t mismatches) {
  if (mismatches > kMaxListed) {
    errors->push_back(what + ": " + std::to_string(mismatches) + " vertices differ in all");
  }
}

bool SizesMatch(const char* what, size_t got, size_t want, std::vector<std::string>* errors) {
  if (got == want) {
    return true;
  }
  std::ostringstream line;
  line << what << ": " << got << " values, reference has " << want;
  errors->push_back(line.str());
  return false;
}

}  // namespace

void CheckPageRank(const std::vector<double>& got, const std::vector<double>& want,
                   std::vector<std::string>* errors) {
  if (!SizesMatch("pagerank", got.size(), want.size(), errors)) {
    return;
  }
  size_t bad = 0;
  for (size_t v = 0; v < want.size(); ++v) {
    if (!(std::abs(got[v] - want[v]) <= 1e-3 * (1.0 + std::abs(want[v])))) {
      if (++bad <= kMaxListed) {
        std::ostringstream line;
        line << "pagerank: vertex " << v << " got " << got[v] << ", want " << want[v];
        errors->push_back(line.str());
      }
    }
  }
  Report(errors, "pagerank", bad);
}

void CheckDistances(const std::vector<double>& got, const std::vector<double>& want,
                    std::vector<std::string>* errors) {
  if (!SizesMatch("sssp", got.size(), want.size(), errors)) {
    return;
  }
  size_t bad = 0;
  for (size_t v = 0; v < want.size(); ++v) {
    const bool ok = std::isinf(want[v]) ? std::isinf(got[v])
                                        : !std::isinf(got[v]) && std::abs(got[v] - want[v]) <= 1e-3;
    if (!ok && ++bad <= kMaxListed) {
      std::ostringstream line;
      line << "sssp: vertex " << v << " got " << got[v] << ", want " << want[v];
      errors->push_back(line.str());
    }
  }
  Report(errors, "sssp", bad);
}

void CheckReach(const std::vector<double>& distances, double min_share,
                std::vector<std::string>* errors) {
  size_t reached = 0;
  for (const double d : distances) {
    reached += std::isinf(d) ? 0 : 1;
  }
  const double share = distances.empty() ? 0.0
                                          : static_cast<double>(reached) /
                                                static_cast<double>(distances.size());
  if (!(share > min_share)) {
    std::ostringstream line;
    line << "reach: " << reached << " of " << distances.size() << " vertices (" << share
         << "), need more than " << min_share;
    errors->push_back(line.str());
  }
}

void CheckTotals(const RunTotals& totals, const Expect& expect,
                 std::vector<std::string>* errors) {
  auto fail = [errors](const std::string& line) { errors->push_back(line); };
  if (totals.updates_emitted != totals.updates_gathered) {
    fail("updates emitted " + std::to_string(totals.updates_emitted) + " != gathered " +
         std::to_string(totals.updates_gathered));
  }
  if (expect.edges_scanned != 0 && totals.edges_scanned != expect.edges_scanned) {
    fail("edges scanned " + std::to_string(totals.edges_scanned) + " != expected " +
         std::to_string(expect.edges_scanned));
  }
  if (expect.steals_granted && totals.partitions_granted == 0) {
    fail("no partition was granted to a helper");
  }
  if (expect.mutation_epochs != 0 && totals.mutation_epochs != expect.mutation_epochs) {
    fail("mutation epochs applied " + std::to_string(totals.mutation_epochs) + " != " +
         std::to_string(expect.mutation_epochs));
  }
  if (expect.spills && totals.spill_bytes == 0) {
    fail("buffer pools never spilled");
  }
  if (expect.pool_budget != 0) {
    if (totals.pool_budgets.empty() || totals.pool_budgets.size() != totals.pool_peaks.size()) {
      fail("pool metrics missing");
    }
    for (size_t m = 0; m < totals.pool_budgets.size(); ++m) {
      if (totals.pool_budgets[m] != expect.pool_budget) {
        fail("machine " + std::to_string(m) + " pool budget " +
             std::to_string(totals.pool_budgets[m]) + " != " + std::to_string(expect.pool_budget));
      }
      if (m < totals.pool_peaks.size() && totals.pool_peaks[m] > expect.pool_budget) {
        fail("machine " + std::to_string(m) + " pool peak " + std::to_string(totals.pool_peaks[m]) +
             " over its budget " + std::to_string(expect.pool_budget));
      }
    }
  }
}

}  // namespace hostbench
