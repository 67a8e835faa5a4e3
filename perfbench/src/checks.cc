#include "checks.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "eval/pair_metrics.h"

namespace perfbench {

ClusteringVerdict CheckClustering(const Clusters& served,
                                  const std::vector<dynamicc::ObjectId>& live,
                                  const Clusters& reference) {
  ClusteringVerdict verdict;
  std::unordered_set<dynamicc::ObjectId> expected(live.begin(), live.end());
  std::unordered_set<dynamicc::ObjectId> seen;
  for (const auto& cluster : served) {
    if (cluster.empty()) {
      verdict.problem = "empty cluster";
      break;
    }
    for (dynamicc::ObjectId id : cluster) {
      if (expected.count(id) == 0) {
        verdict.problem = "id " + std::to_string(id) + " is not live";
        break;
      }
      if (!seen.insert(id).second) {
        verdict.problem = "id " + std::to_string(id) + " served twice";
        break;
      }
    }
    if (!verdict.problem.empty()) break;
  }
  if (verdict.problem.empty() && seen.size() != expected.size()) {
    verdict.problem = std::to_string(expected.size() - seen.size()) +
                      " live ids missing";
  }
  verdict.partition_ok = verdict.problem.empty();
  // Pair counting assumes both sides cover one object set; score only a
  // valid partition.
  verdict.f1 = verdict.partition_ok ? dynamicc::PairF1(served, reference)
                                    : 0.0;
  return verdict;
}

size_t DivergentRecords(const Clusters& a, const Clusters& b) {
  auto cluster_of = [](const Clusters& clusters) {
    std::unordered_map<dynamicc::ObjectId, std::vector<dynamicc::ObjectId>>
        map;
    for (const auto& cluster : clusters) {
      std::vector<dynamicc::ObjectId> sorted = cluster;
      std::sort(sorted.begin(), sorted.end());
      for (dynamicc::ObjectId id : cluster) map[id] = sorted;
    }
    return map;
  };
  const auto in_a = cluster_of(a);
  const auto in_b = cluster_of(b);
  size_t divergent = 0;
  for (const auto& [id, members] : in_a) {
    auto it = in_b.find(id);
    if (it == in_b.end() || it->second != members) ++divergent;
  }
  for (const auto& entry : in_b) divergent += in_a.count(entry.first) == 0;
  return divergent;
}

void CorruptClustering(Clusters* clusters) {
  if (clusters->empty()) return;
  auto largest = std::max_element(
      clusters->begin(), clusters->end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  largest->erase(largest->begin());
  if (largest->empty()) clusters->erase(largest);
}

}  // namespace perfbench
