// Correctness checks on a served clustering. Kept apart from the
// workloads so check_test.cc can feed them hand-made and corrupted
// clusterings.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "data/types.h"

namespace perfbench {

using Clusters = std::vector<std::vector<dynamicc::ObjectId>>;

/// Lowest pairwise F1 against the from-scratch batch clustering that
/// still counts as a correct served clustering. The paper's claim is
/// "close to batch F1"; every workload here measures well above it.
constexpr double kMinF1VsBatch = 0.6;

struct ClusteringVerdict {
  /// `served` holds every live id exactly once and nothing else.
  bool partition_ok = false;
  /// First violation found (empty when partition_ok).
  std::string problem;
  /// Pairwise F1 of `served` against the batch reference.
  double f1 = 0.0;

  bool ok() const { return partition_ok && f1 >= kMinF1VsBatch; }
};

/// Checks that `served` partitions exactly `live` and scores it against
/// `reference` (the batch clustering of the same records).
ClusteringVerdict CheckClustering(const Clusters& served,
                                  const std::vector<dynamicc::ObjectId>& live,
                                  const Clusters& reference);

/// Records whose cluster differs between two clusterings (present in
/// only one, or grouped with different members): 0 when they are equal.
size_t DivergentRecords(const Clusters& a, const Clusters& b);

/// The fault the --corrupt flag injects: the first member of the largest
/// cluster is lost. Used to prove the checks catch a bad result.
void CorruptClustering(Clusters* clusters);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
