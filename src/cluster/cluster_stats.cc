#include "cluster/cluster_stats.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace dynamicc {

namespace {
// Aggregates below this magnitude are treated as zero when cleaning up
// sparse entries (floating-point residue from incremental +/-).
constexpr double kEpsilon = 1e-9;
}  // namespace

ClusterStatsTracker::ClusterStatsTracker(const Clustering* clustering,
                                         const SimilarityGraph* graph)
    : clustering_(clustering), graph_(graph) {
  DYNAMICC_CHECK(clustering_ != nullptr);
  DYNAMICC_CHECK(graph_ != nullptr);
}

void ClusterStatsTracker::AddInter(ClusterId a, ClusterId b, double delta) {
  total_inter_ += delta;
  // Symmetric storage: both rows carry the pair sum.
  for (int direction = 0; direction < 2; ++direction) {
    double& slot = inter_[a][b];
    slot += delta;
    if (std::abs(slot) < kEpsilon) {
      inter_[a].erase(b);
      if (inter_[a].empty()) inter_.erase(a);
    }
    std::swap(a, b);
  }
}

void ClusterStatsTracker::OnAssign(ObjectId object, ClusterId cluster) {
  for (const auto& [other, sim] : graph_->Neighbors(object)) {
    ClusterId other_cluster = clustering_->ClusterOf(other);
    if (other_cluster == kInvalidCluster) continue;
    if (other_cluster == cluster) {
      intra_[cluster] += sim;
      total_intra_ += sim;
    } else {
      AddInter(cluster, other_cluster, sim);
    }
  }
}

void ClusterStatsTracker::OnBeforeUnassign(ObjectId object,
                                           ClusterId cluster) {
  DYNAMICC_CHECK_EQ(clustering_->ClusterOf(object), cluster);
  for (const auto& [other, sim] : graph_->Neighbors(object)) {
    if (other == object) continue;
    ClusterId other_cluster = clustering_->ClusterOf(other);
    if (other_cluster == kInvalidCluster) continue;
    if (other_cluster == cluster && other != object) {
      double& slot = intra_[cluster];
      slot -= sim;
      total_intra_ -= sim;
      if (std::abs(slot) < kEpsilon) intra_.erase(cluster);
    } else if (other_cluster != cluster) {
      AddInter(cluster, other_cluster, -sim);
    }
  }
}

double ClusterStatsTracker::IntraSum(ClusterId cluster) const {
  auto it = intra_.find(cluster);
  return it == intra_.end() ? 0.0 : it->second;
}

double ClusterStatsTracker::InterSum(ClusterId a, ClusterId b) const {
  auto it = inter_.find(a);
  if (it == inter_.end()) return 0.0;
  auto jt = it->second.find(b);
  return jt == it->second.end() ? 0.0 : jt->second;
}

double ClusterStatsTracker::AverageIntraSimilarity(ClusterId cluster) const {
  size_t size = clustering_->ClusterSize(cluster);
  if (size <= 1) return 1.0;
  double pairs = 0.5 * static_cast<double>(size) * (size - 1);
  return IntraSum(cluster) / pairs;
}

double ClusterStatsTracker::AverageInterSimilarity(ClusterId a,
                                                   ClusterId b) const {
  double pairs = static_cast<double>(clustering_->ClusterSize(a)) *
                 static_cast<double>(clustering_->ClusterSize(b));
  if (pairs == 0.0) return 0.0;
  return InterSum(a, b) / pairs;
}

ClusterStatsTracker::MaxInter ClusterStatsTracker::MaxAverageInter(
    ClusterId cluster) const {
  MaxInter best;
  auto it = inter_.find(cluster);
  if (it == inter_.end()) return best;
  // Single pass over the row: the per-pair sums are already in hand, so
  // the InterSum() lookup AverageInterSimilarity would redo per neighbor
  // is skipped. Equal averages resolve to the lower id, the same winner
  // as a scan in ascending id order (InterNeighbors() order).
  double size_a = static_cast<double>(clustering_->ClusterSize(cluster));
  for (const auto& [other, sum] : it->second) {
    if (sum <= kEpsilon) continue;
    double pairs = size_a * static_cast<double>(clustering_->ClusterSize(other));
    double avg = pairs == 0.0 ? 0.0 : sum / pairs;
    if (avg > best.average ||
        (avg == best.average && avg > 0.0 && other < best.cluster)) {
      best.average = avg;
      best.cluster = other;
    }
  }
  return best;
}

std::vector<ClusterId> ClusterStatsTracker::InterNeighbors(
    ClusterId cluster) const {
  std::vector<ClusterId> neighbors;
  auto it = inter_.find(cluster);
  if (it != inter_.end()) {
    neighbors.reserve(it->second.size());
    for (const auto& [other, sum] : it->second) {
      if (sum > kEpsilon) neighbors.push_back(other);
    }
  }
  std::sort(neighbors.begin(), neighbors.end());
  return neighbors;
}

double ClusterStatsTracker::SumToCluster(ObjectId object,
                                         ClusterId cluster) const {
  const auto& members = clustering_->Members(cluster);
  const auto& neighbors = graph_->Neighbors(object);
  double sum = 0.0;
  if (neighbors.size() < members.size()) {
    for (const auto& [other, sim] : neighbors) {
      if (other != object && members.count(other) > 0) sum += sim;
    }
  } else {
    for (ObjectId member : members) {
      if (member == object) continue;
      auto it = neighbors.find(member);
      if (it != neighbors.end()) sum += it->second;
    }
  }
  return sum;
}

void ClusterStatsTracker::Rebuild() {
  intra_.clear();
  inter_.clear();
  total_intra_ = 0.0;
  total_inter_ = 0.0;
  for (ObjectId object : clustering_->AssignedObjects()) {
    ClusterId cluster = clustering_->ClusterOf(object);
    for (const auto& [other, sim] : graph_->Neighbors(object)) {
      if (other <= object) continue;  // count each pair once
      ClusterId other_cluster = clustering_->ClusterOf(other);
      if (other_cluster == kInvalidCluster) continue;
      if (other_cluster == cluster) {
        intra_[cluster] += sim;
        total_intra_ += sim;
      } else {
        AddInter(cluster, other_cluster, sim);
      }
    }
  }
}

}  // namespace dynamicc
