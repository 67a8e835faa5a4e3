#include "data/similarity_graph.h"

#include <algorithm>
#include <chrono>
#include <deque>

#include "obs/metrics.h"
#include "util/logging.h"

namespace dynamicc {

SimilarityGraph::SimilarityGraph(
    const Dataset* dataset, const SimilarityMeasure* measure,
    std::unique_ptr<CandidateProvider> candidates, double min_similarity,
    obs::MetricsRegistry* metrics)
    : dataset_(dataset),
      measure_(measure),
      candidates_(std::move(candidates)),
      min_similarity_(min_similarity) {
  DYNAMICC_CHECK(dataset_ != nullptr);
  DYNAMICC_CHECK(measure_ != nullptr);
  DYNAMICC_CHECK(candidates_ != nullptr);
  uint32_t needs = measure_->FeatureNeeds();
  if (needs != 0) features_ = std::make_unique<FeatureIndex>(needs);
  if (metrics != nullptr) {
    sim_calls_ = metrics->GetCounter("sim.calls");
    sim_full_ = metrics->GetCounter("sim.full");
    sim_batch_ns_ = metrics->GetHistogram("sim.batch_ns");
  }
}

void SimilarityGraph::AddObject(ObjectId id) {
  DYNAMICC_CHECK(!Contains(id)) << "object " << id << " already in graph";
  const Record& record = dataset_->Get(id);
  adjacency_[id];  // ensure node exists even with no edges
  if (features_ != nullptr) features_->Insert(id, record);
  ScoreAgainstCandidates(id);
  candidates_->Add(record);
}

void SimilarityGraph::ScoreAgainstCandidates(ObjectId id) {
  const bool timed = sim_batch_ns_ != nullptr;
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};

  const Record& record = dataset_->Get(id);
  const RecordFeatures* probe_features =
      features_ != nullptr ? features_->Find(id) : nullptr;

  // Filter the candidates to graph members, keeping enumeration order:
  // edges are inserted in that order below.
  std::vector<ObjectId> ids = candidates_->Candidates(record);
  std::vector<std::unordered_map<ObjectId, double>*> rows;
  std::vector<SimCandidate> batch;
  rows.reserve(ids.size());
  batch.reserve(ids.size());
  for (ObjectId other : ids) {
    auto it = adjacency_.find(other);
    if (it == adjacency_.end()) continue;  // candidate no longer in graph
    ids[rows.size()] = other;  // compact the members in place
    rows.push_back(&it->second);
    batch.push_back({&dataset_->Get(other),
                     features_ != nullptr ? features_->Find(other) : nullptr});
  }
  const size_t n = rows.size();

  // One batched call scores the whole candidate list.
  std::vector<double> scores(n);
  size_t full = measure_->SimilarityBatch(record, probe_features, batch.data(),
                                          n, min_similarity_, scores.data());

  // Edge insertion in enumeration order keeps Neighbors() iteration (and
  // with it every downstream FP accumulation) deterministic.
  for (size_t i = 0; i < n; ++i) {
    double s = scores[i];
    if (s >= min_similarity_) {
      adjacency_[id][ids[i]] = s;
      (*rows[i])[id] = s;
      ++num_edges_;
    }
  }

  if (sim_calls_ != nullptr) sim_calls_->Add(n);
  if (sim_full_ != nullptr) sim_full_->Add(full);
  if (timed) {
    auto dt = std::chrono::steady_clock::now() - t0;
    sim_batch_ns_->Record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
  }
}

void SimilarityGraph::DropEdges(ObjectId id) {
  auto it = adjacency_.find(id);
  DYNAMICC_CHECK(it != adjacency_.end());
  for (const auto& [other, sim] : it->second) {
    (void)sim;
    auto other_it = adjacency_.find(other);
    if (other_it != adjacency_.end()) other_it->second.erase(id);
    --num_edges_;
  }
  it->second.clear();
}

void SimilarityGraph::RemoveObject(ObjectId id) {
  DYNAMICC_CHECK(Contains(id)) << "object " << id << " not in graph";
  DropEdges(id);
  adjacency_.erase(id);
  if (features_ != nullptr) features_->Remove(id);
  // The dataset record may already be tombstoned but remains readable, so
  // we can still derive the blocking keys to unindex.
  candidates_->Remove(dataset_->Get(id));
}

void SimilarityGraph::UpdateObject(ObjectId id, const Record& old_record) {
  DYNAMICC_CHECK(Contains(id)) << "object " << id << " not in graph";
  DropEdges(id);
  candidates_->Update(old_record, dataset_->Get(id));
  // Unindex ourselves while scoring to avoid a self-edge, then re-add.
  candidates_->Remove(dataset_->Get(id));
  if (features_ != nullptr) features_->Insert(id, dataset_->Get(id));
  ScoreAgainstCandidates(id);
  candidates_->Add(dataset_->Get(id));
}

double SimilarityGraph::Similarity(ObjectId a, ObjectId b) const {
  if (a == b) return 1.0;
  auto it = adjacency_.find(a);
  if (it == adjacency_.end()) return 0.0;
  auto edge = it->second.find(b);
  return edge == it->second.end() ? 0.0 : edge->second;
}

bool SimilarityGraph::Contains(ObjectId id) const {
  return adjacency_.count(id) > 0;
}

const std::unordered_map<ObjectId, double>& SimilarityGraph::Neighbors(
    ObjectId id) const {
  auto it = adjacency_.find(id);
  DYNAMICC_CHECK(it != adjacency_.end()) << "object " << id << " not in graph";
  return it->second;
}

double SimilarityGraph::SumSimilarityTo(
    ObjectId id, const std::vector<ObjectId>& others) const {
  const auto& neighbors = Neighbors(id);
  double sum = 0.0;
  for (ObjectId other : others) {
    auto it = neighbors.find(other);
    if (it != neighbors.end()) sum += it->second;
  }
  return sum;
}

std::vector<ObjectId> SimilarityGraph::Objects() const {
  std::vector<ObjectId> ids;
  ids.reserve(adjacency_.size());
  for (const auto& [id, neighbors] : adjacency_) {
    (void)neighbors;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<std::vector<ObjectId>> SimilarityGraph::ConnectedComponents()
    const {
  std::vector<std::vector<ObjectId>> components;
  std::unordered_map<ObjectId, bool> visited;
  visited.reserve(adjacency_.size());
  for (ObjectId start : Objects()) {
    if (visited[start]) continue;
    std::vector<ObjectId> component;
    std::deque<ObjectId> frontier{start};
    visited[start] = true;
    while (!frontier.empty()) {
      ObjectId id = frontier.front();
      frontier.pop_front();
      component.push_back(id);
      for (const auto& [other, sim] : adjacency_.at(id)) {
        (void)sim;
        if (!visited[other]) {
          visited[other] = true;
          frontier.push_back(other);
        }
      }
    }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  return components;
}

}  // namespace dynamicc
