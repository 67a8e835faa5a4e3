#ifndef DYNAMICC_DATA_SIMILARITY_GRAPH_H_
#define DYNAMICC_DATA_SIMILARITY_GRAPH_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "data/blocking.h"
#include "data/dataset.h"
#include "data/feature_index.h"
#include "data/similarity.h"
#include "data/types.h"

namespace dynamicc {

namespace obs {
class MetricsRegistry;
class Counter;
class Histogram;
}  // namespace obs

/// Sparse pairwise-similarity structure over the alive objects of a Dataset.
/// An edge (a, b, s) exists iff b was a blocking candidate of a and
/// s = Similarity(a, b) >= min_similarity. Pairs without an edge have
/// similarity 0 by convention ("the absence of an edge between two objects
/// represents non-similarity", §2.1).
///
/// The graph is incremental: Add/Remove/Update maintain the adjacency in
/// O(candidates) per operation, which is what allows dynamic re-clustering
/// to avoid quadratic work.
///
/// Scoring runs through a two-phase core (see docs/similarity.md): a
/// per-record FeatureIndex built once at Add/Update, and one batched
/// threshold-aware SimilarityBatch call per probe. Edges are inserted in
/// candidate-enumeration order, and the batch kernels' threshold contract
/// makes every score bit-identical to the scalar Similarity(), so the
/// graph equals the one a per-pair Similarity() loop would build.
class SimilarityGraph {
 public:
  /// The graph keeps (non-owning) references to `dataset` and `measure`,
  /// and owns the candidate provider. Both referents must outlive the graph.
  /// When `metrics` is set, the graph reports the sim.calls / sim.full
  /// counters and the sim.batch_ns histogram there (docs/metrics.md).
  SimilarityGraph(const Dataset* dataset, const SimilarityMeasure* measure,
                  std::unique_ptr<CandidateProvider> candidates,
                  double min_similarity,
                  obs::MetricsRegistry* metrics = nullptr);

  SimilarityGraph(const SimilarityGraph&) = delete;
  SimilarityGraph& operator=(const SimilarityGraph&) = delete;

  /// Registers an alive object and scores its candidate pairs.
  void AddObject(ObjectId id);

  /// Drops the object and all its edges. Call before/after Dataset::Remove;
  /// the graph keeps its own copy of blocking state so ordering is free.
  void RemoveObject(ObjectId id);

  /// Re-derives the object's edges after its record content changed.
  /// `old_record` is the content that was previously indexed.
  void UpdateObject(ObjectId id, const Record& old_record);

  /// Similarity of an existing edge, or 0 if no edge.
  double Similarity(ObjectId a, ObjectId b) const;

  /// True if the object is present in the graph.
  bool Contains(ObjectId id) const;

  /// Neighbor map (object -> similarity) of `id`. Must be present.
  const std::unordered_map<ObjectId, double>& Neighbors(ObjectId id) const;

  /// Sum of similarities between `id` and the given set of objects
  /// (only edges count). Convenience for objective deltas.
  double SumSimilarityTo(ObjectId id,
                         const std::vector<ObjectId>& others) const;

  /// Ids of all objects currently in the graph, ascending.
  std::vector<ObjectId> Objects() const;

  size_t num_objects() const { return adjacency_.size(); }
  size_t num_edges() const { return num_edges_; }
  double min_similarity() const { return min_similarity_; }
  const Dataset& dataset() const { return *dataset_; }
  const SimilarityMeasure& measure() const { return *measure_; }

  /// The feature index, or nullptr when the measure needs no features.
  const FeatureIndex* feature_index() const { return features_.get(); }

  /// Connected components induced by the edges (singletons included).
  /// Used for "active cluster" detection in negative sampling (§5.3).
  std::vector<std::vector<ObjectId>> ConnectedComponents() const;

 private:
  void ScoreAgainstCandidates(ObjectId id);
  void DropEdges(ObjectId id);

  const Dataset* dataset_;
  const SimilarityMeasure* measure_;
  std::unique_ptr<CandidateProvider> candidates_;
  double min_similarity_;

  std::unique_ptr<FeatureIndex> features_;  // null when no features needed

  // Metric handles resolved once at construction (null when unmetered).
  obs::Counter* sim_calls_ = nullptr;
  obs::Counter* sim_full_ = nullptr;
  obs::Histogram* sim_batch_ns_ = nullptr;

  std::unordered_map<ObjectId, std::unordered_map<ObjectId, double>>
      adjacency_;
  size_t num_edges_ = 0;
};

}  // namespace dynamicc

#endif  // DYNAMICC_DATA_SIMILARITY_GRAPH_H_
