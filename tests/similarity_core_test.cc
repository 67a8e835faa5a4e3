// Tests of the two-phase similarity core: the per-record FeatureIndex,
// the batched threshold-aware kernels, and — the load-bearing claim —
// bit-identity between the indexed core and a scalar oracle that scores
// every pair with Similarity(), from single kernels all the way up to
// the sharded service's clustering output.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "data/blocking.h"
#include "data/dataset.h"
#include "data/feature_index.h"
#include "data/similarity_graph.h"
#include "data/similarity_measures.h"
#include "service/sharded_service.h"
#include "service_test_util.h"
#include "util/rng.h"
#include "util/string_utils.h"

namespace dynamicc {
namespace {

Record TokenRecord(std::vector<std::string> tokens) {
  Record record;
  record.tokens = std::move(tokens);
  return record;
}

Record TextRecord(std::string text) {
  Record record;
  record.text = std::move(text);
  return record;
}

Record PointRecord(std::vector<double> numeric) {
  Record record;
  record.numeric = std::move(numeric);
  return record;
}

/// Random record exercising every representation, including empties and
/// non-ASCII ("unicode-ish") bytes in text.
Record RandomRecord(Rng& rng) {
  Record record;
  if (!rng.Chance(0.1)) {
    size_t n = rng.Index(8);
    for (size_t i = 0; i < n; ++i) {
      record.tokens.push_back("tok" + std::to_string(rng.Index(20)));
    }
  }
  if (!rng.Chance(0.1)) {
    size_t n = rng.Index(40);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Chance(0.1)) {
        record.text.push_back(static_cast<char>(0x80 + rng.Index(0x80)));
      } else {
        record.text.push_back(static_cast<char>('a' + rng.Index(26)));
      }
    }
  }
  if (!rng.Chance(0.1)) {
    size_t n = 1 + rng.Index(24);
    for (size_t i = 0; i < n; ++i) {
      record.numeric.push_back(rng.Uniform(-10.0, 10.0));
    }
  }
  return record;
}

std::vector<std::unique_ptr<SimilarityMeasure>> AllMeasures() {
  std::vector<std::unique_ptr<SimilarityMeasure>> measures;
  measures.push_back(std::make_unique<JaccardSimilarity>());
  measures.push_back(std::make_unique<TrigramCosineSimilarity>());
  measures.push_back(std::make_unique<LevenshteinSimilarity>());
  measures.push_back(std::make_unique<EuclideanSimilarity>(4.0));
  {
    std::vector<std::unique_ptr<SimilarityMeasure>> parts;
    parts.push_back(std::make_unique<LevenshteinSimilarity>());
    parts.push_back(std::make_unique<JaccardSimilarity>());
    measures.push_back(std::make_unique<CombinedSimilarity>(
        std::move(parts), std::vector<double>{2.0, 3.0}));
  }
  return measures;
}

// ------------------------------------------------------- measure contract

TEST(MeasureContract, SelfSimilarityIsOneForNonEmptyContent) {
  Record token_rec = TokenRecord({"alpha", "beta", "Alpha"});
  Record text_rec = TextRecord("hello world");
  Record point_rec = PointRecord({1.5, -2.0, 3.25});
  Record full = token_rec;
  full.text = text_rec.text;
  full.numeric = point_rec.numeric;

  EXPECT_DOUBLE_EQ(JaccardSimilarity().Similarity(token_rec, token_rec), 1.0);
  // Trigram self-similarity is dot/(sqrt(n)*sqrt(n)) — within rounding
  // of 1, not bit-exactly 1, hence DOUBLE_EQ.
  EXPECT_DOUBLE_EQ(
      TrigramCosineSimilarity().Similarity(text_rec, text_rec), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity().Similarity(text_rec, text_rec),
                   1.0);
  EXPECT_DOUBLE_EQ(EuclideanSimilarity(4.0).Similarity(point_rec, point_rec),
                   1.0);
  for (const auto& measure : AllMeasures()) {
    EXPECT_DOUBLE_EQ(measure->Similarity(full, full), 1.0) << measure->Name();
  }
}

TEST(MeasureContract, SymmetryOnRandomRecords) {
  Rng rng(11);
  auto measures = AllMeasures();
  for (int i = 0; i < 50; ++i) {
    Record a = RandomRecord(rng);
    Record b = RandomRecord(rng);
    // Euclidean CHECKs on dimension mismatch; align the vectors.
    b.numeric = a.numeric;
    std::reverse(b.numeric.begin(), b.numeric.end());
    for (const auto& measure : measures) {
      EXPECT_EQ(measure->Similarity(a, b), measure->Similarity(b, a))
          << measure->Name();
    }
  }
}

TEST(MeasureContract, EmptyContentMeansNoEvidenceNotEqual) {
  Record empty;  // empty under every measure
  Record token_rec = TokenRecord({"alpha"});
  Record text_rec = TextRecord("abc");
  Record point_rec = PointRecord({1.0});

  // The pinned fix of the historical dead ternary
  // (`a.text == b.text ? 0.0 : 0.0`): two empty texts score 0, not 1.
  EXPECT_EQ(TrigramCosineSimilarity().Similarity(empty, empty), 0.0);
  EXPECT_EQ(TrigramCosineSimilarity().Similarity(empty, text_rec), 0.0);
  EXPECT_EQ(LevenshteinSimilarity().Similarity(empty, empty), 0.0);
  EXPECT_EQ(JaccardSimilarity().Similarity(empty, empty), 0.0);
  EXPECT_EQ(JaccardSimilarity().Similarity(empty, token_rec), 0.0);
  Record empty_point;  // Euclidean: empty vs non-empty is 0 (no CHECK)
  EXPECT_EQ(EuclideanSimilarity(4.0).Similarity(empty_point, point_rec), 0.0);
  EXPECT_EQ(EuclideanSimilarity(4.0).Similarity(empty_point, empty_point),
            0.0);
}

TEST(MeasureContract, JaccardMatchesSetDefinitionWithDuplicates) {
  Rng rng(13);
  JaccardSimilarity jaccard;
  for (int i = 0; i < 100; ++i) {
    Record a = TokenRecord({});
    Record b = TokenRecord({});
    size_t na = rng.Index(10), nb = rng.Index(10);
    for (size_t k = 0; k < na; ++k) {
      a.tokens.push_back("t" + std::to_string(rng.Index(6)));
    }
    for (size_t k = 0; k < nb; ++k) {
      b.tokens.push_back("t" + std::to_string(rng.Index(6)));
    }
    std::set<std::string> sa(a.tokens.begin(), a.tokens.end());
    std::set<std::string> sb(b.tokens.begin(), b.tokens.end());
    std::vector<std::string> inter, uni;
    std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                          std::back_inserter(inter));
    std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(),
                   std::back_inserter(uni));
    double expected =
        uni.empty() ? 0.0
                    : static_cast<double>(inter.size()) /
                          static_cast<double>(uni.size());
    EXPECT_EQ(jaccard.Similarity(a, b), expected);
  }
}

// ---------------------------------------------------------- feature index

TEST(FeatureIndex, TrigramFeaturesMatchTrigramCounts) {
  Rng rng(17);
  FeatureIndex index(kFeatureTrigrams);
  for (int i = 0; i < 60; ++i) {
    Record record = RandomRecord(rng);
    RecordFeatures features;
    index.Build(record, &features);
    if (record.text.empty()) {
      // Empty text builds no trigram vector: the measure's empty-content
      // convention returns 0 before any trigram is read, so the
      // padding-only "###" grams TrigramCounts would report are dead
      // weight the index deliberately skips.
      EXPECT_TRUE(features.trigram_ids.empty());
      EXPECT_EQ(features.trigram_norm2, 0.0);
      continue;
    }
    auto grams = TrigramCounts(record.text);
    // Same number of distinct trigrams, same multiset of counts, same
    // exact integer aggregates.
    ASSERT_EQ(features.trigram_ids.size(), grams.size());
    double norm2 = 0.0;
    uint64_t l1 = 0;
    uint32_t max_count = 0;
    for (const auto& [gram, count] : grams) {
      norm2 += static_cast<double>(count) * count;
      l1 += static_cast<uint64_t>(count);
      max_count = std::max(max_count, static_cast<uint32_t>(count));
    }
    EXPECT_EQ(features.trigram_norm2, norm2);
    EXPECT_EQ(features.trigram_l1, l1);
    EXPECT_EQ(features.trigram_max, max_count);
    EXPECT_TRUE(std::is_sorted(features.trigram_ids.begin(),
                               features.trigram_ids.end()));
    EXPECT_EQ(features.text_size, record.text.size());
  }
}

TEST(FeatureIndex, InsertFindRemoveLifecycle) {
  Dataset dataset;
  FeatureIndex index(kFeatureAll);
  ObjectId a = dataset.Add(TokenRecord({"alpha", "beta", "alpha"}));
  ObjectId b = dataset.Add(TextRecord("hello"));
  index.Insert(a, dataset.Get(a));
  index.Insert(b, dataset.Get(b));
  ASSERT_NE(index.Find(a), nullptr);
  ASSERT_NE(index.Find(b), nullptr);
  EXPECT_EQ(index.size(), 2u);
  // Duplicates collapse; interned ids are sorted unique.
  EXPECT_EQ(index.Find(a)->token_ids.size(), 2u);
  index.Remove(a);
  EXPECT_EQ(index.Find(a), nullptr);
  EXPECT_EQ(index.size(), 1u);
  // Re-insert after an update rebuilds in place.
  dataset.Update(b, TextRecord("goodbye"));
  index.Insert(b, dataset.Get(b));
  EXPECT_EQ(index.Find(b)->text_size, 7u);
  EXPECT_EQ(index.size(), 1u);
}

TEST(FeatureIndex, CountSortedIntersectionMatchesStd) {
  Rng rng(19);
  for (int round = 0; round < 40; ++round) {
    // Sizes chosen to hit both the scalar merge and the AVX2 block-scan
    // dispatch gate (b >= 64 and b >= 4a).
    size_t na = rng.Index(12);
    size_t nb = rng.Chance(0.5) ? rng.Index(12) : 64 + rng.Index(200);
    std::set<uint32_t> sa, sb;
    while (sa.size() < na) sa.insert(static_cast<uint32_t>(rng.Index(500)));
    while (sb.size() < nb) sb.insert(static_cast<uint32_t>(rng.Index(500)));
    std::vector<uint32_t> va(sa.begin(), sa.end());
    std::vector<uint32_t> vb(sb.begin(), sb.end());
    std::vector<uint32_t> inter;
    std::set_intersection(va.begin(), va.end(), vb.begin(), vb.end(),
                          std::back_inserter(inter));
    EXPECT_EQ(CountSortedIntersection(va.data(), va.size(), vb.data(),
                                      vb.size()),
              inter.size());
    EXPECT_EQ(CountSortedIntersection(vb.data(), vb.size(), va.data(),
                                      va.size()),
              inter.size());
  }
}

// ----------------------------------------------------------- batch kernels

TEST(SimilarityBatch, BitIdenticalToScalarAcrossThresholds) {
  Rng rng(23);
  auto measures = AllMeasures();
  const double thresholds[] = {0.0, 0.15, 0.5, 0.9};
  for (int round = 0; round < 8; ++round) {
    // One shared numeric dimensionality per round (Euclidean CHECKs).
    size_t dims = rng.Index(12);
    auto make = [&rng, dims]() {
      Record record = RandomRecord(rng);
      record.numeric.resize(dims);
      for (double& v : record.numeric) v = rng.Uniform(-10.0, 10.0);
      return record;
    };
    Record probe = make();
    std::vector<Record> candidates;
    for (int i = 0; i < 24; ++i) candidates.push_back(make());
    candidates.push_back(Record{});           // fully empty candidate
    candidates.back().numeric.resize(dims);   // keep dimensions aligned

    for (const auto& measure : measures) {
      FeatureIndex index(measure->FeatureNeeds() != 0
                             ? measure->FeatureNeeds()
                             : kFeatureAll);
      RecordFeatures probe_features;
      index.Build(probe, &probe_features);
      std::vector<RecordFeatures> cand_features(candidates.size());
      std::vector<SimCandidate> batch(candidates.size());
      for (size_t i = 0; i < candidates.size(); ++i) {
        index.Build(candidates[i], &cand_features[i]);
        batch[i].record = &candidates[i];
        // A few candidates without features exercise the scalar
        // fallback inside the kernels.
        batch[i].features = i % 7 == 3 ? nullptr : &cand_features[i];
      }
      for (double theta : thresholds) {
        std::vector<double> out(candidates.size(), -1.0);
        size_t full = measure->SimilarityBatch(
            probe, &probe_features, batch.data(), batch.size(), theta,
            out.data());
        EXPECT_LE(full, batch.size());
        for (size_t i = 0; i < candidates.size(); ++i) {
          double exact = measure->Similarity(probe, candidates[i]);
          if (theta <= 0.0 || exact >= theta) {
            // The contract: bit-identical whenever the exact score
            // clears the threshold (or no threshold is given).
            EXPECT_EQ(out[i], exact)
                << measure->Name() << " theta=" << theta << " cand=" << i;
          } else {
            EXPECT_LT(out[i], theta)
                << measure->Name() << " theta=" << theta << " cand=" << i;
          }
        }
      }
    }
  }
}

TEST(SimilarityBatch, ThresholdSkipsReduceFullEvaluations) {
  // Disjoint token sets: the Jaccard size-ratio bound prunes everything
  // at a high threshold without touching the merge loop.
  JaccardSimilarity jaccard;
  FeatureIndex index(kFeatureTokens);
  Record probe = TokenRecord({"aa", "bb"});
  std::vector<Record> candidates;
  for (int i = 0; i < 16; ++i) {
    candidates.push_back(TokenRecord({"aa", "bb", "cc", "dd", "ee", "ff",
                                      "gg", "x" + std::to_string(i)}));
  }
  RecordFeatures probe_features;
  index.Build(probe, &probe_features);
  std::vector<RecordFeatures> cand_features(candidates.size());
  std::vector<SimCandidate> batch(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    index.Build(candidates[i], &cand_features[i]);
    batch[i] = {&candidates[i], &cand_features[i]};
  }
  std::vector<double> out(candidates.size());
  // Bound: 2/8 = 0.25 < 0.9, every pair skips.
  size_t full = jaccard.SimilarityBatch(probe, &probe_features, batch.data(),
                                        batch.size(), 0.9, out.data());
  EXPECT_EQ(full, 0u);
  // Without a threshold every pair is evaluated.
  full = jaccard.SimilarityBatch(probe, &probe_features, batch.data(),
                                 batch.size(), 0.0, out.data());
  EXPECT_EQ(full, batch.size());
}

// ----------------------------------------------------- graph equivalence

/// The scalar oracle: forwards Similarity() to the wrapped measure but
/// asks for no features and keeps the base SimilarityBatch, so a graph
/// over it builds no feature index and scores every candidate pair with
/// the scalar Similarity(), in enumeration order.
class ScalarOracle final : public SimilarityMeasure {
 public:
  explicit ScalarOracle(std::unique_ptr<SimilarityMeasure> inner)
      : inner_(std::move(inner)) {}

  double Similarity(const Record& a, const Record& b) const override {
    return inner_->Similarity(a, b);
  }
  uint32_t FeatureNeeds() const override { return 0; }
  const char* Name() const override { return "scalar-oracle"; }

 private:
  std::unique_ptr<SimilarityMeasure> inner_;
};

/// Drives two graphs over one dataset through an identical random
/// add/update/remove stream and requires identical adjacency — including
/// Neighbors() iteration order, which downstream FP accumulation in
/// ClusterStatsTracker depends on.
void ExpectGraphsIdentical(SimilarityGraph& a, SimilarityGraph& b) {
  ASSERT_EQ(a.num_objects(), b.num_objects());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (ObjectId id : a.Objects()) {
    ASSERT_TRUE(b.Contains(id));
    const auto& na = a.Neighbors(id);
    const auto& nb = b.Neighbors(id);
    std::vector<std::pair<ObjectId, double>> order_a(na.begin(), na.end());
    std::vector<std::pair<ObjectId, double>> order_b(nb.begin(), nb.end());
    EXPECT_EQ(order_a, order_b) << "object " << id;
  }
}

/// Test-side reference adjacency: the edge set and per-row insertion
/// order a graph must have, built the plain way. For each probe it walks
/// Candidates() in order, scores every member with Similarity(), and
/// inserts adj[probe][c] then adj[c][probe]. It keeps the graph's map
/// type and mirrors its blocker calls, so equal insertion and erase
/// histories give equal Neighbors() iteration orders.
class ReferenceAdjacency {
 public:
  ReferenceAdjacency(const Dataset* dataset, const SimilarityMeasure* measure,
                     std::unique_ptr<CandidateProvider> blocker,
                     double min_similarity)
      : dataset_(dataset),
        measure_(measure),
        blocker_(std::move(blocker)),
        min_similarity_(min_similarity) {}

  void AddObject(ObjectId id) {
    adjacency_[id];
    Score(id);
    blocker_->Add(dataset_->Get(id));
  }

  void UpdateObject(ObjectId id, const Record& old_record) {
    Drop(id);
    blocker_->Update(old_record, dataset_->Get(id));
    blocker_->Remove(dataset_->Get(id));
    Score(id);
    blocker_->Add(dataset_->Get(id));
  }

  void RemoveObject(ObjectId id) {
    Drop(id);
    adjacency_.erase(id);
    blocker_->Remove(dataset_->Get(id));
  }

  const std::unordered_map<ObjectId, std::unordered_map<ObjectId, double>>&
  adjacency() const {
    return adjacency_;
  }

 private:
  void Score(ObjectId id) {
    const Record& record = dataset_->Get(id);
    for (ObjectId other : blocker_->Candidates(record)) {
      auto row = adjacency_.find(other);
      if (row == adjacency_.end()) continue;
      double s = measure_->Similarity(record, dataset_->Get(other));
      if (s < min_similarity_) continue;
      adjacency_[id][other] = s;
      row->second[id] = s;
    }
  }

  void Drop(ObjectId id) {
    auto& row = adjacency_.at(id);
    for (const auto& [other, s] : row) {
      (void)s;
      adjacency_.at(other).erase(id);
    }
    row.clear();
  }

  const Dataset* dataset_;
  const SimilarityMeasure* measure_;
  std::unique_ptr<CandidateProvider> blocker_;
  double min_similarity_;
  std::unordered_map<ObjectId, std::unordered_map<ObjectId, double>>
      adjacency_;
};

/// Requires `graph` to hold exactly the reference's edges, with every
/// Neighbors() row iterating in the reference's order.
void ExpectMatchesReference(const SimilarityGraph& graph,
                            const ReferenceAdjacency& reference) {
  ASSERT_EQ(graph.num_objects(), reference.adjacency().size());
  size_t edges = 0;
  for (ObjectId id : graph.Objects()) {
    auto row = reference.adjacency().find(id);
    ASSERT_NE(row, reference.adjacency().end()) << "object " << id;
    const auto& neighbors = graph.Neighbors(id);
    std::vector<std::pair<ObjectId, double>> got(neighbors.begin(),
                                                  neighbors.end());
    std::vector<std::pair<ObjectId, double>> want(row->second.begin(),
                                                  row->second.end());
    EXPECT_EQ(got, want) << "object " << id;
    edges += want.size();
  }
  EXPECT_EQ(graph.num_edges() * 2, edges);
}

/// The token stream: 300 random adds, updates and removes over twelve
/// blocking groups. `each(op)` applies one graph operation to every
/// structure under test (`op` takes a SimilarityGraph or a
/// ReferenceAdjacency).
template <typename Each>
void RunTokenWorkload(Dataset& dataset, Each each) {
  Rng rng(31);
  std::vector<ObjectId> alive;
  for (int step = 0; step < 300; ++step) {
    double dice = rng.Uniform();
    if (alive.size() < 10 || dice < 0.6) {
      Record record = TokenRecord({"g" + std::to_string(rng.Index(12)),
                                   "h" + std::to_string(rng.Index(12)),
                                   "u" + std::to_string(rng.Index(40))});
      ObjectId id = dataset.Add(std::move(record));
      each([id](auto& graph) { graph.AddObject(id); });
      alive.push_back(id);
    } else if (dice < 0.8) {
      size_t pick = rng.Index(alive.size());
      ObjectId id = alive[pick];
      Record old_record = dataset.Get(id);  // copy before overwrite
      Record updated = TokenRecord({"g" + std::to_string(rng.Index(12)),
                                    "u" + std::to_string(rng.Index(40))});
      dataset.Update(id, std::move(updated));
      each([id, &old_record](auto& graph) {
        graph.UpdateObject(id, old_record);
      });
    } else {
      size_t pick = rng.Index(alive.size());
      ObjectId id = alive[pick];
      each([id](auto& graph) { graph.RemoveObject(id); });
      dataset.Remove(id);
      alive.erase(alive.begin() + pick);
    }
  }
}

/// The numeric stream: 200 random 3-d points.
template <typename Each>
void RunNumericWorkload(Dataset& dataset, Each each) {
  Rng rng(37);
  for (int i = 0; i < 200; ++i) {
    Record record = PointRecord({rng.Uniform(-16.0, 16.0),
                                 rng.Uniform(-16.0, 16.0),
                                 rng.Uniform(-16.0, 16.0)});
    ObjectId id = dataset.Add(std::move(record));
    each([id](auto& graph) { graph.AddObject(id); });
  }
}

TEST(SimilarityGraphCore, IndexedMatchesSeedScalarTokenWorkload) {
  Dataset dataset;
  JaccardSimilarity measure;
  ScalarOracle oracle(std::make_unique<JaccardSimilarity>());
  SimilarityGraph seed(&dataset, &oracle, std::make_unique<TokenBlocker>(),
                      0.3);
  SimilarityGraph indexed(&dataset, &measure,
                          std::make_unique<TokenBlocker>(), 0.3);
  ASSERT_NE(indexed.feature_index(), nullptr);
  EXPECT_EQ(seed.feature_index(), nullptr);
  RunTokenWorkload(dataset, [&](auto op) {
    op(seed);
    op(indexed);
  });
  ExpectGraphsIdentical(seed, indexed);
}

TEST(SimilarityGraphCore, IndexedMatchesSeedScalarNumericWorkload) {
  Dataset dataset;
  EuclideanSimilarity measure(3.0);
  ScalarOracle oracle(std::make_unique<EuclideanSimilarity>(3.0));
  SimilarityGraph seed(&dataset, &oracle, std::make_unique<GridBlocker>(4.0),
                      0.4);
  EXPECT_EQ(seed.feature_index(), nullptr);
  SimilarityGraph indexed(&dataset, &measure,
                          std::make_unique<GridBlocker>(4.0), 0.4);
  RunNumericWorkload(dataset, [&](auto op) {
    op(seed);
    op(indexed);
  });
  ExpectGraphsIdentical(seed, indexed);
}

TEST(SimilarityGraphCore, EdgesInsertInCandidateOrder) {
  // The oracle and the indexed graph share one edge-insertion loop, so
  // comparing them cannot pin its order; the reference rebuilds the
  // order from Candidates() independently.
  {
    Dataset dataset;
    JaccardSimilarity measure;
    SimilarityGraph graph(&dataset, &measure,
                          std::make_unique<TokenBlocker>(), 0.3);
    ReferenceAdjacency reference(&dataset, &measure,
                                 std::make_unique<TokenBlocker>(), 0.3);
    RunTokenWorkload(dataset, [&](auto op) {
      op(graph);
      op(reference);
    });
    ExpectMatchesReference(graph, reference);
  }
  {
    Dataset dataset;
    EuclideanSimilarity measure(3.0);
    SimilarityGraph graph(&dataset, &measure,
                          std::make_unique<GridBlocker>(4.0), 0.4);
    ReferenceAdjacency reference(&dataset, &measure,
                                 std::make_unique<GridBlocker>(4.0), 0.4);
    RunNumericWorkload(dataset, [&](auto op) {
      op(graph);
      op(reference);
    });
    ExpectMatchesReference(graph, reference);
  }
}

// ----------------------------------------------- end-to-end (service) run

ShardEnvironmentFactory FactoryWithOracle() {
  return [] {
    ShardEnvironment env = MakeFactory()();
    env.measure = std::make_unique<ScalarOracle>(std::move(env.measure));
    return env;
  };
}

TEST(SimilarityGraphCore, ServiceClusteringByteIdenticalAcrossCores) {
  const int kGroups = 10;
  std::vector<OperationBatch> batches;
  batches.push_back(GroupAdds(kGroups, 3));
  batches.push_back(GroupAdds(kGroups, 2));
  OperationBatch mixed = GroupAdds(kGroups, 1);
  DataOperation update;
  update.kind = DataOperation::Kind::kUpdate;
  update.target = 0;
  update.record.entity = 0;
  update.record.tokens = {"grp0", "tag0"};
  mixed.push_back(update);
  DataOperation remove;
  remove.kind = DataOperation::Kind::kRemove;
  remove.target = 1;
  mixed.push_back(remove);
  batches.push_back(mixed);

  auto run = [&batches](bool indexed, uint32_t shards, bool async) {
    ShardedDynamicCService::Options options;
    options.num_shards = shards;
    options.async.enabled = async;
    ShardedDynamicCService service(
        options, nullptr, indexed ? MakeFactory() : FactoryWithOracle());
    auto changed = service.ApplyOperations(batches[0]);
    service.ObserveBatchRound(changed);
    changed = service.ApplyOperations(batches[1]);
    service.ObserveBatchRound(changed);
    changed = service.ApplyOperations(batches[2]);
    service.DynamicRound(changed);
    return service.GlobalClusters();
  };

  for (uint32_t shards : {1u, 2u, 4u}) {
    for (bool async : {false, true}) {
      auto seed_clusters = run(/*indexed=*/false, shards, async);
      auto indexed_clusters = run(/*indexed=*/true, shards, async);
      EXPECT_EQ(indexed_clusters, seed_clusters)
          << "shards=" << shards << " async=" << async;
    }
  }
}

}  // namespace
}  // namespace dynamicc
