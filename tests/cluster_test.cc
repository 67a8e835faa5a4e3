#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_stats.h"
#include "cluster/clustering.h"
#include "cluster/engine.h"
#include "cluster/evolution.h"
#include "data/blocking.h"
#include "data/dataset.h"
#include "data/similarity_graph.h"
#include "data/similarity_measures.h"
#include "util/rng.h"

namespace dynamicc {
namespace {

// --------------------------------------------------------------- clustering

TEST(Clustering, SingletonLifecycle) {
  Clustering clustering;
  ClusterId c = clustering.CreateSingleton(7);
  EXPECT_EQ(clustering.ClusterOf(7), c);
  EXPECT_EQ(clustering.ClusterSize(c), 1u);
  EXPECT_EQ(clustering.num_clusters(), 1u);
  EXPECT_EQ(clustering.Unassign(7), c);
  EXPECT_FALSE(clustering.HasCluster(c));  // empty cluster deleted
  EXPECT_EQ(clustering.ClusterOf(7), kInvalidCluster);
}

TEST(Clustering, ClusterIdsNeverReused) {
  Clustering clustering;
  ClusterId a = clustering.CreateSingleton(1);
  clustering.Unassign(1);
  ClusterId b = clustering.CreateSingleton(1);
  EXPECT_NE(a, b);
}

TEST(Clustering, VersionBumpsOnMembershipChange) {
  Clustering clustering;
  ClusterId c = clustering.CreateCluster();
  uint64_t v0 = clustering.ClusterVersion(c);
  clustering.Assign(1, c);
  uint64_t v1 = clustering.ClusterVersion(c);
  EXPECT_GT(v1, v0);
  clustering.Assign(2, c);
  EXPECT_GT(clustering.ClusterVersion(c), v1);
}

TEST(Clustering, CanonicalClustersSortedAndStable) {
  Clustering clustering;
  ClusterId a = clustering.CreateCluster();
  ClusterId b = clustering.CreateCluster();
  clustering.Assign(5, a);
  clustering.Assign(2, a);
  clustering.Assign(9, b);
  auto canonical = clustering.CanonicalClusters();
  ASSERT_EQ(canonical.size(), 2u);
  EXPECT_EQ(canonical[0], (std::vector<ObjectId>{2, 5}));
  EXPECT_EQ(canonical[1], (std::vector<ObjectId>{9}));
}

// ------------------------------------------------------------ engine setup

/// Builds a small weighted graph from explicit edges for engine/stat tests.
class EngineFixture : public ::testing::Test {
 protected:
  EngineFixture()
      : measure_(1.0),
        graph_(&dataset_, &measure_, std::make_unique<AllPairsBlocker>(),
               0.05) {}

  /// Adds n objects positioned so that Similarity matches the Gaussian of
  /// their 1-D distance; we use explicit coordinates per test.
  ObjectId AddPoint(double x) {
    Record record;
    record.numeric = {x};
    ObjectId id = dataset_.Add(record);
    graph_.AddObject(id);
    return id;
  }

  Dataset dataset_;
  EuclideanSimilarity measure_;
  SimilarityGraph graph_;
};

TEST_F(EngineFixture, SingletonsAndMerge) {
  ObjectId a = AddPoint(0.0);
  ObjectId b = AddPoint(0.1);
  ObjectId c = AddPoint(10.0);
  ClusteringEngine engine(&graph_);
  engine.InitSingletons();
  EXPECT_EQ(engine.clustering().num_clusters(), 3u);

  ClusterId ca = engine.clustering().ClusterOf(a);
  ClusterId cb = engine.clustering().ClusterOf(b);
  ClusterId merged = engine.Merge(ca, cb);
  EXPECT_EQ(engine.clustering().num_clusters(), 2u);
  EXPECT_EQ(engine.clustering().ClusterOf(a), merged);
  EXPECT_EQ(engine.clustering().ClusterOf(b), merged);
  EXPECT_NE(engine.clustering().ClusterOf(c), merged);
  // Intra sum of the merged pair equals their similarity.
  EXPECT_NEAR(engine.stats().IntraSum(merged), graph_.Similarity(a, b),
              1e-12);
}

TEST_F(EngineFixture, SplitOutMovesMembers) {
  ObjectId a = AddPoint(0.0);
  ObjectId b = AddPoint(0.1);
  ObjectId c = AddPoint(0.2);
  ClusteringEngine engine(&graph_);
  engine.InitSingletons();
  ClusterId cluster = engine.Merge(
      engine.Merge(engine.clustering().ClusterOf(a),
                   engine.clustering().ClusterOf(b)),
      engine.clustering().ClusterOf(c));
  ClusterId fresh = engine.SplitOut(cluster, {c});
  EXPECT_EQ(engine.clustering().ClusterOf(c), fresh);
  EXPECT_EQ(engine.clustering().ClusterSize(cluster), 2u);
  EXPECT_EQ(engine.clustering().ClusterSize(fresh), 1u);
}

TEST_F(EngineFixture, MoveObject) {
  ObjectId a = AddPoint(0.0);
  ObjectId b = AddPoint(0.1);
  ObjectId c = AddPoint(0.2);
  ClusteringEngine engine(&graph_);
  engine.InitSingletons();
  ClusterId ab = engine.Merge(engine.clustering().ClusterOf(a),
                              engine.clustering().ClusterOf(b));
  ClusterId cc = engine.clustering().ClusterOf(c);
  engine.Move(b, cc);
  EXPECT_EQ(engine.clustering().ClusterOf(b), cc);
  EXPECT_EQ(engine.clustering().ClusterSize(ab), 1u);
}

TEST_F(EngineFixture, RemoveObjectDropsFromStats) {
  ObjectId a = AddPoint(0.0);
  ObjectId b = AddPoint(0.1);
  ClusteringEngine engine(&graph_);
  engine.InitSingletons();
  ClusterId merged = engine.Merge(engine.clustering().ClusterOf(a),
                                  engine.clustering().ClusterOf(b));
  engine.RemoveObject(b);
  EXPECT_EQ(engine.clustering().ClusterSize(merged), 1u);
  EXPECT_NEAR(engine.stats().IntraSum(merged), 0.0, 1e-12);
}

TEST_F(EngineFixture, SetClusteringAdoptsPartition) {
  ObjectId a = AddPoint(0.0);
  ObjectId b = AddPoint(0.1);
  Clustering partition;
  ClusterId c = partition.CreateCluster();
  partition.Assign(a, c);
  partition.Assign(b, c);
  ClusteringEngine engine(&graph_);
  engine.SetClustering(partition);
  EXPECT_EQ(engine.clustering().num_clusters(), 1u);
  EXPECT_NEAR(engine.stats().IntraSum(engine.clustering().ClusterOf(a)),
              graph_.Similarity(a, b), 1e-12);
}

// ----------------------------------------------------------- group surgery

TEST_F(EngineFixture, ExtractGroupStateDetachesWholeClusters) {
  // Two tight pairs far apart; extracting one pair removes its cluster
  // wholesale (no split) and leaves the rest — and its stats — intact.
  ObjectId a = AddPoint(0.0);
  ObjectId b = AddPoint(0.01);
  ObjectId c = AddPoint(10.0);
  ObjectId d = AddPoint(10.01);
  ClusteringEngine engine(&graph_);
  engine.InitSingletons();
  ClusterId ab = engine.Merge(engine.clustering().ClusterOf(a),
                              engine.clustering().ClusterOf(b));
  ClusterId cd = engine.Merge(engine.clustering().ClusterOf(c),
                              engine.clustering().ClusterOf(d));
  double cd_intra = engine.stats().IntraSum(cd);

  auto extract = engine.ExtractGroupState({a, b});
  EXPECT_EQ(extract.split_sources, 0u);
  ASSERT_EQ(extract.clusters.size(), 1u);
  EXPECT_EQ(extract.clusters[0], (std::vector<ObjectId>{a, b}));
  EXPECT_FALSE(engine.clustering().HasCluster(ab));
  EXPECT_EQ(engine.clustering().ClusterOf(a), kInvalidCluster);
  EXPECT_EQ(engine.clustering().num_clusters(), 1u);
  EXPECT_NEAR(engine.stats().IntraSum(cd), cd_intra, 1e-12);
  EXPECT_NEAR(engine.stats().TotalIntraSum(), cd_intra, 1e-12);
}

TEST_F(EngineFixture, ExtractGroupStateReportsCutClusters) {
  // Extracting a strict subset of a cluster must cut it: the survivor
  // stays behind and split_sources flags the damage.
  ObjectId a = AddPoint(0.0);
  ObjectId b = AddPoint(0.1);
  ObjectId c = AddPoint(0.2);
  ClusteringEngine engine(&graph_);
  engine.InitSingletons();
  ClusterId abc = engine.Merge(
      engine.Merge(engine.clustering().ClusterOf(a),
                   engine.clustering().ClusterOf(b)),
      engine.clustering().ClusterOf(c));

  auto extract = engine.ExtractGroupState({a, b});
  EXPECT_EQ(extract.split_sources, 1u);
  ASSERT_EQ(extract.clusters.size(), 1u);
  EXPECT_EQ(extract.clusters[0], (std::vector<ObjectId>{a, b}));
  EXPECT_TRUE(engine.clustering().HasCluster(abc));
  EXPECT_EQ(engine.clustering().ClusterSize(abc), 1u);
  EXPECT_NEAR(engine.stats().IntraSum(abc), 0.0, 1e-12);
}

TEST_F(EngineFixture, AdoptGroupStateRestoresStatsFromGraphEdges) {
  // Round-trip through a second engine over the same graph: adopting
  // the extracted sub-partition must reproduce membership *and*
  // aggregates exactly (verified against an independent Rebuild).
  ObjectId a = AddPoint(0.0);
  ObjectId b = AddPoint(0.01);
  ObjectId c = AddPoint(0.02);
  ObjectId d = AddPoint(10.0);
  ClusteringEngine engine(&graph_);
  engine.InitSingletons();
  engine.Merge(engine.Merge(engine.clustering().ClusterOf(a),
                            engine.clustering().ClusterOf(b)),
               engine.clustering().ClusterOf(c));
  auto canonical = engine.clustering().CanonicalClusters();
  double total_intra = engine.stats().TotalIntraSum();

  auto extract = engine.ExtractGroupState({a, b, c, d});
  EXPECT_EQ(engine.clustering().num_clusters(), 0u);

  ClusteringEngine adopter(&graph_);
  adopter.AdoptGroupState(extract.clusters);
  EXPECT_EQ(adopter.clustering().CanonicalClusters(), canonical);
  EXPECT_NEAR(adopter.stats().TotalIntraSum(), total_intra, 1e-12);
  ClusterId abc = adopter.clustering().ClusterOf(a);
  double incremental = adopter.stats().IntraSum(abc);
  // The incremental aggregates equal a from-scratch rebuild.
  Clustering snapshot = adopter.Snapshot();
  ClusteringEngine rebuilt(&graph_);
  rebuilt.SetClustering(snapshot);
  EXPECT_NEAR(rebuilt.stats().IntraSum(rebuilt.clustering().ClusterOf(a)),
              incremental, 1e-12);
}

// ------------------------------------------------------------ stats values

TEST_F(EngineFixture, AverageIntraAndInter) {
  // Two tight pairs, far apart: intra ~ 1, inter ~ 0.
  ObjectId a = AddPoint(0.0);
  ObjectId b = AddPoint(0.01);
  ObjectId c = AddPoint(1.0);
  ObjectId d = AddPoint(1.01);
  ClusteringEngine engine(&graph_);
  engine.InitSingletons();
  ClusterId ab = engine.Merge(engine.clustering().ClusterOf(a),
                              engine.clustering().ClusterOf(b));
  ClusterId cd = engine.Merge(engine.clustering().ClusterOf(c),
                              engine.clustering().ClusterOf(d));
  EXPECT_GT(engine.stats().AverageIntraSimilarity(ab), 0.99);
  double expected_inter =
      (graph_.Similarity(a, c) + graph_.Similarity(a, d) +
       graph_.Similarity(b, c) + graph_.Similarity(b, d)) /
      4.0;
  EXPECT_NEAR(engine.stats().AverageInterSimilarity(ab, cd), expected_inter,
              1e-12);
  auto max_inter = engine.stats().MaxAverageInter(ab);
  EXPECT_EQ(max_inter.cluster, cd);
  EXPECT_NEAR(max_inter.average, expected_inter, 1e-12);
}

TEST_F(EngineFixture, MaxAverageInterBreaksTiesOnLowestId) {
  // Six identical points tie for the hub's best neighbor; a farther point
  // is weaker. The winner is the lowest tied cluster id, whatever order
  // the inter row iterates in.
  ObjectId hub = AddPoint(0.0);
  std::vector<ObjectId> tied;
  for (int i = 0; i < 6; ++i) tied.push_back(AddPoint(1.0));
  AddPoint(2.0);
  ClusteringEngine engine(&graph_);
  engine.InitSingletons();
  ClusterId hub_cluster = engine.clustering().ClusterOf(hub);
  ClusterId lowest = kInvalidCluster;
  for (ObjectId id : tied) {
    lowest = std::min(lowest, engine.clustering().ClusterOf(id));
  }
  auto max_inter = engine.stats().MaxAverageInter(hub_cluster);
  EXPECT_EQ(max_inter.cluster, lowest);
  EXPECT_EQ(max_inter.average, graph_.Similarity(hub, tied[0]));
  // No inter edges: the sentinel with a zero average.
  ObjectId far = AddPoint(100.0);
  auto none = engine.stats().MaxAverageInter(engine.AddObjectAsSingleton(far));
  EXPECT_EQ(none.cluster, kInvalidCluster);
  EXPECT_EQ(none.average, 0.0);
}

TEST_F(EngineFixture, SingletonAverageIntraIsOne) {
  ObjectId a = AddPoint(0.0);
  ClusteringEngine engine(&graph_);
  engine.InitSingletons();
  EXPECT_DOUBLE_EQ(
      engine.stats().AverageIntraSimilarity(engine.clustering().ClusterOf(a)),
      1.0);
}

TEST_F(EngineFixture, SumToClusterMatchesManualSum) {
  ObjectId a = AddPoint(0.0);
  ObjectId b = AddPoint(0.5);
  ObjectId c = AddPoint(1.0);
  ClusteringEngine engine(&graph_);
  engine.InitSingletons();
  ClusterId bc = engine.Merge(engine.clustering().ClusterOf(b),
                              engine.clustering().ClusterOf(c));
  double expected = graph_.Similarity(a, b) + graph_.Similarity(a, c);
  EXPECT_NEAR(engine.stats().SumToCluster(a, bc), expected, 1e-12);
}

// Property: incremental aggregates equal a full rebuild after random ops.
class StatsConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(StatsConsistencyTest, IncrementalMatchesRebuild) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  Dataset dataset;
  EuclideanSimilarity measure(1.0);
  SimilarityGraph graph(&dataset, &measure,
                        std::make_unique<AllPairsBlocker>(), 0.05);
  std::vector<ObjectId> objects;
  for (int i = 0; i < 30; ++i) {
    Record record;
    record.numeric = {rng.Uniform(0.0, 6.0)};
    ObjectId id = dataset.Add(record);
    graph.AddObject(id);
    objects.push_back(id);
  }
  ClusteringEngine engine(&graph);
  engine.InitSingletons();

  for (int step = 0; step < 80; ++step) {
    auto ids = engine.clustering().ClusterIds();
    double action = rng.Uniform();
    if (action < 0.5 && ids.size() >= 2) {
      ClusterId a = ids[rng.Index(ids.size())];
      ClusterId b = ids[rng.Index(ids.size())];
      if (a != b) engine.Merge(a, b);
    } else if (action < 0.75) {
      ClusterId c = ids[rng.Index(ids.size())];
      if (engine.clustering().ClusterSize(c) >= 2) {
        ObjectId member = *engine.clustering().Members(c).begin();
        engine.SplitOut(c, {member});
      }
    } else if (ids.size() >= 2) {
      ClusterId from = ids[rng.Index(ids.size())];
      ClusterId to = ids[rng.Index(ids.size())];
      if (from != to && engine.clustering().ClusterSize(from) >= 1) {
        ObjectId member = *engine.clustering().Members(from).begin();
        engine.Move(member, to);
      }
    }
  }

  // Compare every aggregate against a freshly rebuilt tracker.
  ClusterStatsTracker rebuilt(&engine.clustering(), &graph);
  rebuilt.Rebuild();
  EXPECT_NEAR(engine.stats().TotalIntraSum(), rebuilt.TotalIntraSum(), 1e-9);
  EXPECT_NEAR(engine.stats().TotalInterSum(), rebuilt.TotalInterSum(), 1e-9);
  for (ClusterId c : engine.clustering().ClusterIds()) {
    EXPECT_NEAR(engine.stats().IntraSum(c), rebuilt.IntraSum(c), 1e-9);
    for (ClusterId d : engine.clustering().ClusterIds()) {
      if (c < d) {
        EXPECT_NEAR(engine.stats().InterSum(c, d), rebuilt.InterSum(c, d),
                    1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsConsistencyTest, ::testing::Range(1, 7));

// ------------------------------------------------------ recording observer

TEST_F(EngineFixture, RecordingObserverCapturesPreChangeState) {
  ObjectId a = AddPoint(0.0);
  ObjectId b = AddPoint(0.1);
  ObjectId c = AddPoint(0.2);
  ClusteringEngine engine(&graph_);
  engine.InitSingletons();
  RecordingObserver observer;
  ClusterId ca = engine.clustering().ClusterOf(a);
  ClusterId cb = engine.clustering().ClusterOf(b);
  observer.OnMerge(engine, ca, cb);
  ClusterId ab = engine.Merge(ca, cb);
  observer.OnSplit(engine, ab, {a});
  engine.SplitOut(ab, {a});
  (void)c;

  ASSERT_EQ(observer.steps().size(), 2u);
  EXPECT_EQ(observer.steps()[0].kind, EvolutionStep::Kind::kMerge);
  EXPECT_EQ(observer.steps()[0].left, (std::vector<ObjectId>{a}));
  EXPECT_EQ(observer.steps()[0].right, (std::vector<ObjectId>{b}));
  EXPECT_EQ(observer.steps()[1].kind, EvolutionStep::Kind::kSplit);
  EXPECT_EQ(observer.steps()[1].left, (std::vector<ObjectId>{a}));
  EXPECT_EQ(observer.steps()[1].right, (std::vector<ObjectId>{b}));
  EXPECT_NE(observer.steps()[0].ToString().find("merge"), std::string::npos);
}

}  // namespace
}  // namespace dynamicc
