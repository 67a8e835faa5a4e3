#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"

namespace dynamicc {
namespace {

// The experiment harness is itself part of the public surface (benches and
// downstream users drive experiments through it), so its contracts get
// their own coverage.

TEST(Harness, MakeStreamHonorsScaleOverride) {
  WorkloadStream stream = MakeStream(WorkloadKind::kCora, 77, 0);
  EXPECT_EQ(stream.initial.size(), 77u);
  WorkloadStream defaulted = MakeStream(WorkloadKind::kCora, 0, 0);
  EXPECT_EQ(defaulted.initial.size(), 280u);  // generator default
}

TEST(Harness, MakeStreamSeedChangesContent) {
  WorkloadStream a = MakeStream(WorkloadKind::kMusic, 50, 1);
  WorkloadStream b = MakeStream(WorkloadKind::kMusic, 50, 2);
  bool any_diff = false;
  for (size_t i = 0; i < a.initial.size(); ++i) {
    if (a.initial[i].record.text != b.initial[i].record.text) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Harness, ProfilesExistForAllWorkloads) {
  for (WorkloadKind workload :
       {WorkloadKind::kCora, WorkloadKind::kMusic, WorkloadKind::kSynthetic,
        WorkloadKind::kAccess, WorkloadKind::kRoad}) {
    DatasetProfile profile = MakeProfile(workload);
    EXPECT_NE(profile.measure, nullptr) << WorkloadName(workload);
    EXPECT_NE(profile.blocker, nullptr) << WorkloadName(workload);
  }
}

TEST(Harness, WorkloadAndTaskNames) {
  EXPECT_STREQ(WorkloadName(WorkloadKind::kSynthetic), "synthetic");
  EXPECT_STREQ(TaskName(TaskKind::kDbIndex), "db-index");
  EXPECT_STREQ(TaskName(TaskKind::kDbscan), "dbscan");
}

ExperimentConfig TinyConfig() {
  ExperimentConfig config;
  config.workload = WorkloadKind::kCora;
  config.task = TaskKind::kCorrelation;
  config.scale = 60;
  config.training_rounds = 1;
  return config;
}

TEST(Harness, BatchBuildsOneReferencePerSnapshot) {
  ExperimentHarness harness(TinyConfig());
  Series batch = harness.RunBatch();
  EXPECT_EQ(batch.points.size(), harness.stream().snapshots.size());
  EXPECT_EQ(harness.references().size(), batch.points.size());
  for (size_t i = 0; i < batch.points.size(); ++i) {
    size_t objects = 0;
    for (const auto& cluster : harness.references()[i]) {
      objects += cluster.size();
    }
    EXPECT_EQ(objects, batch.points[i].num_objects);
    EXPECT_EQ(batch.points[i].num_clusters, harness.references()[i].size());
  }
}

TEST(Harness, GreedySetRequiresGreedyRunFirst) {
  ExperimentHarness harness(TinyConfig());
  harness.RunBatch();
  EXPECT_DEATH(harness.RunDynamicC(/*greedy_set=*/true), "RunGreedy");
}

TEST(Harness, QualityAgainstSelfIsPerfectForBatch) {
  ExperimentHarness harness(TinyConfig());
  Series batch = harness.RunBatch();
  for (const auto& point : batch.points) {
    EXPECT_DOUBLE_EQ(point.quality.f1, 1.0);
  }
}

TEST(Harness, QualityWithoutReferencesLeavesDefaults) {
  ExperimentHarness harness(TinyConfig());  // no RunBatch(): no references
  Series naive = harness.RunNaive();
  for (const auto& point : naive.points) {
    EXPECT_DOUBLE_EQ(point.quality.f1, 0.0);  // untouched default
  }
}

TEST(Harness, HarvestSamplesProducesLabelledFeatures) {
  ExperimentHarness harness(TinyConfig());
  auto harvest = harness.HarvestSamples(3);
  EXPECT_GT(harvest.merge.size(), 10u);
  size_t positives = 0;
  for (const auto& sample : harvest.merge) {
    EXPECT_EQ(sample.features.size(), 4u);
    EXPECT_TRUE(sample.label == 0 || sample.label == 1);
    positives += sample.label;
  }
  // The trainer balances positives and negatives 1:1 (§5.3); feedback can
  // skew it slightly but the harvest is observation-only.
  EXPECT_GT(positives, harvest.merge.size() / 3);
  EXPECT_LT(positives, harvest.merge.size() * 2 / 3 + 2);
}

TEST(Harness, ThetaOverrideChangesEffort) {
  // Very high theta => almost nothing flagged; low theta => plenty.
  ExperimentConfig config = TinyConfig();
  config.theta_override = 0.99;
  config.retrain_every = 0;
  ExperimentHarness strict(config);
  strict.RunBatch();
  Series high = strict.RunDynamicC(false);

  config.theta_override = 0.02;
  ExperimentHarness lax(config);
  lax.RunBatch();
  Series low = lax.RunDynamicC(false);

  size_t high_pred = 0, low_pred = 0;
  for (const auto& point : high.points) {
    high_pred += point.dynamicc.merge_predicted;
  }
  for (const auto& point : low.points) {
    low_pred += point.dynamicc.merge_predicted;
  }
  EXPECT_LT(high_pred, low_pred);
}

TEST(Harness, TotalLatencyIsSumOfPoints) {
  ExperimentHarness harness(TinyConfig());
  Series naive = harness.RunNaive();
  double sum = 0.0;
  for (const auto& point : naive.points) sum += point.latency_ms;
  EXPECT_NEAR(naive.total_latency_ms, sum, 1e-6);
}

}  // namespace
}  // namespace dynamicc
