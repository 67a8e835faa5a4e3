// Randomized end-to-end consistency checks: a DynamicC session is driven
// with random add/remove/update streams, and after every round the whole
// stack's cross-component invariants are asserted. This is the repository's
// failure-injection net — whatever the models predict and the validator
// decides, the bookkeeping must stay exact.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "batch/agglomerative.h"
#include "cluster/cluster_stats.h"
#include "core/session.h"
#include "data/blocking.h"
#include "data/similarity_measures.h"
#include "ml/decision_tree.h"
#include "ml/logistic_regression.h"
#include "objective/correlation.h"
#include "service/sharded_service.h"
#include "service/snapshot.h"
#include "service_test_util.h"
#include "util/rng.h"
#include "util/status.h"

namespace dynamicc {
namespace {

/// Checks dataset/graph/engine agreement plus incremental-stats exactness.
void AssertConsistent(const Dataset& dataset, const SimilarityGraph& graph,
                      const ClusteringEngine& engine) {
  // Graph objects == alive dataset objects == clustered objects.
  std::vector<ObjectId> alive = dataset.AliveIds();
  EXPECT_EQ(graph.num_objects(), alive.size());
  EXPECT_EQ(engine.clustering().num_objects(), alive.size());
  for (ObjectId id : alive) {
    EXPECT_TRUE(graph.Contains(id));
    EXPECT_NE(engine.clustering().ClusterOf(id), kInvalidCluster);
  }
  // Every cluster member is alive, memberships are mutual.
  for (ClusterId cluster : engine.clustering().ClusterIds()) {
    for (ObjectId member : engine.clustering().Members(cluster)) {
      EXPECT_TRUE(dataset.IsAlive(member));
      EXPECT_EQ(engine.clustering().ClusterOf(member), cluster);
    }
  }
  // Incremental similarity aggregates equal a full rebuild.
  ClusterStatsTracker rebuilt(&engine.clustering(), &graph);
  rebuilt.Rebuild();
  EXPECT_NEAR(engine.stats().TotalIntraSum(), rebuilt.TotalIntraSum(), 1e-6);
  EXPECT_NEAR(engine.stats().TotalInterSum(), rebuilt.TotalInterSum(), 1e-6);
  for (ClusterId cluster : engine.clustering().ClusterIds()) {
    EXPECT_NEAR(engine.stats().IntraSum(cluster), rebuilt.IntraSum(cluster),
                1e-6);
  }
}

class SessionFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SessionFuzzTest, RandomStreamKeepsEverythingConsistent) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  Dataset dataset;
  EuclideanSimilarity measure(1.2);
  SimilarityGraph graph(&dataset, &measure,
                        std::make_unique<AllPairsBlocker>(), 0.05);
  CorrelationObjective objective;
  ObjectiveValidator validator(&objective);
  GreedyAgglomerative batch(&objective);

  DynamicCSession::Options options;
  options.observe_every = (GetParam() % 2 == 0) ? 3 : 0;
  DynamicCSession session(&dataset, &graph, &batch, &validator,
                          std::make_unique<LogisticRegression>(),
                          std::make_unique<DecisionTree>(), options);

  std::vector<ObjectId> alive;
  auto random_ops = [&](int adds, int removes, int updates) {
    OperationBatch ops;
    for (int i = 0; i < adds; ++i) {
      DataOperation op;
      op.kind = DataOperation::Kind::kAdd;
      op.record.numeric = {8.0 * rng.Index(5) + rng.Gaussian(0.0, 0.4)};
      ops.push_back(op);
    }
    std::unordered_set<ObjectId> touched;
    for (int i = 0; i < removes && alive.size() > touched.size() + 3; ++i) {
      ObjectId id = alive[rng.Index(alive.size())];
      if (!touched.insert(id).second) continue;
      DataOperation op;
      op.kind = DataOperation::Kind::kRemove;
      op.target = id;
      ops.push_back(op);
    }
    for (int i = 0; i < updates && !alive.empty(); ++i) {
      ObjectId id = alive[rng.Index(alive.size())];
      if (!touched.insert(id).second) continue;
      DataOperation op;
      op.kind = DataOperation::Kind::kUpdate;
      op.target = id;
      op.record.numeric = {8.0 * rng.Index(5) + rng.Gaussian(0.0, 0.4)};
      ops.push_back(op);
    }
    return ops;
  };
  ObjectId next_id = 0;  // mirrors Dataset's sequential id assignment
  auto track = [&](const OperationBatch& ops) {
    for (const auto& op : ops) {
      if (op.kind == DataOperation::Kind::kAdd) {
        alive.push_back(next_id++);
      } else if (op.kind == DataOperation::Kind::kRemove) {
        alive.erase(std::find(alive.begin(), alive.end(), op.target));
      }
    }
  };

  // Two observed rounds, then a fuzzing run of dynamic rounds.
  for (int round = 0; round < 2; ++round) {
    OperationBatch ops = random_ops(25, 2, 2);
    track(ops);
    auto changed = session.ApplyOperations(ops);
    session.ObserveBatchRound(changed);
    AssertConsistent(dataset, graph, session.engine());
  }
  ASSERT_TRUE(session.is_trained());

  double score = objective.Evaluate(session.engine());
  for (int round = 0; round < 6; ++round) {
    OperationBatch ops =
        random_ops(static_cast<int>(2 + rng.Index(10)),
                   static_cast<int>(rng.Index(4)),
                   static_cast<int>(rng.Index(4)));
    track(ops);
    auto changed = session.ApplyOperations(ops);
    double before_round = objective.Evaluate(session.engine());
    auto report = session.DynamicRound(changed);
    AssertConsistent(dataset, graph, session.engine());
    if (!report.used_batch) {
      // Dynamic rounds only apply validator-approved (improving) changes.
      EXPECT_LE(objective.Evaluate(session.engine()), before_round + 1e-9);
    }
    score = objective.Evaluate(session.engine());
  }
  EXPECT_GE(score, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionFuzzTest, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Async-service fuzz: random add/update/remove streams enqueued into the
// pipelined service with Drain/Flush/Snapshot interleaved at random.
// Whatever the queues coalesced and whenever the background workers
// rounded, every flush barrier must leave the whole sharded stack
// consistent, with the tracked alive set exactly clustered.

class ServiceAsyncFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ServiceAsyncFuzzTest, InterleavedEnqueueAndFlushStaysConsistent) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  ShardedDynamicCService::Options options;
  options.num_shards = (GetParam() % 2 == 0) ? 4 : 2;
  options.async.enabled = true;
  options.async.queue_depth = 1 + rng.Index(32);  // exercise backpressure
  // Bounded drain bites (the AIMD floor) on most seeds; 0 = drain
  // everything queued.
  const size_t bite = rng.Index(8);
  options.async.adaptive_batch = bite > 0;
  options.async.min_batch = std::max<size_t>(1, bite);
  ShardedDynamicCService service(options, nullptr, MakeFactory());

  const int kGroups = 8;
  std::vector<ObjectId> alive;       // tracked global ids
  std::vector<ObjectId> recent;      // admitted this phase, maybe queued
  uint64_t admitted = 0;
  auto random_ops = [&](int adds, int churn) {
    OperationBatch ops;
    for (int i = 0; i < adds; ++i) {
      DataOperation op;
      op.kind = DataOperation::Kind::kAdd;
      int group = static_cast<int>(rng.Index(kGroups));
      op.record.entity = static_cast<uint32_t>(group);
      op.record.tokens = {"grp" + std::to_string(group),
                          "tag" + std::to_string(group)};
      ops.push_back(op);
    }
    // Churn against recently admitted ids: in async mode these target
    // operations that may still sit in a queue, exercising the add ->
    // update fold and add -> remove annihilation paths end to end.
    for (int i = 0; i < churn && !recent.empty(); ++i) {
      ObjectId target = recent[rng.Index(recent.size())];
      if (std::find(alive.begin(), alive.end(), target) == alive.end()) {
        continue;
      }
      DataOperation op;
      if (rng.Chance(0.5)) {
        op.kind = DataOperation::Kind::kUpdate;
        int group = static_cast<int>(target % kGroups);
        op.record.entity = static_cast<uint32_t>(group);
        op.record.tokens = {"grp" + std::to_string(group),
                            "tag" + std::to_string(group)};
      } else {
        op.kind = DataOperation::Kind::kRemove;
        alive.erase(std::find(alive.begin(), alive.end(), target));
      }
      op.target = target;
      ops.push_back(op);
    }
    return ops;
  };
  auto admit = [&](const OperationBatch& ops) {
    auto changed = service.ApplyOperations(ops);
    admitted += ops.size();
    recent.clear();
    for (size_t i = 0, c = 0; i < ops.size(); ++i) {
      if (ops[i].kind == DataOperation::Kind::kAdd) {
        alive.push_back(changed[c]);
        recent.push_back(changed[c]);
        ++c;
      } else if (ops[i].kind == DataOperation::Kind::kUpdate) {
        ++c;
      }
    }
  };
  auto check_flushed = [&] {
    // Every admitted operation reflected; alive set exactly clustered.
    ServiceSnapshot snap = service.Snapshot();
    EXPECT_EQ(snap.sequence, admitted);
    EXPECT_EQ(snap.total_objects, alive.size());
    std::vector<ObjectId> clustered;
    for (const auto& cluster : snap.clusters) {
      clustered.insert(clustered.end(), cluster.begin(), cluster.end());
    }
    std::sort(clustered.begin(), clustered.end());
    std::vector<ObjectId> expected = alive;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(clustered, expected);
  };

  // Training phase behind explicit barriers.
  for (int round = 0; round < 2; ++round) {
    admit(random_ops(20, 2));
    service.ObserveBatchRound({});
    check_flushed();
  }

  // Serving phase: enqueue bursts with random barriers in between.
  for (int step = 0; step < 12; ++step) {
    admit(random_ops(static_cast<int>(1 + rng.Index(6)),
                     static_cast<int>(rng.Index(4))));
    double dice = rng.Uniform();
    if (dice < 0.25) {
      service.Flush();
      check_flushed();
    } else if (dice < 0.45) {
      service.Drain();
    } else if (dice < 0.6) {
      ServiceSnapshot snap = service.Snapshot();  // mid-stream cut
      EXPECT_LE(snap.sequence, admitted);
    }
  }
  service.Flush();
  check_flushed();
  EXPECT_EQ(service.ingest_stats().accepted_ops, admitted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServiceAsyncFuzzTest, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Snapshot fuzz: random streams with a save -> load -> continue-ingesting
// pivot at a random point. The restored service must assign the same ids
// and produce the same clusters as the original for the entire remaining
// stream — under random coalescing, random barriers, sync and async —
// and randomly mutilated snapshot directories must be rejected.

class SnapshotFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotFuzzTest, SaveLoadContinueStaysByteIdentical) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 15485863 + 11);
  ShardedDynamicCService::Options options;
  options.num_shards = (GetParam() % 2 == 0) ? 4 : 2;
  options.async.enabled = GetParam() % 3 != 0;
  options.async.queue_depth = 8 + rng.Index(64);
  const size_t bite = rng.Index(8);  // 0 = drain everything queued
  options.async.adaptive_batch = bite > 0;
  options.async.min_batch = std::max<size_t>(1, bite);
  auto make_service = [&options] {
    return std::make_unique<ShardedDynamicCService>(options, nullptr,
                                                    MakeFactory());
  };
  auto original = make_service();

  const int kGroups = 6;
  std::vector<ObjectId> alive;
  auto random_ops = [&](int adds, int churn) {
    OperationBatch ops;
    for (int i = 0; i < adds; ++i) {
      DataOperation op;
      op.kind = DataOperation::Kind::kAdd;
      int group = static_cast<int>(rng.Index(kGroups));
      op.record.entity = static_cast<uint32_t>(group);
      op.record.tokens = {"grp" + std::to_string(group),
                          "tag" + std::to_string(group),
                          "n" + std::to_string(rng.Index(50))};
      ops.push_back(op);
    }
    for (int i = 0; i < churn && !alive.empty(); ++i) {
      size_t pick = rng.Index(alive.size());
      ObjectId target = alive[pick];
      DataOperation op;
      op.target = target;
      if (rng.Chance(0.6)) {
        op.kind = DataOperation::Kind::kUpdate;
        int group = static_cast<int>(target % kGroups);
        op.record.entity = static_cast<uint32_t>(group);
        op.record.tokens = {"grp" + std::to_string(group),
                            "tag" + std::to_string(group),
                            "m" + std::to_string(rng.Index(50))};
      } else {
        op.kind = DataOperation::Kind::kRemove;
        alive.erase(alive.begin() + static_cast<long>(pick));
      }
      ops.push_back(op);
    }
    return ops;
  };
  // Drives one or two services in lockstep and asserts identical id
  // assignment (the byte-identical-assignments half of the contract).
  ShardedDynamicCService* restored = nullptr;
  std::unique_ptr<ShardedDynamicCService> restored_owner;
  auto admit = [&](const OperationBatch& ops) {
    auto changed = original->ApplyOperations(ops);
    if (restored != nullptr) {
      EXPECT_EQ(restored->ApplyOperations(ops), changed);
    }
    for (size_t i = 0, c = 0; i < ops.size(); ++i) {
      if (ops[i].kind == DataOperation::Kind::kAdd) {
        alive.push_back(changed[c++]);
      } else if (ops[i].kind == DataOperation::Kind::kUpdate) {
        ++c;
      }
    }
  };
  auto barrier_and_compare = [&] {
    original->Flush();
    if (restored != nullptr) {
      restored->Flush();
      EXPECT_EQ(original->GlobalClusters(), restored->GlobalClusters());
      EXPECT_EQ(original->placement().version(),
                restored->placement().version());
    }
  };

  for (int round = 0; round < 2; ++round) {
    auto ops = random_ops(18, 2);
    auto changed = original->ApplyOperations(ops);
    for (size_t i = 0, c = 0; i < ops.size(); ++i) {
      if (ops[i].kind == DataOperation::Kind::kAdd) {
        alive.push_back(changed[c++]);
      } else if (ops[i].kind == DataOperation::Kind::kUpdate) {
        ++c;
      }
    }
    original->ObserveBatchRound(changed);
  }
  original->Flush();

  const std::string dir = ::testing::TempDir() + "dynamicc_snapfuzz_" +
                          std::to_string(GetParam());
  std::filesystem::remove_all(dir);
  const int pivot = 2 + static_cast<int>(rng.Index(4));
  for (int step = 0; step < 10; ++step) {
    admit(random_ops(static_cast<int>(1 + rng.Index(5)),
                     static_cast<int>(rng.Index(3))));
    if (rng.Chance(0.3)) barrier_and_compare();
    if (step == pivot) {
      // Save mid-stream (SaveSnapshot quiesces by itself) and continue
      // driving the original and the restored copy in lockstep.
      ASSERT_TRUE(original->SaveSnapshot(dir).ok());
      restored_owner = make_service();
      ASSERT_TRUE(restored_owner->LoadSnapshot(dir).ok());
      restored = restored_owner.get();
      EXPECT_EQ(original->GlobalClusters(), restored->GlobalClusters());
    }
  }
  barrier_and_compare();
  ASSERT_NE(restored, nullptr);
  IngestStats sa = original->ingest_stats();
  IngestStats sb = restored->ingest_stats();
  EXPECT_EQ(sa.accepted_ops, sb.accepted_ops);
  // applied_ops is deliberately NOT compared: this stream churns
  // recently-admitted ids, so how many operations the queues coalesce
  // away — and hence how many survive to be applied — depends on each
  // service's drain-worker timing. Equivalent services can legitimately
  // disagree on it; the clustering comparison above is the contract.

  // Mutilation fuzz on the saved directory: any byte flip or truncation
  // anywhere must be caught by the manifest checksums.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename() != "MANIFEST") {
      files.push_back(entry.path().string());
    }
  }
  ASSERT_FALSE(files.empty());
  for (int trial = 0; trial < 4; ++trial) {
    const std::string& victim = files[rng.Index(files.size())];
    std::ifstream in(victim, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string bytes = buffer.str();
    in.close();
    ASSERT_FALSE(bytes.empty());
    std::string damaged = bytes;
    if (rng.Chance(0.5)) {
      damaged[rng.Index(damaged.size())] ^= static_cast<char>(
          1 + rng.Index(255));
    } else {
      damaged.resize(rng.Index(damaged.size()));
    }
    if (damaged == bytes) continue;
    {
      std::ofstream out(victim, std::ios::binary | std::ios::trunc);
      out << damaged;
    }
    auto fresh = make_service();
    EXPECT_FALSE(fresh->LoadSnapshot(dir).ok())
        << victim << " mutilation went undetected";
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzzTest, ::testing::Range(1, 7));

}  // namespace
}  // namespace dynamicc
