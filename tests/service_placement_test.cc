// Dynamic shard placement: the versioned PlacementTable, live group
// migration (source drain + ClusteringEngine state surgery), and the
// load-aware Rebalancer. The anchor is migration equivalence — after
// moving arbitrary groups between shards, a flush-barrier run must be
// byte-identical to the never-migrated synchronous single-engine run.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/blocking.h"
#include "data/operations.h"
#include "eval/pair_metrics.h"
#include "service/placement.h"
#include "service/rebalancer.h"
#include "service/service_report.h"
#include "service/shard_router.h"
#include "service/sharded_service.h"
#include "service_test_util.h"

namespace dynamicc {
namespace {

// ----------------------------------------------------------- PlacementTable

TEST(PlacementTable, VersionsGrowMonotonicallyAndPinnedViewsStayImmutable) {
  PlacementTable table;
  EXPECT_EQ(table.version(), 0u);
  EXPECT_EQ(table.num_overrides(), 0u);

  PlacementTable::View v0 = table.Current();
  EXPECT_EQ(table.Assign(7, 2), 1u);
  EXPECT_EQ(table.Assign(9, 0), 2u);
  EXPECT_EQ(table.Assign(7, 3), 3u);  // re-assign bumps, overrides

  // The pinned view is copy-on-write: it still sees the world at
  // version 0 even though three successors were published.
  EXPECT_EQ(v0->version, 0u);
  EXPECT_EQ(v0->Find(7), nullptr);

  PlacementTable::View v3 = table.Current();
  EXPECT_EQ(v3->version, 3u);
  ASSERT_NE(v3->Find(7), nullptr);
  EXPECT_EQ(*v3->Find(7), 3u);
  ASSERT_NE(v3->Find(9), nullptr);
  EXPECT_EQ(*v3->Find(9), 0u);
  EXPECT_EQ(v3->Find(8), nullptr);  // unseen group: hash fallback
  EXPECT_EQ(table.num_overrides(), 2u);
}

TEST(ShardRouter, GroupKeyMatchesBlockingKeyHash) {
  // The router's group identity must agree with the data layer's
  // content hash — placement overrides and fallback routing have to
  // name the same groups.
  HashShardRouter router;
  Record record;
  record.tokens = {"grp5", "tag5"};
  EXPECT_EQ(router.GroupKey(record), BlockingKeyHash("grp5"));
  EXPECT_EQ(router.GroupKey(record), StableShardKeyHash(record));
  // Fallback routing reduces exactly this key.
  for (uint32_t shards : {2u, 4u, 8u}) {
    EXPECT_EQ(router.Route(record, shards),
              static_cast<uint32_t>(router.GroupKey(record) % shards));
  }
}

// ------------------------------------------------------ migration mechanics

ShardedDynamicCService::Options SyncOptions(uint32_t shards) {
  ShardedDynamicCService::Options options;
  options.num_shards = shards;
  return options;
}

TEST(GroupMigration, MovesRecordsClustersAndOwnership) {
  ShardedDynamicCService service(SyncOptions(4), nullptr, MakeFactory());
  auto changed = service.ApplyOperations(GroupAdds(8, 4));
  service.ObserveBatchRound(changed);
  changed = service.ApplyOperations(GroupAdds(8, 2));
  service.ObserveBatchRound(changed);
  service.Flush();

  auto before = service.GlobalClusters();
  uint64_t group = GroupKeyOf(3);
  uint32_t source = service.ShardOfObject(3);  // global id 3 = group 3's 1st
  uint32_t dest = (source + 1) % 4;

  auto report = service.MigrateGroup(group, dest);
  EXPECT_TRUE(report.moved);
  EXPECT_EQ(report.from, source);
  EXPECT_EQ(report.to, dest);
  EXPECT_EQ(report.objects, 6u);   // 4 + 2 records of group 3
  EXPECT_EQ(report.clusters, 1u);  // they formed one cluster
  EXPECT_GT(report.placement_version, 0u);

  // Ownership flipped for every member.
  for (ObjectId id : {3u, 11u, 19u, 27u, 35u, 43u}) {
    EXPECT_EQ(service.ShardOfObject(id), dest) << "id " << id;
  }

  // The clustering is unchanged — state moved, nothing re-clustered.
  EXPECT_EQ(service.GlobalClusters(), before);

  // New adds for the moved group follow the override.
  auto ids = service.ApplyOperations(AddsForGroups({3}, 1));
  EXPECT_EQ(service.ShardOfObject(ids[0]), dest);
  service.Flush();
  EXPECT_EQ(service.GlobalClusters().size(), 8u);
}

TEST(GroupMigration, RemovesAndUpdatesFollowTheMovedGroup) {
  ShardedDynamicCService service(SyncOptions(4), nullptr, MakeFactory());
  auto changed = service.ApplyOperations(GroupAdds(6, 4));
  service.ObserveBatchRound(changed);
  changed = service.ApplyOperations(GroupAdds(6, 2));
  service.ObserveBatchRound(changed);

  uint64_t group = GroupKeyOf(0);
  uint32_t dest = (service.ShardOfObject(0) + 2) % 4;
  ASSERT_TRUE(service.MigrateGroup(group, dest).moved);

  // Mutate pre-move members after the move: the ops must route to the
  // new owner and apply cleanly.
  OperationBatch ops;
  DataOperation remove;
  remove.kind = DataOperation::Kind::kRemove;
  remove.target = 0;
  ops.push_back(remove);
  DataOperation update;
  update.kind = DataOperation::Kind::kUpdate;
  update.target = 6;  // group 0's second record
  update.record.entity = 0;
  update.record.tokens = {"grp0", "tag0"};
  ops.push_back(update);
  size_t before = service.total_objects();
  service.ApplyOperations(ops);
  service.Flush();
  EXPECT_EQ(service.total_objects(), before - 1);
  EXPECT_EQ(service.GlobalClusters().size(), 6u);
}

TEST(GroupMigration, GroupShardTrackingSurvivesTombstonedFirstMembers) {
  // A group whose FIRST-admitted record died keeps migrating correctly:
  // ownership is tracked per group, not inferred from early members
  // (tombstones stay where they died).
  ShardedDynamicCService service(SyncOptions(2), nullptr, MakeFactory());
  auto ids = service.ApplyOperations(GroupAdds(2, 3));
  OperationBatch ops;
  DataOperation remove;
  remove.kind = DataOperation::Kind::kRemove;
  remove.target = ids[0];  // group 0's first record
  ops.push_back(remove);
  service.ApplyOperations(ops);

  uint32_t source = service.ShardOfObject(ids[2]);  // an alive member
  uint32_t dest = 1 - source;
  auto first = service.MigrateGroup(GroupKeyOf(0), dest);
  EXPECT_TRUE(first.moved);
  EXPECT_EQ(first.objects, 2u);

  // GroupLoads must attribute the group to its new shard...
  bool found = false;
  for (const auto& load : service.GroupLoads()) {
    if (load.group == GroupKeyOf(0)) {
      EXPECT_EQ(load.shard, dest);
      EXPECT_EQ(load.records, 2u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // ...and a second migration must resolve the source correctly (a
  // first-member lookup would still point at the tombstone's shard).
  auto back = service.MigrateGroup(GroupKeyOf(0), source);
  EXPECT_TRUE(back.moved);
  EXPECT_EQ(back.from, dest);
  EXPECT_EQ(back.objects, 2u);
}

TEST(GroupMigration, UnknownGroupJustPinsPlacement) {
  ShardedDynamicCService service(SyncOptions(4), nullptr, MakeFactory());
  uint64_t group = GroupKeyOf(42);
  auto report = service.MigrateGroup(group, 1);
  EXPECT_FALSE(report.moved);
  EXPECT_EQ(report.objects, 0u);
  EXPECT_EQ(report.placement_version, 1u);

  // The pin takes effect for the group's very first records.
  auto ids = service.ApplyOperations(AddsForGroups({42}, 3));
  for (ObjectId id : ids) EXPECT_EQ(service.ShardOfObject(id), 1u);
}

// ---------------------------------------------------- migration equivalence

std::vector<OperationBatch> EquivalenceStream(int groups) {
  std::vector<OperationBatch> batches;
  batches.push_back(GroupAdds(groups, 4));
  batches.push_back(GroupAdds(groups, 2));
  OperationBatch mixed = GroupAdds(groups, 1);
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
  batches.push_back(GroupAdds(groups, 1));
  return batches;
}

TEST(GroupMigration, FlushAfterArbitraryMigrationsIsByteIdenticalToSync) {
  // The acceptance bar: migrate arbitrary groups around between served
  // snapshots — in sync and async mode alike — and the flush-barrier
  // state must equal the never-migrated single-engine run exactly.
  const int kGroups = 12;
  std::vector<OperationBatch> batches = EquivalenceStream(kGroups);
  std::vector<std::vector<ObjectId>> reference =
      SingleEngineRun(batches, /*training=*/2);
  ASSERT_EQ(reference.size(), static_cast<size_t>(kGroups));

  for (bool async : {false, true}) {
    ShardedDynamicCService::Options options = SyncOptions(4);
    options.async.enabled = async;
    ShardedDynamicCService service(options, nullptr, MakeFactory());

    auto changed = service.ApplyOperations(batches[0]);
    service.ObserveBatchRound(changed);
    changed = service.ApplyOperations(batches[1]);
    service.ObserveBatchRound(changed);
    ASSERT_TRUE(service.is_trained());

    // Scatter every group deterministically before serving traffic.
    for (int g = 0; g < kGroups; ++g) {
      service.MigrateGroup(GroupKeyOf(g), static_cast<uint32_t>(g) % 4);
    }
    changed = service.ApplyOperations(batches[2]);
    if (!async) service.DynamicRound(changed);

    // Move a few groups again mid-serving (possibly racing the async
    // workers), then serve the last snapshot.
    for (int g = 0; g < kGroups; g += 3) {
      service.MigrateGroup(GroupKeyOf(g), static_cast<uint32_t>(g + 1) % 4);
    }
    changed = service.ApplyOperations(batches[3]);
    service.Flush();

    auto clusters = service.GlobalClusters();
    EXPECT_EQ(clusters, reference) << "async=" << async;
    EXPECT_DOUBLE_EQ(PairF1(clusters, reference), 1.0) << "async=" << async;
  }
}

TEST(GroupMigration, AppliesQueuedOperationsThatRacedTheMove) {
  // Async: enqueue a burst for one group and migrate it immediately.
  // MigrateGroup drains the source shard first, so when it returns the
  // whole burst is applied state on the destination — nothing is left
  // queued, nothing is lost or applied twice.
  ShardedDynamicCService::Options options = SyncOptions(2);
  options.async.enabled = true;
  options.async.queue_depth = 4096;
  ShardedDynamicCService service(options, nullptr, MakeFactory());
  auto changed = service.ApplyOperations(GroupAdds(4, 3));
  service.ObserveBatchRound(changed);
  changed = service.ApplyOperations(GroupAdds(4, 2));
  service.ObserveBatchRound(changed);

  auto ids = service.Ingest(AddsForGroups({1}, 300)).changed;
  ASSERT_EQ(ids.size(), 300u);
  OperationBatch churn;
  DataOperation remove;
  remove.kind = DataOperation::Kind::kRemove;
  remove.target = ids[0];
  churn.push_back(remove);
  service.Ingest(churn);

  uint32_t source = service.ShardOfObject(ids[0]);
  uint32_t dest = 1 - source;
  auto report = service.MigrateGroup(GroupKeyOf(1), dest);
  EXPECT_TRUE(report.moved);
  EXPECT_EQ(report.from, source);
  // 5 trained records + 300 new - 1 removed, all moved as applied state.
  EXPECT_EQ(report.objects, 5u + 300u - 1u);
  EXPECT_EQ(service.ingest_stats().pending_ops, 0u);
  EXPECT_EQ(service.total_objects(), 4u * 5u + 300u - 1u);

  // Every alive member of the moved group now belongs to the
  // destination. (ids[0] is either a tombstone, which stays where it
  // died, or an add annihilated in the queue, which follows the group —
  // depending on whether the worker took the add before the remove
  // arrived.)
  for (size_t i = 1; i < ids.size(); ++i) {
    ASSERT_EQ(service.ShardOfObject(ids[i]), dest);
  }

  service.Flush();
  // 4 groups * 5 records + 300 new - 1 removed, nothing lost or
  // double-applied across the move. (How far the model merges a
  // 300-singleton flash crowd in one round is its own business —
  // byte-equivalence under migration is pinned by the test above at
  // ordinary burst sizes — but every cluster must stay within one
  // shard: similarity never crosses groups, groups never split.)
  EXPECT_EQ(service.total_objects(), 4u * 5u + 300u - 1u);
  auto clusters = service.GlobalClusters();
  EXPECT_GE(clusters.size(), 4u);
  for (const auto& cluster : clusters) {
    uint32_t owner = service.ShardOfObject(cluster.front());
    for (ObjectId id : cluster) {
      ASSERT_EQ(service.ShardOfObject(id), owner);
    }
  }
}

TEST(GroupMigration, PlacementVersionsAreDeterministic) {
  // Two identically-fed services executing the same migration sequence
  // publish identical version numbers and identical clusterings.
  auto run = [] {
    ShardedDynamicCService service(SyncOptions(4), nullptr, MakeFactory());
    auto changed = service.ApplyOperations(GroupAdds(8, 3));
    service.ObserveBatchRound(changed);
    changed = service.ApplyOperations(GroupAdds(8, 2));
    service.ObserveBatchRound(changed);
    std::vector<uint64_t> versions;
    for (int g = 0; g < 8; ++g) {
      versions.push_back(
          service.MigrateGroup(GroupKeyOf(g), static_cast<uint32_t>(7 - g) % 4)
              .placement_version);
    }
    service.Flush();
    return std::make_pair(versions, service.GlobalClusters());
  };
  auto first = run();
  auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  for (size_t i = 0; i < first.first.size(); ++i) {
    EXPECT_EQ(first.first[i], static_cast<uint64_t>(i + 1));
  }
}

// --------------------------------------------------------------- rebalancer

TEST(Rebalancer, BalancedLoadYieldsNoMoves) {
  Rebalancer policy(Rebalancer::Options{});
  std::vector<Rebalancer::GroupLoad> groups;
  for (int g = 0; g < 40; ++g) {
    groups.push_back({static_cast<uint64_t>(g), static_cast<uint32_t>(g % 4),
                      static_cast<size_t>(9 + g % 3)});
  }
  EXPECT_TRUE(policy.PickMoves(4, groups).empty());
}

TEST(Rebalancer, RelievesTheStragglerGreedily) {
  Rebalancer::Options options;
  options.hysteresis = 1.2;
  options.max_moves = 2;
  Rebalancer policy(options);
  // Shard 0 carries 4 groups of 25; the rest carry 1 group of 10 each.
  std::vector<Rebalancer::GroupLoad> groups = {
      {101, 0, 25}, {102, 0, 25}, {103, 0, 25}, {104, 0, 25},
      {201, 1, 10}, {202, 2, 10}, {203, 3, 10}};
  auto moves = policy.PickMoves(4, groups);
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_EQ(moves[0].from, 0u);
  EXPECT_EQ(moves[1].from, 0u);
  // Destinations are the two coolest shards, heaviest groups first,
  // ties broken on group hash: fully deterministic.
  EXPECT_EQ(moves[0].group, 101u);
  EXPECT_EQ(moves[1].group, 102u);
  EXPECT_NE(moves[0].to, 0u);
  EXPECT_NE(moves[1].to, moves[0].to);
}

TEST(Rebalancer, TinyGroupsNeverMove) {
  // Singletons sit below kMinGroupRecords: however lopsided the shards,
  // surgery on a one-record group costs more than it relieves.
  static_assert(Rebalancer::kMinGroupRecords == 2);
  Rebalancer policy(Rebalancer::Options{});
  std::vector<Rebalancer::GroupLoad> groups;
  for (int g = 0; g < 10; ++g) {
    groups.push_back({static_cast<uint64_t>(g), 0, 1});
  }
  EXPECT_TRUE(policy.PickMoves(2, groups).empty());
  // One group at the floor is movable again.
  groups.push_back({99, 0, 2});
  auto moves = policy.PickMoves(2, groups);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].group, 99u);
  EXPECT_EQ(moves[0].to, 1u);
}

// ------------------------------------------------- end-to-end rebalancing

TEST(RebalanceOnce, SpreadsACollidingHotSetAndPreservesTheClustering) {
  // An adversarial workload: 6 groups whose hash placement collides on
  // one shard of 4. RebalanceOnce must spread them and leave the
  // clustering exactly as it was.
  const uint32_t kShards = 4;
  std::vector<int> hot = CollidingGroups(6, 0, kShards, 4096);
  ASSERT_EQ(hot.size(), 6u);

  ShardedDynamicCService::Options options = SyncOptions(kShards);
  options.rebalance.policy.hysteresis = 1.1;
  options.rebalance.policy.max_moves = 8;
  ShardedDynamicCService service(options, nullptr, MakeFactory());

  auto changed = service.ApplyOperations(AddsForGroups(hot, 4));
  service.ObserveBatchRound(changed);
  changed = service.ApplyOperations(AddsForGroups(hot, 2));
  service.ObserveBatchRound(changed);
  service.Flush();

  ServiceSnapshot before = service.Snapshot();
  EXPECT_DOUBLE_EQ(before.report.record_imbalance, 4.0)
      << "everything on one shard of four";
  auto clusters_before = service.GlobalClusters();

  auto report = service.RebalanceOnce();
  EXPECT_GE(report.moves.size(), 3u);
  EXPECT_GT(report.record_imbalance_before, report.record_imbalance_after);
  EXPECT_LE(report.record_imbalance_after, 2.0);
  EXPECT_EQ(service.GlobalClusters(), clusters_before);

  // A second pass on the now-balanced placement keeps its hands still.
  auto idle = service.RebalanceOnce();
  EXPECT_TRUE(idle.moves.empty());

  ServiceSnapshot after = service.Snapshot();
  EXPECT_GT(after.report.placement_version, 0u);
  EXPECT_GE(after.report.groups_migrated, 3u);
}

TEST(RebalanceOnce, LaterPassesOverHomogeneousTrafficLeaveThePlacementAlone) {
  // Spread a colliding hot set once, then keep serving traffic that
  // grows every hot group alike, with a pass after every round. Load is
  // alive records, so the spread placement stays balanced as it grows:
  // no later pass may move a group, whatever the rounds cost.
  const uint32_t kShards = 4;
  std::vector<int> hot = CollidingGroups(6, 0, kShards, 4096);
  ASSERT_EQ(hot.size(), 6u);

  ShardedDynamicCService::Options options = SyncOptions(kShards);
  options.rebalance.policy.hysteresis = 1.1;
  options.rebalance.policy.max_moves = 8;
  ShardedDynamicCService service(options, nullptr, MakeFactory());

  auto changed = service.ApplyOperations(AddsForGroups(hot, 4));
  service.ObserveBatchRound(changed);
  changed = service.ApplyOperations(AddsForGroups(hot, 2));
  service.ObserveBatchRound(changed);
  service.Flush();

  auto spread = service.RebalanceOnce();
  ASSERT_GE(spread.moves.size(), 3u);
  ServiceSnapshot settled = service.Snapshot();

  for (int pass = 0; pass < 5; ++pass) {
    changed = service.ApplyOperations(AddsForGroups(hot, 1));
    service.DynamicRound(changed);
    auto later = service.RebalanceOnce();
    EXPECT_TRUE(later.moves.empty()) << "pass " << pass;
    EXPECT_EQ(later.placement_version, settled.report.placement_version)
        << "pass " << pass;
  }
  ServiceSnapshot after = service.Snapshot();
  EXPECT_EQ(after.report.placement_version, settled.report.placement_version);
  EXPECT_EQ(after.report.groups_migrated, settled.report.groups_migrated);
  EXPECT_EQ(after.clusters.size(), hot.size());
}

TEST(RebalanceOnce, CountsQueuedAddsAndMovesTheSameOnEveryRun) {
  // Async: queue a colliding hot burst and rebalance at once, while the
  // hot shard's worker is still applying it. The pass must count every
  // admitted record — its imbalance is the one the admitted stream
  // implies — and two services fed the same stream must make the same
  // moves, however far their workers had got.
  const uint32_t kShards = 4;
  const int kBackground = 16;  // groups 0..15, spread by hash
  const int kPerIngest = 20;
  std::vector<int> hot;  // groups 1000+ that collide on shard 0
  for (int g = 1000; hot.size() < 6; ++g) {
    if (GroupKeyOf(g) % kShards == 0) hot.push_back(g);
  }

  // Alive records per shard implied by the stream below: background
  // groups land on their hash shard, the hot set all on shard 0.
  std::vector<double> records(kShards, 0.0);
  for (int g = 0; g < kBackground; ++g) {
    records[GroupKeyOf(g) % kShards] += 3.0;
  }
  records[0] += static_cast<double>(hot.size()) * 4 * kPerIngest;
  double total = 0.0;
  double max = 0.0;
  for (double r : records) {
    total += r;
    max = std::max(max, r);
  }
  const double expected_before = max / (total / kShards);

  auto run = [&] {
    ShardedDynamicCService::Options options = SyncOptions(kShards);
    options.async.enabled = true;
    options.rebalance.policy.hysteresis = 1.1;
    options.rebalance.policy.max_moves = 8;
    ShardedDynamicCService service(options, nullptr, MakeFactory());
    auto changed = service.ApplyOperations(GroupAdds(kBackground, 2));
    service.ObserveBatchRound(changed);
    changed = service.ApplyOperations(GroupAdds(kBackground, 1));
    service.ObserveBatchRound(changed);
    service.Flush();

    // Four separate admissions: the worker takes the first while the
    // rest queue up behind it.
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(service.Ingest(AddsForGroups(hot, kPerIngest)).accepted);
    }
    auto report = service.RebalanceOnce();
    EXPECT_EQ(service.ingest_stats().pending_ops, 0u);
    service.Flush();
    EXPECT_EQ(service.total_objects(), static_cast<size_t>(total));
    return report;
  };
  auto first = run();
  auto second = run();

  EXPECT_DOUBLE_EQ(first.record_imbalance_before, expected_before);
  EXPECT_DOUBLE_EQ(second.record_imbalance_before, expected_before);
  EXPECT_GE(first.moves.size(), 3u);
  ASSERT_EQ(first.moves.size(), second.moves.size());
  for (size_t i = 0; i < first.moves.size(); ++i) {
    EXPECT_EQ(first.moves[i].group, second.moves[i].group) << "move " << i;
    EXPECT_EQ(first.moves[i].from, second.moves[i].from) << "move " << i;
    EXPECT_EQ(first.moves[i].to, second.moves[i].to) << "move " << i;
    EXPECT_EQ(first.moves[i].objects, second.moves[i].objects)
        << "move " << i;
  }
  EXPECT_DOUBLE_EQ(first.record_imbalance_after,
                   second.record_imbalance_after);
  EXPECT_EQ(first.placement_version, second.placement_version);
}

TEST(RebalanceOnce, AutoRebalanceRunsOnTheBarrierCadence) {
  const uint32_t kShards = 4;
  std::vector<int> hot = CollidingGroups(6, 0, kShards, 4096);
  ASSERT_EQ(hot.size(), 6u);

  ShardedDynamicCService::Options options = SyncOptions(kShards);
  options.rebalance.every_rounds = 2;
  options.rebalance.policy.hysteresis = 1.1;
  options.rebalance.policy.max_moves = 8;
  ShardedDynamicCService service(options, nullptr, MakeFactory());

  auto changed = service.ApplyOperations(AddsForGroups(hot, 4));
  service.ObserveBatchRound(changed);
  changed = service.ApplyOperations(AddsForGroups(hot, 2));
  service.ObserveBatchRound(changed);

  // Barrier 1: no rebalance yet. Barrier 2: the cadence fires.
  changed = service.ApplyOperations(AddsForGroups(hot, 1));
  ServiceReport first = service.DynamicRound(changed);
  EXPECT_EQ(first.groups_migrated, 0u);
  changed = service.ApplyOperations(AddsForGroups(hot, 1));
  service.DynamicRound(changed);
  ServiceSnapshot snap = service.Snapshot();
  EXPECT_GT(snap.report.groups_migrated, 0u);
  EXPECT_LT(snap.report.record_imbalance, 4.0);
  EXPECT_EQ(snap.clusters.size(), hot.size());
}

// ------------------------------------------------------ adaptive batching

TEST(AdaptiveBatch, BitesGrowUnderBacklogAndStatsSurface) {
  // A single huge enqueue creates deep backlog; with a generous latency
  // target the additive-increase path must fire: the worker's bite
  // grows batch over batch while the backlog outruns it.
  ShardedDynamicCService::Options options = SyncOptions(2);
  options.async.enabled = true;
  options.async.queue_depth = 1u << 20;  // never blocks: pure growth path
  options.async.adaptive_batch = true;
  options.async.min_batch = 4;
  options.async.target_round_ms = 1e9;
  ShardedDynamicCService service(options, nullptr, MakeFactory());

  auto changed = service.ApplyOperations(GroupAdds(6, 4));
  service.ObserveBatchRound(changed);
  changed = service.ApplyOperations(GroupAdds(6, 2));
  service.ObserveBatchRound(changed);
  service.Flush();

  service.ApplyOperations(GroupAdds(6, 150));  // 900 ops of backlog
  service.Flush();
  IngestStats stats = service.ingest_stats();
  EXPECT_GT(stats.batch_grows, 0u);
  EXPECT_EQ(stats.batch_shrinks, 0u);
  EXPECT_GE(stats.adaptive_batch_max, stats.adaptive_batch_min);
  EXPECT_GT(stats.adaptive_batch_min, options.async.min_batch);
  EXPECT_EQ(service.GlobalClusters().size(), 6u);
}

TEST(AdaptiveBatch, AimdPolicyIsDeterministic) {
  // The policy itself, without timing: additive increase under backlog,
  // multiplicative decrease past the latency target, clamped to
  // [min_batch, queue_depth].
  ShardedDynamicCService::AsyncOptions options;
  options.adaptive_batch = true;
  options.min_batch = 8;
  options.queue_depth = 64;
  options.target_round_ms = 4.0;

  // Fast round + backlog: grow by min_batch.
  auto grown = ShardedDynamicCService::NextAdaptiveBite(8, 1.0, 100, options);
  EXPECT_TRUE(grown.grew);
  EXPECT_EQ(grown.bite, 16u);
  // Fast round, backlog already covered: hold.
  auto held = ShardedDynamicCService::NextAdaptiveBite(16, 1.0, 10, options);
  EXPECT_FALSE(held.grew);
  EXPECT_FALSE(held.shrank);
  EXPECT_EQ(held.bite, 16u);
  // Slow round: halve, repeatedly, but never below the floor.
  auto shrunk = ShardedDynamicCService::NextAdaptiveBite(64, 9.0, 500, options);
  EXPECT_TRUE(shrunk.shrank);
  EXPECT_EQ(shrunk.bite, 32u);
  shrunk = ShardedDynamicCService::NextAdaptiveBite(shrunk.bite, 9.0, 500,
                                                    options);
  EXPECT_EQ(shrunk.bite, 16u);
  shrunk = ShardedDynamicCService::NextAdaptiveBite(shrunk.bite, 9.0, 500,
                                                    options);
  EXPECT_EQ(shrunk.bite, 8u);
  auto floored = ShardedDynamicCService::NextAdaptiveBite(8, 9.0, 500, options);
  EXPECT_FALSE(floored.shrank);
  EXPECT_EQ(floored.bite, 8u);
  // Growth saturates at the queue depth.
  auto near_cap = ShardedDynamicCService::NextAdaptiveBite(60, 1.0, 500,
                                                           options);
  EXPECT_TRUE(near_cap.grew);
  EXPECT_EQ(near_cap.bite, 64u);
  auto capped = ShardedDynamicCService::NextAdaptiveBite(64, 1.0, 500, options);
  EXPECT_FALSE(capped.grew);
  EXPECT_EQ(capped.bite, 64u);
}

// ----------------------------------------------------- report imbalance

TEST(ServiceReport, ImbalanceRatiosSurfaceSkew) {
  // All records on one of two shards: record imbalance is exactly 2.
  ShardedDynamicCService service(SyncOptions(2), nullptr, MakeFactory());
  std::vector<int> hot = CollidingGroups(3, 0, 2, 64);
  ASSERT_EQ(hot.size(), 3u);
  auto changed = service.ApplyOperations(AddsForGroups(hot, 4));
  ServiceReport train = service.ObserveBatchRound(changed);
  EXPECT_DOUBLE_EQ(train.record_imbalance, 2.0);
  EXPECT_GE(train.cost_imbalance, 1.0);
  EXPECT_EQ(train.placement_version, 0u);
  EXPECT_EQ(train.groups_migrated, 0u);
}

}  // namespace
}  // namespace dynamicc
