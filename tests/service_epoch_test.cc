// Epoch-tagged flushes: CloseEpoch seals an ingest prefix, Flush(epoch)
// waits for exactly that prefix on every shard — no full quiescence.
// The anchors: (1) under *sustained* ingest an epoch flush returns while
// the old global barrier could never, (2) the state after an epoch
// flush contains at least the sealed prefix, (3) epoch numbering and
// watermarks are deterministic and survive migrations (a migration
// applies the source shard's queue before it moves a group, so no
// obligation changes shards).

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/operations.h"
#include "service/service_report.h"
#include "service/sharded_service.h"
#include "service_test_util.h"

namespace dynamicc {
namespace {

ShardedDynamicCService::Options AsyncOptions(uint32_t shards,
                                             size_t depth = 4096) {
  ShardedDynamicCService::Options options;
  options.num_shards = shards;
  options.async.enabled = true;
  options.async.queue_depth = depth;
  return options;
}

void Train(ShardedDynamicCService* service, int groups, int per_group) {
  auto changed = service->ApplyOperations(GroupAdds(groups, per_group));
  service->ObserveBatchRound(changed);
  service->Flush();  // enter the serving phase
}

// --------------------------------------------------------- basic contract

TEST(EpochFlush, EpochNumbersAreDenseAndDeterministic) {
  ShardedDynamicCService service(AsyncOptions(2), nullptr, MakeFactory());
  EXPECT_EQ(service.open_epoch(), 1u);
  EXPECT_EQ(service.CloseEpoch(), 1u);
  EXPECT_EQ(service.CloseEpoch(), 2u);
  EXPECT_EQ(service.open_epoch(), 3u);
  // Idle epochs are applied instantly: nothing was admitted in them.
  service.WaitEpoch(1);
  service.WaitEpoch(2);
  IngestStats stats = service.ingest_stats();
  EXPECT_EQ(stats.open_epoch, 3u);
  EXPECT_EQ(stats.applied_epoch, 2u);
}

TEST(EpochFlush, SyncModeEpochsAreImmediate) {
  ShardedDynamicCService::Options options;
  options.num_shards = 2;
  ShardedDynamicCService service(options, nullptr, MakeFactory());
  service.ApplyOperations(GroupAdds(6, 2));
  uint64_t sealed = service.CloseEpoch();
  // Synchronous application means the epoch is applied the moment it is
  // sealed; the epoch flush is just a (possibly serving) barrier.
  ServiceReport report = service.Flush(sealed);
  EXPECT_EQ(report.flush_epoch, sealed);
  EXPECT_EQ(service.ingest_stats().applied_epoch, sealed);
}

TEST(EpochFlush, FlushEpochCoversSealedPrefix) {
  for (uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(shards);
    ShardedDynamicCService service(AsyncOptions(shards), nullptr,
                                   MakeFactory());
    Train(&service, 8, 3);

    auto first = service.Ingest(GroupAdds(8, 2));
    ASSERT_TRUE(first.accepted);
    uint64_t sealed = service.CloseEpoch();
    auto second = service.Ingest(GroupAdds(8, 1));
    ASSERT_TRUE(second.accepted);

    ServiceReport report = service.Flush(sealed);
    EXPECT_EQ(report.flush_epoch, sealed);
    EXPECT_GE(report.ingest.applied_epoch, sealed);
    // Everything sealed is in the readable state. (Later-epoch ops may
    // or may not have been applied too — the barrier only promises the
    // prefix.)
    size_t applied_after_epoch_flush = service.total_objects();
    EXPECT_GE(applied_after_epoch_flush, 8u * 3u + 8u * 2u);

    service.Flush();
    EXPECT_EQ(service.total_objects(), 8u * 3u + 8u * 2u + 8u);
  }
}

// A blocked producer thread keeps one shard's queue permanently
// non-empty; the old global barrier could not return while that is so,
// but an epoch flush for a sealed earlier prefix must. This is the
// "no draining of later-epoch queue contents" guarantee made
// observable: the test would deadlock (and time out) if Flush(epoch)
// waited for queue emptiness.
TEST(EpochFlush, ReturnsUnderSustainedIngest) {
  ShardedDynamicCService service(AsyncOptions(4), nullptr, MakeFactory());
  Train(&service, 12, 2);

  auto burst = service.Ingest(GroupAdds(12, 2));
  ASSERT_TRUE(burst.accepted);
  uint64_t sealed = service.CloseEpoch();

  std::atomic<bool> stop{false};
  std::thread producer([&service, &stop] {
    while (!stop.load()) {
      service.Ingest(GroupAdds(12, 1));
    }
  });

  // Must return while the producer hammers later epochs. If it ever
  // waited for empty queues this would hang until the test timeout.
  ServiceReport report = service.Flush(sealed);
  EXPECT_EQ(report.flush_epoch, sealed);
  EXPECT_GE(report.ingest.applied_epoch, sealed);

  stop.store(true);
  producer.join();
  service.Flush();
  EXPECT_EQ(service.ingest_stats().pending_ops, 0u);
}

// SaveSnapshot excludes producers for its epoch seal + drain: calling
// it while other threads hammer Ingest must neither deadlock nor tear
// state — the saved snapshot restores to a valid service.
TEST(EpochFlush, SaveSnapshotUnderSustainedIngestIsSafe) {
  ShardedDynamicCService service(AsyncOptions(2, /*depth=*/64), nullptr,
                                 MakeFactory());
  Train(&service, 8, 2);

  std::atomic<bool> stop{false};
  std::thread producer([&service, &stop] {
    while (!stop.load()) {
      service.Ingest(GroupAdds(8, 1));
    }
  });

  const std::string dir =
      ::testing::TempDir() + "dynamicc_epoch_save_under_ingest";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(service.SaveSnapshot(dir).ok());
  stop.store(true);
  producer.join();
  service.Flush();

  ShardedDynamicCService::Options options = AsyncOptions(2, /*depth=*/64);
  ShardedDynamicCService restored(options, nullptr, MakeFactory());
  ASSERT_TRUE(restored.LoadSnapshot(dir).ok());
  // The snapshot is some consistent prefix of the stream: fully
  // clustered, fully applied, nothing pending.
  IngestStats stats = restored.ingest_stats();
  EXPECT_EQ(stats.pending_ops, 0u);
  size_t clustered = 0;
  for (const auto& cluster : restored.GlobalClusters()) {
    clustered += cluster.size();
  }
  EXPECT_EQ(clustered, restored.total_objects());
  EXPECT_GE(restored.total_objects(), 8u * 2u);
}

TEST(EpochFlush, WaitEpochAloneRunsNoRounds) {
  ShardedDynamicCService service(AsyncOptions(2), nullptr, MakeFactory());
  auto changed = service.ApplyOperations(GroupAdds(6, 2));
  service.ObserveBatchRound(changed);
  // Not yet serving: workers defer rounds. WaitEpoch still completes —
  // application alone advances watermarks; rounds are not part of the
  // epoch contract.
  service.Ingest(GroupAdds(6, 1));
  uint64_t sealed = service.CloseEpoch();
  service.WaitEpoch(sealed);
  EXPECT_GE(service.ingest_stats().applied_epoch, sealed);
}

// ----------------------------------------------- equivalence at barriers

// Interleaving epoch flushes between ingests must not perturb the final
// clustering: the stream still ends byte-identical to the synchronous
// single-engine run.
TEST(EpochFlush, EpochBarriersPreserveFlushEquivalence) {
  std::vector<OperationBatch> batches;
  batches.push_back(GroupAdds(10, 3));
  for (int i = 0; i < 4; ++i) batches.push_back(GroupAdds(10, 1));
  auto reference = SingleEngineRun(batches, /*training=*/1);

  for (uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE(shards);
    ShardedDynamicCService service(AsyncOptions(shards), nullptr,
                                   MakeFactory());
    auto changed = service.ApplyOperations(batches[0]);
    service.ObserveBatchRound(changed);
    service.Flush();
    for (size_t i = 1; i < batches.size(); ++i) {
      service.Ingest(batches[i]);
      service.Flush(service.CloseEpoch());
    }
    service.Flush();
    EXPECT_EQ(service.GlobalClusters(), reference);
  }
}

// ------------------------------------------------------------- migrations

// A migration meets the sealed obligations of the group it moves: it
// drains the source shard before the surgery, so when it returns every
// queued operation of the group is applied — on the destination — and
// Flush(E) has nothing left to wait for.
TEST(EpochFlush, MigrationCarriesEpochObligations) {
  ShardedDynamicCService service(AsyncOptions(2), nullptr, MakeFactory());
  Train(&service, 6, 2);

  // Queue a large burst for group 0 in four admissions (the worker takes
  // the first while the rest queue behind it), seal it, then migrate
  // the group at once, while most of the burst is still queued on the
  // source.
  for (int i = 0; i < 4; ++i) service.Ingest(AddsForGroups({0}, 64));
  uint64_t sealed = service.CloseEpoch();

  uint64_t group = GroupKeyOf(0);
  uint32_t target = 1 - service.ShardOfObject(0) % 2;
  auto migration = service.MigrateGroup(group, target);
  EXPECT_EQ(migration.to, target);
  EXPECT_TRUE(migration.moved);
  EXPECT_EQ(migration.objects, 2u + 256u);
  // Before any flush: the whole burst is applied state and nothing is
  // left queued anywhere.
  EXPECT_EQ(service.total_objects(), 6u * 2u + 256u);
  EXPECT_EQ(service.ingest_stats().pending_ops, 0u);

  ServiceReport report = service.Flush(sealed);
  EXPECT_GE(report.ingest.applied_epoch, sealed);
  // Nothing was admitted after the seal, so "epoch applied everywhere"
  // means *everything* is applied.
  EXPECT_EQ(service.total_objects(), 6u * 2u + 256u);
  // Every one of the group's records now lives on the migration target.
  service.Flush();
  EXPECT_EQ(service.ShardOfObject(0), target);
  ServiceSnapshot snap = service.Snapshot();
  EXPECT_EQ(snap.report.placement_version, migration.placement_version);
}

}  // namespace
}  // namespace dynamicc
