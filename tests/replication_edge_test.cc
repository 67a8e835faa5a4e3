// Replication edge cases: follower replay across live-migration epochs
// (placement decisions interleaved with queued traffic), delta-log
// corruption surfacing through the follower instead of being skipped,
// compaction preserving byte-identity for both fresh followers and
// live tailers that fell behind the compaction horizon, and hook-side
// failure containment.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ml/serialization.h"
#include "replication/delta_log.h"
#include "replication/follower.h"
#include "replication/replication_session.h"
#include "service/sharded_service.h"
#include "service_test_util.h"
#include "util/status.h"
#include "util/wire.h"

namespace dynamicc {
namespace {

std::string TempDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "dynamicc_repl_edge_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

ShardedDynamicCService::Options ServiceOptions(uint32_t shards, bool async) {
  ShardedDynamicCService::Options options;
  options.num_shards = shards;
  options.async.enabled = async;
  return options;
}

void ExpectSameState(ShardedDynamicCService& a, ShardedDynamicCService& b) {
  EXPECT_EQ(a.GlobalClusters(), b.GlobalClusters());
  EXPECT_EQ(a.total_objects(), b.total_objects());
  EXPECT_EQ(a.open_epoch(), b.open_epoch());
  EXPECT_EQ(a.placement().version(), b.placement().version());
  EXPECT_EQ(a.placement().Current()->overrides,
            b.placement().Current()->overrides);
}

// A follower replaying an epoch that contained live MigrateGroup calls —
// including moves racing queued (async) traffic on the primary, where
// the primary applies the source shard's queue before moving the group —
// reproduces the placement versions, group ownership and clustering
// exactly.
TEST(ReplicationEdge, FollowerReplaysAcrossLiveMigrationEpochs) {
  for (bool async : {false, true}) {
    SCOPED_TRACE(async);
    ShardedDynamicCService primary(ServiceOptions(4, async), nullptr,
                                   MakeFactory());
    auto changed = primary.ApplyOperations(GroupAdds(12, 3));
    primary.ObserveBatchRound(changed);
    primary.Flush();

    std::string dir = TempDir(std::string("migrate_") +
                              (async ? "async" : "sync"));
    ReplicationSession repl(&primary, dir, {});
    ASSERT_TRUE(repl.Start().ok());

    // Epoch with traffic *around* the moves: ingest, migrate two groups
    // (the async primary may still have the batch queued, and drains
    // the source first), ingest again into the moved group, then
    // barrier + seal.
    primary.Ingest(AddsForGroups({0, 1, 5}, 2));
    for (int g : {0, 1}) {
      uint64_t group = GroupKeyOf(g);
      uint32_t from = primary.ShardOfObject(static_cast<ObjectId>(g));
      primary.MigrateGroup(group, (from + 1) % 4);
    }
    primary.Ingest(AddsForGroups({0, 7}, 2));
    primary.Flush();
    repl.SealEpoch();
    ASSERT_TRUE(repl.status().ok());

    // And one epoch where the migration is the *only* event.
    uint64_t group2 = GroupKeyOf(2);
    uint32_t from2 = primary.ShardOfObject(2);
    primary.MigrateGroup(group2, (from2 + 2) % 4);
    repl.SealEpoch();

    Follower follower(dir, ServiceOptions(4, false), MakeFactory());
    ASSERT_TRUE(follower.Restore().ok());
    ASSERT_TRUE(follower.CatchUp().ok());
    follower.Flush();
    primary.Flush();
    ExpectSameState(primary, follower.service());
    for (ObjectId id : {0u, 1u, 2u, 5u}) {
      EXPECT_EQ(primary.ShardOfObject(id), follower.service().ShardOfObject(id))
          << "object " << id;
    }

    // The moved groups keep taking traffic through the replicated
    // stream: another round into them replays cleanly, both for the
    // live tailer and for a fresh follower reading the whole log.
    primary.ApplyOperations(AddsForGroups({0, 1, 2}, 2));
    primary.Flush();
    repl.SealEpoch();
    ASSERT_TRUE(follower.CatchUp().ok());
    follower.Flush();
    ExpectSameState(primary, follower.service());
    Follower fresh(dir, ServiceOptions(4, false), MakeFactory());
    ASSERT_TRUE(fresh.Restore().ok());
    ASSERT_TRUE(fresh.CatchUp().ok());
    fresh.Flush();
    ExpectSameState(primary, fresh.service());
  }
}

// Corruption in the middle of the shipped log surfaces as an error from
// CatchUp — the follower neither skips the epoch nor trusts the bytes.
TEST(ReplicationEdge, FollowerRejectsTruncatedAndCorruptDeltas) {
  ShardedDynamicCService primary(ServiceOptions(2, false), nullptr,
                                 MakeFactory());
  auto changed = primary.ApplyOperations(GroupAdds(6, 2));
  primary.ObserveBatchRound(changed);
  primary.Flush();
  std::string dir = TempDir("corrupt_tail");
  ReplicationSession repl(&primary, dir, {});
  ASSERT_TRUE(repl.Start().ok());
  for (int round = 0; round < 2; ++round) {
    auto ids = primary.ApplyOperations(GroupAdds(6, 1));
    primary.DynamicRound(ids);
    repl.SealEpoch();
  }

  const uint64_t first_delta = repl.last_base_epoch() + 1;
  DeltaLog log(dir);
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(log.DeltaPathFor(first_delta), &bytes).ok());

  {
    // Truncated mid-payload.
    ASSERT_TRUE(WriteFileBytes(log.DeltaPathFor(first_delta),
                               bytes.substr(0, bytes.size() - 40))
                    .ok());
    Follower follower(dir, ServiceOptions(2, false), MakeFactory());
    ASSERT_TRUE(follower.Restore().ok());
    size_t replayed = 99;
    Status status = follower.CatchUp(&replayed);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(replayed, 0u);
  }
  {
    // One flipped byte in a record payload.
    std::string flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x01;
    ASSERT_TRUE(
        WriteFileBytes(log.DeltaPathFor(first_delta), flipped).ok());
    Follower follower(dir, ServiceOptions(2, false), MakeFactory());
    ASSERT_TRUE(follower.Restore().ok());
    EXPECT_FALSE(follower.CatchUp().ok());
  }
  {
    // Restored bytes replay cleanly end to end.
    ASSERT_TRUE(WriteFileBytes(log.DeltaPathFor(first_delta), bytes).ok());
    Follower follower(dir, ServiceOptions(2, false), MakeFactory());
    ASSERT_TRUE(follower.Restore().ok());
    size_t replayed = 0;
    ASSERT_TRUE(follower.CatchUp(&replayed).ok());
    EXPECT_EQ(replayed, 2u);
    follower.Flush();
    ExpectSameState(primary, follower.service());
  }
}

// Compaction: periodic bases bound the log, fresh followers start from
// the newest base, and a live tailer that fell behind the horizon
// rebuilds itself — all byte-identical to the primary.
TEST(ReplicationEdge, CompactionPreservesByteIdentity) {
  ShardedDynamicCService primary(ServiceOptions(2, true), nullptr,
                                 MakeFactory());
  auto changed = primary.ApplyOperations(GroupAdds(8, 3));
  primary.ObserveBatchRound(changed);
  primary.Flush();

  std::string dir = TempDir("compaction");
  ReplicationSession::Options repl_options;
  repl_options.snapshot_every = 2;
  ReplicationSession repl(&primary, dir, repl_options);
  ASSERT_TRUE(repl.Start().ok());

  // A tailer that keeps up from the very first epoch.
  Follower tailer(dir, ServiceOptions(2, false), MakeFactory());
  ASSERT_TRUE(tailer.Restore().ok());

  for (int round = 0; round < 7; ++round) {
    primary.Ingest(GroupAdds(8, 1));
    primary.Flush();
    repl.SealEpoch();
    ASSERT_TRUE(repl.status().ok());
    ASSERT_TRUE(tailer.CatchUp().ok());
  }
  // Several bases were cut (snapshot_every=2 over 7 rounds, and each
  // base's own save seals an extra epoch the tailer also replays).
  EXPECT_GT(repl.last_base_epoch(), tailer.base_epoch());
  tailer.Flush();
  primary.Flush();
  ExpectSameState(primary, tailer.service());
  EXPECT_EQ(tailer.restores(), 1u);  // never had to rebuild

  // The log is bounded: exactly one base, one compaction interval of
  // deltas at most.
  DeltaLog::State state;
  ASSERT_TRUE(DeltaLog(dir).List(&state).ok());
  EXPECT_EQ(state.bases.size(), 1u);
  EXPECT_EQ(state.bases.back(), repl.last_base_epoch());

  // Fresh follower: newest base + retained deltas only.
  Follower fresh(dir, ServiceOptions(2, false), MakeFactory());
  ASSERT_TRUE(fresh.Restore().ok());
  EXPECT_EQ(fresh.base_epoch(), repl.last_base_epoch());
  ASSERT_TRUE(fresh.CatchUp().ok());
  fresh.Flush();
  ExpectSameState(primary, fresh.service());

  // A stalled tailer whose next delta was compacted away rebuilds from
  // the newest base and continues.
  Follower stalled(dir, ServiceOptions(2, false), MakeFactory());
  {
    // Pin it to the (still listed) newest base, then advance the
    // primary far enough that compaction passes the stalled position.
    ASSERT_TRUE(stalled.Restore().ok());
    uint64_t stalled_at = stalled.epoch();
    for (int round = 0; round < 5; ++round) {
      primary.Ingest(GroupAdds(8, 1));
      primary.Flush();
      repl.SealEpoch();
    }
    ASSERT_GT(repl.last_base_epoch(), stalled_at);
    ASSERT_FALSE(
        std::filesystem::exists(DeltaLog(dir).DeltaPathFor(stalled_at + 1)));
    ASSERT_TRUE(stalled.CatchUp().ok());
    EXPECT_GE(stalled.restores(), 2u);  // rebuilt across the horizon
    stalled.Flush();
    primary.Flush();
    ExpectSameState(primary, stalled.service());
  }
}

TEST(ReplicationEdge, StartFailsCleanlyWhenTheDirectoryIsUnusable) {
  ShardedDynamicCService primary(ServiceOptions(1, false), nullptr,
                                 MakeFactory());
  auto changed = primary.ApplyOperations(GroupAdds(3, 2));
  primary.ObserveBatchRound(changed);
  primary.Flush();

  // Parent is a file: Init cannot create the directory.
  std::string parent = TempDir("unusable");
  ASSERT_TRUE(WriteFileBytes(parent, "not a directory").ok());
  ReplicationSession repl(&primary, parent + "/log", {});
  EXPECT_FALSE(repl.Start().ok());
  // The service is untouched and still serves.
  EXPECT_EQ(primary.stream_observer(), nullptr);
  primary.ApplyOperations(GroupAdds(3, 1));
  primary.Flush();
}

}  // namespace
}  // namespace dynamicc
