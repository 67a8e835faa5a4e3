// Durable service snapshots: serialization primitives (id-exact
// clusterings, sample sets, in-place classifier restore, placement
// restore) and the service-level SaveSnapshot/LoadSnapshot contract —
// a restored service is byte-identical to the saved one and *stays*
// identical when both are fed the same subsequent operations (sync and
// async, with and without migrations). Corrupted, truncated and
// version-mismatched snapshots are rejected via the checksummed
// manifest.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/serialization.h"
#include "data/operations.h"
#include "ml/logistic_regression.h"
#include "ml/serialization.h"
#include "service/placement.h"
#include "service/service_report.h"
#include "service/sharded_service.h"
#include "service/snapshot.h"
#include "service_test_util.h"
#include "util/rng.h"
#include "util/status.h"

namespace dynamicc {
namespace {

std::string TempDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "dynamicc_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ------------------------------------------------ serialization primitives

TEST(ClusteringWithIds, RoundTripsIdsGapsAndCounter) {
  Clustering clustering;
  ClusterId a = clustering.CreateSingleton(10);
  ClusterId b = clustering.CreateSingleton(11);
  clustering.CreateSingleton(12);
  clustering.Assign(13, a);
  // Delete cluster b (id gap) and leave the counter past the tail.
  clustering.Unassign(11);
  (void)b;
  ClusterId tail = clustering.CreateSingleton(14);
  clustering.Unassign(14);  // tail cluster deleted: counter > max id + 1
  ASSERT_EQ(clustering.next_cluster_id(), tail + 1);

  std::ostringstream os;
  ASSERT_TRUE(SaveClusteringWithIds(clustering, os).ok());
  std::istringstream is(os.str());
  Clustering restored;
  ASSERT_TRUE(LoadClusteringWithIds(is, &restored).ok());

  EXPECT_EQ(restored.next_cluster_id(), clustering.next_cluster_id());
  EXPECT_EQ(restored.ClusterIds(), clustering.ClusterIds());
  EXPECT_EQ(restored.CanonicalClusters(), clustering.CanonicalClusters());
  EXPECT_EQ(restored.ClusterOf(13), a);
  // A fresh cluster gets the same id either side of the round trip.
  Clustering copy = clustering;
  EXPECT_EQ(restored.CreateSingleton(99), copy.CreateSingleton(99));
}

TEST(ClusteringWithIds, RejectsMalformedInput) {
  Clustering restored;
  {
    std::istringstream is("not a header");
    EXPECT_FALSE(LoadClusteringWithIds(is, &restored).ok());
  }
  {
    // Duplicate member.
    std::istringstream is("clusters 2 next 2\n0 1 7\n1 1 7\n");
    EXPECT_FALSE(LoadClusteringWithIds(is, &restored).ok());
  }
  {
    // Cluster id not below the next-id counter.
    std::istringstream is("clusters 1 next 1\n3 1 7\n");
    EXPECT_FALSE(LoadClusteringWithIds(is, &restored).ok());
  }
  {
    // Truncated member list.
    std::istringstream is("clusters 1 next 1\n0 3 7 8\n");
    EXPECT_FALSE(LoadClusteringWithIds(is, &restored).ok());
  }
  {
    // Ids in range but out of order: rejected, not a process abort.
    std::istringstream is("clusters 2 next 5\n3 1 7\n1 1 8\n");
    EXPECT_FALSE(LoadClusteringWithIds(is, &restored).ok());
  }
}

TEST(SampleSetSerialization, RoundTripsBitExactly) {
  SampleSet samples;
  samples.push_back({{0.1, -2.5e-17, 3.0}, 1, 0.12345678901234567});
  samples.push_back({{1.0 / 3.0}, 0, 1.0});
  samples.push_back({{}, 1, 2.0});

  std::ostringstream os;
  ASSERT_TRUE(SaveSampleSet(samples, os).ok());
  std::istringstream is(os.str());
  SampleSet restored;
  ASSERT_TRUE(LoadSampleSet(is, &restored).ok());

  ASSERT_EQ(restored.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(restored[i].label, samples[i].label);
    EXPECT_EQ(restored[i].weight, samples[i].weight);  // exact, not near
    EXPECT_EQ(restored[i].features, samples[i].features);
  }
}

TEST(LoadClassifierInto, RestoresInPlaceAndChecksType) {
  LogisticRegression model;
  SampleSet samples;
  for (int i = 0; i < 20; ++i) {
    double x = i / 10.0;
    samples.push_back({{x, 1.0 - x}, i % 2, 1.0});
  }
  model.Fit(samples);
  std::ostringstream os;
  ASSERT_TRUE(SaveClassifier(model, os).ok());

  LogisticRegression target;  // same address must survive the restore
  const BinaryClassifier* address = &target;
  {
    std::istringstream is(os.str());
    ASSERT_TRUE(LoadClassifierInto(is, &target).ok());
  }
  EXPECT_EQ(address, &target);
  EXPECT_TRUE(target.is_fitted());
  EXPECT_EQ(target.weights(), model.weights());
  EXPECT_EQ(target.bias(), model.bias());
  EXPECT_EQ(target.PredictProbability({0.3, 0.7}),
            model.PredictProbability({0.3, 0.7}));

  // Type mismatch is an error, not a silent cross-type restore.
  std::istringstream is("decision-tree\n1\n-1 0 0 0 0.5\n");
  LogisticRegression wrong;
  EXPECT_FALSE(LoadClassifierInto(is, &wrong).ok());
}

TEST(PlacementRestore, ResumesVersionNumbering) {
  PlacementTable table;
  table.Assign(7, 1);
  table.Assign(9, 0);
  PlacementTable restored;
  restored.Restore(table.version(), table.Current()->overrides);
  EXPECT_EQ(restored.version(), 2u);
  ASSERT_NE(restored.Current()->Find(7), nullptr);
  EXPECT_EQ(*restored.Current()->Find(7), 1u);
  // The next decision publishes the same version either side.
  EXPECT_EQ(restored.Assign(11, 2), table.Assign(11, 2));
}

// --------------------------------------------------- service round trips

/// The deterministic subset of a ServiceSnapshot two runs must agree on.
void ExpectEquivalent(ShardedDynamicCService& a, ShardedDynamicCService& b) {
  EXPECT_EQ(a.GlobalClusters(), b.GlobalClusters());
  EXPECT_EQ(a.total_objects(), b.total_objects());
  EXPECT_EQ(a.total_clusters(), b.total_clusters());
  EXPECT_EQ(a.placement().version(), b.placement().version());
  IngestStats sa = a.ingest_stats();
  IngestStats sb = b.ingest_stats();
  EXPECT_EQ(sa.accepted_ops, sb.accepted_ops);
  EXPECT_EQ(sa.applied_ops, sb.applied_ops);
  EXPECT_EQ(sa.coalesced_ops, sb.coalesced_ops);
  EXPECT_EQ(sa.pending_ops, sb.pending_ops);
}

ShardedDynamicCService::Options ServiceOptions(uint32_t shards, bool async) {
  ShardedDynamicCService::Options options;
  options.num_shards = shards;
  options.async.enabled = async;
  return options;
}

// Save at epoch N, restore in a fresh service, feed both the same
// subsequent operations: assignments, new ids, placement versions and
// reports must stay byte-identical — the restore-equivalence acceptance
// bar, for N in {1, 2, 4} shards, sync and async.
TEST(DurableSnapshot, RestoredServiceStaysInLockstep) {
  for (bool async : {false, true}) {
    for (uint32_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE(testing::Message() << "async=" << async
                                      << " shards=" << shards);
      ShardedDynamicCService original(ServiceOptions(shards, async), nullptr,
                                      MakeFactory());
      auto changed = original.ApplyOperations(GroupAdds(10, 3));
      original.ObserveBatchRound(changed);
      original.Flush();
      original.ApplyOperations(GroupAdds(10, 1));
      original.Flush();

      std::string dir = TempDir("lockstep_" + std::to_string(shards) +
                                (async ? "_async" : "_sync"));
      ASSERT_TRUE(original.SaveSnapshot(dir).ok());

      ShardedDynamicCService restored(ServiceOptions(shards, async), nullptr,
                                      MakeFactory());
      ASSERT_TRUE(restored.LoadSnapshot(dir).ok());
      ExpectEquivalent(original, restored);

      // Same subsequent stream, including churn on pre-snapshot ids.
      // Every batch interleaves the 10 groups, so global id g belongs to
      // group g % 10 — updates below keep each target in its group.
      Rng rng(17);
      for (int round = 0; round < 3; ++round) {
        OperationBatch tail = GroupAdds(10, 1);
        for (ObjectId target = static_cast<ObjectId>(round); target < 30;
             target += 7) {
          DataOperation update;
          update.kind = DataOperation::Kind::kUpdate;
          update.target = target;
          int g = static_cast<int>(target % 10);
          update.record.entity = static_cast<uint32_t>(g);
          update.record.tokens = {"grp" + std::to_string(g),
                                  "tag" + std::to_string(g),
                                  "v" + std::to_string(rng.Index(100))};
          tail.push_back(update);
        }
        auto ids_a = original.ApplyOperations(tail);
        auto ids_b = restored.ApplyOperations(tail);
        EXPECT_EQ(ids_a, ids_b);  // same dense global id assignment
        ServiceReport ra = original.Flush();
        ServiceReport rb = restored.Flush();
        EXPECT_EQ(ra.total_objects, rb.total_objects);
        EXPECT_EQ(ra.total_clusters, rb.total_clusters);
        EXPECT_EQ(ra.combined.merges_applied, rb.combined.merges_applied);
        EXPECT_EQ(ra.combined.splits_applied, rb.combined.splits_applied);
        EXPECT_EQ(ra.placement_version, rb.placement_version);
        ExpectEquivalent(original, restored);
      }
    }
  }
}

// Migrations before the snapshot: the moved state, the placement
// overrides and the version counter all survive, and a post-restore
// migration publishes the same version on both sides.
TEST(DurableSnapshot, SurvivesMigrationsAndKeepsPlacementVersions) {
  for (bool async : {false, true}) {
    SCOPED_TRACE(async);
    ShardedDynamicCService original(ServiceOptions(4, async), nullptr,
                                    MakeFactory());
    auto changed = original.ApplyOperations(GroupAdds(12, 3));
    original.ObserveBatchRound(changed);
    original.Flush();
    // Move two groups off their hash shard.
    for (int g : {0, 1}) {
      uint64_t group = GroupKeyOf(g);
      uint32_t from = original.ShardOfObject(static_cast<ObjectId>(g));
      original.MigrateGroup(group, (from + 1) % 4);
    }
    original.Flush();

    std::string dir = TempDir(std::string("migrated_") +
                              (async ? "async" : "sync"));
    ASSERT_TRUE(original.SaveSnapshot(dir).ok());

    ShardedDynamicCService restored(ServiceOptions(4, async), nullptr,
                                    MakeFactory());
    ASSERT_TRUE(restored.LoadSnapshot(dir).ok());
    ExpectEquivalent(original, restored);
    EXPECT_EQ(restored.ShardOfObject(0), original.ShardOfObject(0));

    // Placement versions keep advancing in lockstep after the restart.
    uint64_t group = GroupKeyOf(2);
    uint32_t from = original.ShardOfObject(2);
    auto move_a = original.MigrateGroup(group, (from + 2) % 4);
    auto move_b = restored.MigrateGroup(group, (from + 2) % 4);
    EXPECT_EQ(move_a.placement_version, move_b.placement_version);
    EXPECT_EQ(move_a.objects, move_b.objects);
    original.ApplyOperations(AddsForGroups({2}, 4));
    restored.ApplyOperations(AddsForGroups({2}, 4));
    original.Flush();
    restored.Flush();
    ExpectEquivalent(original, restored);
  }
}

// A snapshot taken before training restores an untrained service that
// can still be trained afterwards, in lockstep with the original.
TEST(DurableSnapshot, UntrainedSnapshotResumesTraining) {
  ShardedDynamicCService original(ServiceOptions(2, false), nullptr,
                                  MakeFactory());
  original.ApplyOperations(GroupAdds(8, 2));

  std::string dir = TempDir("untrained");
  ASSERT_TRUE(original.SaveSnapshot(dir).ok());
  ShardedDynamicCService restored(ServiceOptions(2, false), nullptr,
                                  MakeFactory());
  ASSERT_TRUE(restored.LoadSnapshot(dir).ok());
  EXPECT_FALSE(restored.is_trained());
  ExpectEquivalent(original, restored);

  auto more_a = original.ApplyOperations(GroupAdds(8, 1));
  auto more_b = restored.ApplyOperations(GroupAdds(8, 1));
  original.ObserveBatchRound(more_a);
  restored.ObserveBatchRound(more_b);
  EXPECT_TRUE(original.is_trained());
  EXPECT_TRUE(restored.is_trained());
  original.Flush();
  restored.Flush();
  ExpectEquivalent(original, restored);
}

TEST(DurableSnapshot, ManifestRecordsTheSealedEpoch) {
  ShardedDynamicCService service(ServiceOptions(2, true), nullptr,
                                 MakeFactory());
  auto changed = service.ApplyOperations(GroupAdds(6, 2));
  service.ObserveBatchRound(changed);
  service.Flush();
  service.CloseEpoch();  // epoch 1 sealed before the save

  std::string dir = TempDir("epoch_manifest");
  ASSERT_TRUE(service.SaveSnapshot(dir).ok());
  SnapshotInfo info;
  ASSERT_TRUE(ReadSnapshotInfo(dir, &info).ok());
  EXPECT_EQ(info.format_version, kSnapshotFormatVersion);
  EXPECT_EQ(info.num_shards, 2u);
  EXPECT_EQ(info.epoch, 2u);  // the save sealed its own epoch

  ShardedDynamicCService restored(ServiceOptions(2, true), nullptr,
                                  MakeFactory());
  ASSERT_TRUE(restored.LoadSnapshot(dir).ok());
  EXPECT_EQ(restored.open_epoch(), service.open_epoch());
}

// ------------------------------------------------------ rejection paths

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempDir("corruption");
    ShardedDynamicCService service(ServiceOptions(2, false), nullptr,
                                   MakeFactory());
    auto changed = service.ApplyOperations(GroupAdds(6, 2));
    service.ObserveBatchRound(changed);
    service.Flush();
    ASSERT_TRUE(service.SaveSnapshot(dir_).ok());
  }

  Status Load(uint32_t shards = 2) {
    ShardedDynamicCService fresh(ServiceOptions(shards, false), nullptr,
                                 MakeFactory());
    return fresh.LoadSnapshot(dir_);
  }

  std::string Path(const std::string& name) { return dir_ + "/" + name; }

  /// Rewrites the MANIFEST's format-version header to `version`, then
  /// loads. Only the header moves: the payload checksums still match.
  Status LoadAtFormatVersion(uint64_t version) {
    std::string path = Path("MANIFEST");
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string manifest = buffer.str();
    in.close();
    const std::string current =
        "dynamicc-snapshot " + std::to_string(kSnapshotFormatVersion) + "\n";
    size_t pos = manifest.find(current);
    EXPECT_EQ(pos, 0u);
    if (pos != 0) return Status::InvalidArgument("manifest header not found");
    manifest.replace(0, current.size(),
                     "dynamicc-snapshot " + std::to_string(version) + "\n");
    std::ofstream out(path, std::ios::trunc);
    out << manifest;
    out.close();
    return Load();
  }

  std::string dir_;
};

TEST_F(CorruptionTest, IntactSnapshotLoads) { EXPECT_TRUE(Load().ok()); }

TEST_F(CorruptionTest, FlippedByteIsRejected) {
  for (const char* name : {"service.dat", "shard-0.dat", "shard-1.dat"}) {
    SCOPED_TRACE(name);
    std::string path = Path(name);
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string bytes = buffer.str();
    in.close();
    ASSERT_FALSE(bytes.empty());
    std::string flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x20;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << flipped;
    }
    EXPECT_FALSE(Load().ok()) << name << " corruption not detected";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;  // restore for the next iteration
  }
}

TEST_F(CorruptionTest, TruncationIsRejected) {
  std::string path = Path("shard-1.dat");
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string bytes = buffer.str();
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  EXPECT_FALSE(Load().ok());
}

TEST_F(CorruptionTest, MissingFileIsRejected) {
  std::filesystem::remove(Path("shard-0.dat"));
  EXPECT_FALSE(Load().ok());
}

TEST_F(CorruptionTest, MissingManifestIsRejected) {
  std::filesystem::remove(Path("MANIFEST"));
  EXPECT_FALSE(Load().ok());
}

TEST_F(CorruptionTest, VersionMismatchIsRejected) {
  Status status = LoadAtFormatVersion(kSnapshotFormatVersion + 7);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unsupported snapshot format version"),
            std::string::npos)
      << status.message();
}

TEST_F(CorruptionTest, FormatVersionOneIsRefusedNotMisread) {
  // A version-1 payload has columns this format does not read: the
  // directory must be refused at the manifest, before any payload is
  // parsed.
  ASSERT_GT(kSnapshotFormatVersion, 1u);
  Status status = LoadAtFormatVersion(1);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unsupported snapshot format version 1"),
            std::string::npos)
      << status.message();
}

TEST_F(CorruptionTest, ShardCountMismatchIsRejected) {
  EXPECT_FALSE(Load(/*shards=*/4).ok());
}

// --------------------------------------------------- crash atomicity

// Kill-mid-save simulation: a save that died after writing some payload
// files (no manifest yet, scratch not renamed) must leave the previous
// snapshot loadable, its scratch must never load, and the next save
// must sweep the debris and succeed.
TEST_F(CorruptionTest, KilledMidSaveLeavesThePreviousSnapshotIntact) {
  // The state a killed process leaves behind: a partial "<dir>.saving"
  // scratch — some payload, no integrity root.
  const std::string scratch = dir_ + ".saving";
  std::filesystem::create_directories(scratch);
  std::filesystem::copy_file(Path("shard-0.dat"), scratch + "/shard-0.dat");
  {
    std::ofstream torn(scratch + "/service.dat", std::ios::trunc);
    torn << "service 1\ntrunca";  // mid-write
  }

  // The published snapshot is untouched by the dead save.
  EXPECT_TRUE(Load().ok());

  // Pointing a load at the scratch itself is rejected outright (no
  // manifest was written — it always goes last).
  {
    ShardedDynamicCService fresh(ServiceOptions(2, false), nullptr,
                                 MakeFactory());
    EXPECT_FALSE(fresh.LoadSnapshot(scratch).ok());
  }

  // A later save sweeps the stale scratch and publishes atomically.
  ShardedDynamicCService service(ServiceOptions(2, false), nullptr,
                                 MakeFactory());
  auto changed = service.ApplyOperations(GroupAdds(5, 2));
  service.ObserveBatchRound(changed);
  service.Flush();
  ASSERT_TRUE(service.SaveSnapshot(dir_).ok());
  EXPECT_FALSE(std::filesystem::exists(scratch));
  ShardedDynamicCService restored(ServiceOptions(2, false), nullptr,
                                  MakeFactory());
  ASSERT_TRUE(restored.LoadSnapshot(dir_).ok());
  ExpectEquivalent(service, restored);
}

// Overwriting an existing snapshot is all-or-nothing: the old directory
// is replaced only after the new one is complete, so no interleaving of
// old and new files can ever be observed.
TEST_F(CorruptionTest, ResaveReplacesTheSnapshotWholesale) {
  ShardedDynamicCService bigger(ServiceOptions(2, false), nullptr,
                                MakeFactory());
  auto changed = bigger.ApplyOperations(GroupAdds(9, 3));
  bigger.ObserveBatchRound(changed);
  bigger.Flush();
  ASSERT_TRUE(bigger.SaveSnapshot(dir_).ok());

  SnapshotInfo info;
  ASSERT_TRUE(ReadSnapshotInfo(dir_, &info).ok());
  ShardedDynamicCService restored(ServiceOptions(2, false), nullptr,
                                  MakeFactory());
  ASSERT_TRUE(restored.LoadSnapshot(dir_).ok());
  ExpectEquivalent(bigger, restored);
}

TEST_F(CorruptionTest, NonFreshServiceIsRejected) {
  ShardedDynamicCService used(ServiceOptions(2, false), nullptr,
                              MakeFactory());
  used.ApplyOperations(GroupAdds(2, 1));
  EXPECT_FALSE(used.LoadSnapshot(dir_).ok());
}

}  // namespace
}  // namespace dynamicc
