// Epoch-pinned read path (src/service/read_view.h, query_api.h):
// byte-consistency of published views against the flushed service at
// the same epoch, epoch-granularity linearizability under concurrent
// ingest (a pinned view never mixes epochs), reads riding across
// migrations and follower promotion, per-query staleness-bound
// admission in ReadRouter, and hazard/refcount view reclamation under
// reader/publisher stress (run under TSan/ASan in CI).

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/delta_stream.h"
#include "net/front_end.h"
#include "replication/follower.h"
#include "replication/replication_session.h"
#include "service/query_api.h"
#include "service/read_view.h"
#include "service/sharded_service.h"
#include "service_test_util.h"

namespace dynamicc {
namespace {

constexpr int kGroupSize = 3;

std::string TempDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "dynamicc_read_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

ShardedDynamicCService::Options ReadServiceOptions(uint32_t shards,
                                                   bool async = false) {
  ShardedDynamicCService::Options options;
  options.num_shards = shards;
  options.async.enabled = async;
  options.read.serve = true;
  return options;
}

/// One whole group per epoch: every sealed state holds a multiple of
/// kGroupSize objects, and every cluster (groups are token-disjoint, so
/// clusters never span groups) holds members of exactly one entity.
/// Both facts are per-epoch atomic, which is what makes them torn-view
/// detectors.
void IngestGroupEpoch(ShardedDynamicCService* service, int group,
                      bool round) {
  std::vector<ObjectId> changed =
      service->ApplyOperations(AddsForGroups({group}, kGroupSize));
  if (round) service->ObserveBatchRound(changed);
  service->CloseEpoch();
}

/// Self-consistency of one pinned view: member counts add up across
/// slices, the id map agrees with the membership lists, and no cluster
/// mixes entities. A view assembled from slices of different epochs
/// fails the count or the id-map check.
void CheckViewInvariants(const ReadView& view) {
  ASSERT_EQ(view.num_objects() % kGroupSize, 0u)
      << "torn view: partial group visible at epoch " << view.epoch();
  size_t objects = 0;
  for (size_t i = 0; i < view.num_clusters(); ++i) {
    const ReadClusterInfo& cluster = view.cluster(i);
    ASSERT_FALSE(cluster.members.empty());
    objects += cluster.members.size();
    for (ObjectId member : cluster.members) {
      ASSERT_EQ(view.ClusterOf(member), &cluster)
          << "id map and membership disagree for " << member;
    }
  }
  ASSERT_EQ(objects, view.num_objects());
}

// ----------------------------------------------------- byte consistency

TEST(ReadView, ByteConsistentWithFlushedServiceAtEveryEpoch) {
  ShardedDynamicCService service(ReadServiceOptions(2), nullptr,
                                 MakeFactory());
  ASSERT_TRUE(service.serves_reads());
  EXPECT_FALSE(service.AcquireReadView());  // nothing published yet

  for (int e = 0; e < 6; ++e) {
    IngestGroupEpoch(&service, e, /*round=*/true);
    ReadPin pin = service.AcquireReadView();
    ASSERT_TRUE(pin);
    // Quiescent between epochs, so the newest view reflects exactly the
    // flushed state — the canonical forms must be byte-equal.
    EXPECT_EQ(pin->CanonicalClusters(), service.GlobalClusters());
    EXPECT_EQ(pin->num_objects(), service.total_objects());
    EXPECT_EQ(pin->num_clusters(), service.total_clusters());
    CheckViewInvariants(*pin);
  }
}

TEST(ReadView, PinnedViewIsImmutableWhileIngestAdvances) {
  ShardedDynamicCService service(ReadServiceOptions(2), nullptr,
                                 MakeFactory());
  IngestGroupEpoch(&service, 0, /*round=*/true);

  ReadPin old_pin = service.AcquireReadView();
  ASSERT_TRUE(old_pin);
  const auto frozen = old_pin->CanonicalClusters();
  const uint64_t frozen_epoch = old_pin->epoch();

  for (int e = 1; e < 5; ++e) IngestGroupEpoch(&service, e, /*round=*/true);

  // The service moved on; the pinned view did not.
  EXPECT_EQ(old_pin->CanonicalClusters(), frozen);
  EXPECT_EQ(old_pin->epoch(), frozen_epoch);
  ReadPin fresh = service.AcquireReadView();
  ASSERT_TRUE(fresh);
  EXPECT_GT(fresh->epoch(), frozen_epoch);
  EXPECT_NE(fresh->CanonicalClusters(), frozen);
}

TEST(ReadView, IncrementalBuildReusesUntouchedShardSlices) {
  ShardedDynamicCService service(ReadServiceOptions(4), nullptr,
                                 MakeFactory());
  // Seed every shard, then keep feeding one group only: shards that saw
  // no operation republish the same slice object (pointer-equal).
  std::vector<ObjectId> changed = service.ApplyOperations(GroupAdds(8, 2));
  service.ObserveBatchRound(changed);
  service.CloseEpoch();
  ReadPin before = service.AcquireReadView();
  ASSERT_TRUE(before);

  IngestGroupEpoch(&service, 0, /*round=*/false);
  ReadPin after = service.AcquireReadView();
  ASSERT_TRUE(after);
  ASSERT_GT(after->sequence(), before->sequence());

  size_t reused = 0;
  for (uint32_t s = 0; s < before->num_shards(); ++s) {
    if (&before->Slice(s) == &after->Slice(s)) ++reused;
  }
  // Group 0 lands on exactly one shard; the other slices are grafted.
  EXPECT_EQ(reused, before->num_shards() - 1);
}

TEST(ReadView, KNearestClustersRanksTheProbesOwnGroupFirst) {
  ShardedDynamicCService service(ReadServiceOptions(2), nullptr,
                                 MakeFactory());
  std::vector<ObjectId> changed = service.ApplyOperations(GroupAdds(6, 3));
  service.ObserveBatchRound(changed);
  service.CloseEpoch();

  QueryClient client(&service);
  Record probe;
  probe.tokens = {"grp2", "tag2"};  // exact content of group 2
  QueryClient::NearestResult nearest = client.KNearestClusters(probe, 3);
  ASSERT_TRUE(nearest.info.served);
  ASSERT_FALSE(nearest.hits.empty());
  EXPECT_DOUBLE_EQ(nearest.hits[0].similarity, 1.0);
  // Best hit is a cluster of group 2: consult the membership answer.
  QueryClient::ClusterOfResult membership =
      client.ClusterOfRecord(nearest.hits[0].members.front());
  EXPECT_EQ(membership.members, nearest.hits[0].members);
  for (size_t i = 1; i < nearest.hits.size(); ++i) {
    EXPECT_LE(nearest.hits[i].similarity, nearest.hits[0].similarity);
  }
}

// ------------------------------------- concurrent ingest, pinned reads

TEST(ReadPath, ConcurrentReadersNeverObserveMixedEpochs) {
  ShardedDynamicCService service(ReadServiceOptions(2, /*async=*/true),
                                 nullptr, MakeFactory());
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      uint64_t last_sequence = 0;
      while (!stop.load(std::memory_order_acquire)) {
        ReadPin pin = service.AcquireReadView();
        if (!pin) continue;
        CheckViewInvariants(*pin);
        // Publication order is monotone per reader.
        ASSERT_GE(pin->sequence(), last_sequence);
        last_sequence = pin->sequence();
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int e = 0; e < 40; ++e) {
    IngestGroupEpoch(&service, e, /*round=*/false);
    if (e % 8 == 7) service.Flush();
  }
  service.Flush();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);

  ReadPin final_pin = service.AcquireReadView();
  ASSERT_TRUE(final_pin);
  EXPECT_EQ(final_pin->CanonicalClusters(), service.GlobalClusters());
}

TEST(ReadPath, ReadsStayConsistentAcrossMigrations) {
  ShardedDynamicCService service(ReadServiceOptions(2), nullptr,
                                 MakeFactory());
  std::vector<ObjectId> changed = service.ApplyOperations(GroupAdds(6, 3));
  service.ObserveBatchRound(changed);
  service.CloseEpoch();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        ReadPin pin = service.AcquireReadView();
        if (!pin) continue;
        CheckViewInvariants(*pin);
      }
    });
  }

  // Shuttle group 0 between the shards while readers hammer the views.
  const uint64_t group = GroupKeyOf(0);
  for (int i = 0; i < 10; ++i) {
    service.MigrateGroup(group, static_cast<uint32_t>(i % 2));
    service.CloseEpoch();
  }
  service.Flush();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  ReadPin pin = service.AcquireReadView();
  ASSERT_TRUE(pin);
  EXPECT_EQ(pin->CanonicalClusters(), service.GlobalClusters());
}

TEST(ReadPath, MoveToLowerShardKeepsIdMapInOnePublish) {
  // Deterministic, single-threaded: one publish rebuilds both shards
  // while a group moves from shard 1 to shard 0. Patching the id map
  // shard by shard would let shard 1's erase of its old entries wipe
  // what shard 0 had just written for the moved group.
  ShardedDynamicCService service(ReadServiceOptions(2), nullptr,
                                 MakeFactory());
  std::vector<ObjectId> moved_ids =
      service.ApplyOperations(AddsForGroups({0}, kGroupSize));
  ASSERT_EQ(moved_ids.size(), static_cast<size_t>(kGroupSize));
  std::vector<ObjectId> changed =
      service.ApplyOperations(AddsForGroups({1, 2, 3, 4, 5}, kGroupSize));
  changed.insert(changed.end(), moved_ids.begin(), moved_ids.end());
  service.ObserveBatchRound(changed);
  service.CloseEpoch();

  const uint64_t group = GroupKeyOf(0);
  service.MigrateGroup(group, 1);
  service.CloseEpoch();
  for (ObjectId id : moved_ids) ASSERT_EQ(service.ShardOfObject(id), 1u);

  ShardedDynamicCService::MigrationReport report =
      service.MigrateGroup(group, 0);
  ASSERT_TRUE(report.moved);
  ASSERT_EQ(report.from, 1u);
  const uint64_t epoch = service.CloseEpoch();

  ReadPin pin = service.AcquireReadView();
  ASSERT_TRUE(pin);
  ASSERT_EQ(pin->epoch(), epoch);
  CheckViewInvariants(*pin);
  EXPECT_EQ(pin->CanonicalClusters(), service.GlobalClusters());

  QueryClient client(&service);
  for (ObjectId id : moved_ids) {
    QueryClient::ClusterOfResult result = client.ClusterOfRecord(id);
    ASSERT_TRUE(result.info.served);
    EXPECT_EQ(result.info.epoch, epoch);
    EXPECT_NE(std::find(result.members.begin(), result.members.end(), id),
              result.members.end())
        << "moved member " << id << " unknown to the published view";
  }
}

// --------------------------------------- followers, staleness, failover

TEST(ReadPath, FollowerServesEpochPinnedViewsWithStalenessBound) {
  const std::string dir = TempDir("follower_reads");
  ShardedDynamicCService primary(ReadServiceOptions(2), nullptr,
                                 MakeFactory());
  ReplicationSession repl(&primary, dir, {});
  ASSERT_TRUE(repl.Start().ok());

  for (int e = 0; e < 4; ++e) {
    std::vector<ObjectId> changed =
        primary.ApplyOperations(AddsForGroups({e}, kGroupSize));
    primary.ObserveBatchRound(changed);
    repl.SealEpoch();
  }

  Follower follower(dir, ReadServiceOptions(2), MakeFactory());
  ASSERT_TRUE(follower.Restore().ok());
  ASSERT_TRUE(follower.CatchUp().ok());
  ASSERT_TRUE(follower.service().serves_reads());

  // Caught up: the follower's view is byte-equal to the primary's.
  QueryClient follower_client(&follower.service(), "follower-0");
  ReadPin follower_pin = follower_client.Pin();
  ASSERT_TRUE(follower_pin);
  EXPECT_EQ(follower_pin->CanonicalClusters(), primary.GlobalClusters());

  // The primary advances two epochs the follower has not replayed.
  for (int e = 4; e < 6; ++e) {
    std::vector<ObjectId> changed =
        primary.ApplyOperations(AddsForGroups({e}, kGroupSize));
    primary.ObserveBatchRound(changed);
    repl.SealEpoch();
  }

  ReadRouter::Options router_options;
  router_options.max_staleness_epochs = 0;
  ReadRouter router(&primary, router_options);
  router.AddFollower(&follower.service(), "follower-0");
  const uint64_t frontier = router.Frontier();
  const uint64_t follower_epoch = follower_client.view_epoch();
  ASSERT_GT(frontier, follower_epoch);
  const uint64_t lag = frontier - follower_epoch;

  // Bound 0: every query must come back frontier-fresh (primary only).
  for (int q = 0; q < 8; ++q) {
    QueryClient::StatsResult result = router.Stats(/*max_staleness=*/0);
    ASSERT_TRUE(result.info.served);
    EXPECT_EQ(result.info.staleness, 0u);
    EXPECT_EQ(result.info.epoch, frontier);
  }
  EXPECT_EQ(router.rejected_stale(), 0u);

  // Bound >= lag: the follower is admissible; every answer still lands
  // inside its caller's bound, and round-robin reaches both targets.
  bool saw_follower = false;
  for (int q = 0; q < 8; ++q) {
    QueryClient::StatsResult result = router.Stats(lag);
    ASSERT_TRUE(result.info.served);
    EXPECT_LE(result.info.staleness, lag);
    if (result.info.epoch == follower_epoch) saw_follower = true;
  }
  EXPECT_TRUE(saw_follower);

  // Bound just under the lag: the follower must never serve.
  if (lag > 0) {
    for (int q = 0; q < 8; ++q) {
      QueryClient::StatsResult result = router.Stats(lag - 1);
      ASSERT_TRUE(result.info.served);
      EXPECT_EQ(result.info.epoch, frontier);
    }
  }
}

TEST(ReadPath, FollowerReadsIdenticalOverEitherTransport) {
  // Transport-parameterized leg: the read replica either tails the
  // primary's replication directory directly or a TCP mirror kept by
  // DeltaStreamClient. The pinned view it serves must be byte-equal to
  // the primary's clustering either way — the transport is invisible
  // to the read path.
  for (const char* transport : {"shared", "tcp"}) {
    SCOPED_TRACE(transport);
    const bool over_tcp = std::string(transport) == "tcp";
    const std::string dir =
        TempDir(std::string("transport_reads_") + transport);
    ShardedDynamicCService primary(ReadServiceOptions(2), nullptr,
                                   MakeFactory());
    ReplicationSession repl(&primary, dir, {});
    ASSERT_TRUE(repl.Start().ok());
    for (int e = 0; e < 4; ++e) {
      std::vector<ObjectId> changed =
          primary.ApplyOperations(AddsForGroups({e}, kGroupSize));
      primary.ObserveBatchRound(changed);
      repl.SealEpoch();
    }

    std::string follow_dir = dir;
    std::unique_ptr<net::ServerFrontEnd> front_end;
    if (over_tcp) {
      follow_dir = TempDir("transport_reads_mirror");
      net::ServerFrontEnd::Options fe_options;
      fe_options.replication_dir = dir;
      front_end = std::make_unique<net::ServerFrontEnd>(&primary, nullptr,
                                                        fe_options);
      ASSERT_TRUE(front_end->Start().ok());
      front_end->SetStreamDone(true);
      net::DeltaStreamClient::Options stream_options;
      stream_options.port = front_end->port();
      stream_options.mirror_dir = follow_dir;
      net::DeltaStreamClient stream(std::move(stream_options));
      ASSERT_TRUE(stream.TailUntilDone(nullptr).ok());
    }

    Follower follower(follow_dir, ReadServiceOptions(2), MakeFactory());
    ASSERT_TRUE(follower.Restore().ok());
    ASSERT_TRUE(follower.CatchUp().ok());
    ASSERT_TRUE(follower.service().serves_reads());

    QueryClient follower_client(&follower.service(), "replica");
    ReadPin pin = follower_client.Pin();
    ASSERT_TRUE(pin);
    EXPECT_EQ(pin->CanonicalClusters(), primary.GlobalClusters());
    EXPECT_EQ(follower.epoch(), primary.open_epoch() - 1);
    if (front_end != nullptr) front_end->Stop();
  }
}

TEST(ReadPath, PromotionHandsOffReadsDeterministically) {
  const std::string dir = TempDir("promotion_reads");
  auto primary = std::make_unique<ShardedDynamicCService>(
      ReadServiceOptions(2), nullptr, MakeFactory());
  auto repl =
      std::make_unique<ReplicationSession>(primary.get(), dir,
                                           ReplicationSession::Options{});
  ASSERT_TRUE(repl->Start().ok());
  for (int e = 0; e < 3; ++e) {
    std::vector<ObjectId> changed =
        primary->ApplyOperations(AddsForGroups({e}, kGroupSize));
    primary->ObserveBatchRound(changed);
    repl->SealEpoch();
  }

  Follower follower(dir, ReadServiceOptions(2), MakeFactory());
  ASSERT_TRUE(follower.Restore().ok());
  ASSERT_TRUE(follower.CatchUp().ok());

  ReadRouter router(&*primary, {});
  router.AddFollower(&follower.service(), "follower-0");

  // An in-flight read pins a replica-era view before the failover...
  ReadPin in_flight = follower.service().AcquireReadView();
  ASSERT_TRUE(in_flight);
  const auto replica_era = in_flight->CanonicalClusters();

  // ...then the primary dies and the follower is promoted.
  repl->Stop();
  primary.reset();
  std::unique_ptr<ShardedDynamicCService> promoted = follower.Promote();
  EXPECT_EQ(follower.last_read_epoch(), in_flight->epoch());
  router.DrainFence(follower.last_read_epoch(), promoted.get());
  EXPECT_EQ(router.drain_fence(), in_flight->epoch());
  EXPECT_EQ(router.num_targets(), 1u);

  // The drained read finishes against its pinned replica-era view, and
  // its epoch classifies it as replica-era against the fence.
  EXPECT_LE(in_flight->epoch(), router.drain_fence());
  EXPECT_EQ(in_flight->CanonicalClusters(), replica_era);
  // The read is done: release the pin. A pin must never outlive the
  // service whose registry issued it (`promoted` now owns that
  // registry, and it is destroyed before `in_flight` at scope exit).
  in_flight = ReadPin();

  // New queries hit the promoted primary, which keeps serving writes
  // and publishing fresh views.
  std::vector<ObjectId> changed =
      promoted->ApplyOperations(AddsForGroups({7}, kGroupSize));
  promoted->ObserveBatchRound(changed);
  promoted->CloseEpoch();
  QueryClient::StatsResult result = router.Stats();
  ASSERT_TRUE(result.info.served);
  EXPECT_GT(result.info.epoch, router.drain_fence());
  EXPECT_EQ(result.stats.objects, promoted->total_objects());
}

// ------------------------------------------------- reclamation stress

TEST(ReadPath, ViewReclamationUnderReaderPublisherStress) {
  ShardedDynamicCService service(ReadServiceOptions(2), nullptr,
                                 MakeFactory());
  IngestGroupEpoch(&service, 0, /*round=*/false);
  ReadViewRegistry* registry = service.read_views();
  ASSERT_NE(registry, nullptr);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 6; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        // Nested pins exercise every hazard entry of this thread's slot
        // plus the mutex-guarded fallback beyond kPinsPerSlot.
        std::vector<ReadPin> pins;
        for (int p = 0; p < ReadViewRegistry::kPinsPerSlot + 2; ++p) {
          pins.push_back(service.AcquireReadView());
        }
        for (const ReadPin& pin : pins) {
          if (pin) CheckViewInvariants(*pin);
        }
      }
    });
  }

  for (int e = 1; e < 60; ++e) IngestGroupEpoch(&service, e, /*round=*/false);
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // All pins dropped: one pass frees everything but the current view.
  registry->Reclaim();
  EXPECT_EQ(registry->retired_count(), 0u);
  EXPECT_EQ(registry->live_pins(), 0u);
  EXPECT_GT(registry->views_published(), 0u);
  EXPECT_EQ(registry->views_reclaimed() + 1, registry->views_published());
}

}  // namespace
}  // namespace dynamicc
