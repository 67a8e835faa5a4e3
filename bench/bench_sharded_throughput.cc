// Throughput of the sharded serving layer (src/service/) vs shard count.
//
// A partition-disjoint token workload (G independent blocking groups)
// with hot-key serving traffic (each snapshot bursts adds into a
// rotating handful of groups) is streamed through
// ShardedDynamicCService configured with 1, 2, 4 and 8 shards; every
// configuration sees byte-identical operation batches. The timed region
// is the serving loop (ApplyOperations + DynamicRound per snapshot);
// the initial load and the two training rounds are setup. The win being
// measured is change-driven scheduling: a monolithic engine re-scans
// every cluster whenever anything changed, while the sharded service
// re-clusters only the shards the burst landed on.
//
// Two serving modes share the workload:
//
//  - sync:  ApplyOperations + DynamicRound per snapshot (call-and-wait;
//           the caller pays routing *and* re-clustering).
//  - async: every snapshot is enqueued into the bounded per-shard
//           queues and the background workers apply + round while the
//           producer keeps streaming; one Flush() barrier ends the run.
//           Sustained records/sec counts enqueue-to-flushed, and the
//           producer-side enqueue latency is reported as p50/p95 — the
//           ingest/round overlap the pipeline buys.
//
// Output: one JSON document on stdout (see bench_util.h JsonWriter) with
// records/sec per shard count and mode, the 4-shard-vs-1 speedup per
// mode, and the async-vs-sync ratio at 4 shards — the numbers the
// service-layer acceptance bars track.
//
// A third section measures dynamic placement: a *skewed* hot-key
// workload whose hot groups all collide on one shard under static hash
// placement (chosen adversarially by scanning group hashes). The same
// stream is served twice at 4 shards — static placement vs the
// auto-rebalancer (Options::rebalance) — and the JSON reports both
// sustained rates plus their ratio (`rebalance_vs_static_at_4`), the
// migrations executed, and the record-imbalance the rebalancer started
// from and ended at. Every measurement also carries the max/mean
// shard-cost ratio and per-shard record counts (ServiceReport's
// imbalance fields).
//
// A fourth section measures replication (src/replication/): the same
// barriered serving stream is run with delta shipping off and on
// (records/sec both ways — the delta-emit overhead is their gap), and a
// follower tails the log while the primary streams, catching up every
// few epochs; the JSON reports the epochs-behind series over time, the
// catch-up cost, and whether the replica ended byte-identical.
//
// A seventh section measures the epoch-pinned read path (PR 8): the
// replicated serving stream again, now with the primary and two
// read-serving followers publishing ReadViews, a fixed-rate open-loop
// read load routed through the ReadRouter under a staleness bound
// (the ingest-regression arm: lock-free readers must cost the writer
// <= 2% records/sec, the same bar the metrics guard set), and a
// mid-stream saturated capacity probe per serving target. Read
// scale-out is reported as aggregate capacity — each target's
// saturated throughput measured on its own and summed — because in
// deployment every follower is its own machine; measuring all targets
// concurrently in one process would only split this box's cores and
// say nothing about fleet capacity. The JSON carries the per-target
// capacities, the 2-follower-vs-primary-only scaling (the >= 1.6x CI
// bar: it fails when followers cannot publish fresh-enough views, not
// on raw CPU), the staleness ceiling observed vs the configured
// bound, and whether the final pinned views are byte-identical to the
// flushed state on primary and follower alike.
//
// Flags: --groups N --active N --per-round N --rounds N --threads N
//        --repeats N --mode sync|async|both --queue-depth N
//        --backpressure block|reject --skewed 0|1 --hot N
//        --rebalance-every K --replication 0|1 --catchup-every K
//        --metrics-overhead 0|1 --read-path 0|1 --read-clients N
//        --read-staleness-bound K

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <memory>
#include <thread>
#include <string>
#include <vector>

#include "batch/agglomerative.h"
#include "bench_util.h"
#include "replication/backoff.h"
#include "replication/follower.h"
#include "replication/replication_session.h"
#include "data/blocking.h"
#include "data/operations.h"
#include "data/similarity_measures.h"
#include "ml/logistic_regression.h"
#include "objective/correlation.h"
#include "obs/metrics.h"
#include "service/query_api.h"
#include "service/service_report.h"
#include "service/sharded_service.h"
#include "util/status.h"
#include "util/timer.h"

using namespace dynamicc;

namespace {

struct BenchArgs {
  int groups = 3072;     // independent blocking groups
  int active = 2;        // hot groups receiving traffic per snapshot
  int per_round = 8;     // adds per hot group per snapshot
  int rounds = 64;       // dynamic snapshots in the timed region
  uint32_t threads = 0;  // 0 = one per shard, capped at hardware
  int repeats = 3;       // sweep repetitions; best serve time per config wins
  std::string mode = "both";  // sync | async | both
  size_t queue_depth = 4096;  // async: per-shard queue bound
  std::string backpressure = "block";  // async: block | reject
  bool skewed = true;         // run the static-vs-rebalanced section
  int hot = 8;                // skewed: colliding hot groups
  uint32_t rebalance_every = 4;  // skewed: auto-rebalance cadence
  bool replication = true;       // run the delta-shipping section
  int catchup_every = 4;         // replication: follower catch-up cadence
  bool metrics_overhead = true;  // run the metrics-overhead guard
  bool read_path = true;         // run the epoch-pinned read-path section
  int read_clients = 2;          // fixed-rate open-loop reader threads
  int read_staleness_bound = 8;  // router max-staleness admission bound
};

ShardEnvironmentFactory MakeFactory() {
  return [] {
    ShardEnvironment env;
    env.measure = std::make_unique<JaccardSimilarity>();
    env.blocker = std::make_unique<TokenBlocker>();
    env.min_similarity = 0.1;
    auto objective = std::make_unique<CorrelationObjective>();
    env.validator = std::make_unique<ObjectiveValidator>(objective.get());
    env.batch = std::make_unique<GreedyAgglomerative>(objective.get());
    env.objective = std::move(objective);
    env.merge_model = std::make_unique<LogisticRegression>();
    env.split_model = std::make_unique<LogisticRegression>();
    return env;
  };
}

DataOperation GroupAdd(int group) {
  DataOperation op;
  op.kind = DataOperation::Kind::kAdd;
  op.record.entity = static_cast<uint32_t>(group);
  op.record.tokens = {"grp" + std::to_string(group),
                      "tag" + std::to_string(group)};
  return op;
}

/// `per_group` adds for each of `groups` blocking groups, interleaved so
/// routing sees a mixed stream. Group members share their token set, so
/// similarity never crosses groups and every shard count produces the
/// same clustering (the regime the equivalence tests pin down).
OperationBatch GroupAdds(int groups, int per_group) {
  OperationBatch ops;
  for (int i = 0; i < per_group; ++i) {
    for (int g = 0; g < groups; ++g) ops.push_back(GroupAdd(g));
  }
  return ops;
}

/// One serving snapshot with hot-key traffic: a rotating handful of
/// `active` groups each takes a burst of `per_round` adds — the
/// flash-crowd regime sharding exists for. The monolithic engine must
/// re-scan every cluster because *something* changed; the sharded
/// service re-clusters only the shards the burst landed on and skips
/// the clean ones outright (change-driven scheduling).
OperationBatch HotRound(const BenchArgs& args, int round) {
  OperationBatch ops;
  int start = (round * args.active) % args.groups;
  for (int i = 0; i < args.per_round; ++i) {
    for (int a = 0; a < args.active; ++a) {
      ops.push_back(GroupAdd((start + a) % args.groups));
    }
  }
  return ops;
}

struct Measurement {
  const char* mode = "sync";
  uint32_t shards = 0;
  size_t threads = 0;
  size_t records_served = 0;
  double serve_ms = 0.0;
  double records_per_sec = 0.0;
  size_t final_objects = 0;
  size_t final_clusters = 0;
  // Placement health at the end of the run: max/mean shard-cost ratio
  // over the serving rounds, final record skew, per-shard record
  // counts, and how many group migrations the placement layer executed.
  double cost_imbalance = 0.0;
  double record_imbalance = 0.0;
  std::vector<size_t> shard_records;
  uint64_t migrations = 0;
  uint64_t placement_version = 0;
  // Where the serving time went. The wall pair partitions serve_ms; the
  // per-shard pair is summed across shards, so it measures cost.
  double apply_wall_ms = 0.0;
  double round_wall_ms = 0.0;
  double recluster_ms = 0.0;
  double retrain_ms = 0.0;
  size_t rejected = 0;
  size_t probability_evaluations = 0;
  // Async only: producer-side enqueue latency percentiles, the final
  // flush barrier, and the pipeline counters.
  double enqueue_p50_us = 0.0;
  double enqueue_p95_us = 0.0;
  double flush_ms = 0.0;
  uint64_t coalesced_ops = 0;
  uint64_t worker_rounds = 0;
  uint64_t rejected_batches = 0;
  size_t queue_high_water = 0;
  // Epoch-flush probe (async only): a sealed burst is epoch-flushed
  // while a later-epoch backlog sits in the queues. epoch_flush_ms is
  // the prefix barrier's latency, epoch_flush_pending the backlog it
  // (correctly) did not drain, full_flush_ms the old global barrier
  // paying for everything afterwards.
  double epoch_flush_ms = 0.0;
  uint64_t epoch_flush_pending = 0;
  double full_flush_ms = 0.0;
  // Durability probe (async only): SaveSnapshot/LoadSnapshot wall time
  // and whether the restored clustering matched byte for byte.
  double snapshot_save_ms = 0.0;
  double snapshot_load_ms = 0.0;
  bool snapshot_identical = false;
};

void FillPlacementHealth(const ShardedDynamicCService& service,
                         Measurement* m) {
  ServiceSnapshot snap = service.Snapshot();
  m->record_imbalance = snap.report.record_imbalance;
  m->migrations = snap.report.groups_migrated;
  m->placement_version = snap.report.placement_version;
  m->shard_records.clear();
  for (const ShardDynamicStats& stats : snap.report.dynamic_shards) {
    m->shard_records.push_back(stats.objects);
  }
}

Measurement RunOne(uint32_t num_shards, const BenchArgs& args,
                   const std::vector<OperationBatch>& training,
                   const std::vector<OperationBatch>& serving) {
  ShardedDynamicCService::Options options;
  options.num_shards = num_shards;
  options.num_threads = args.threads;
  ShardedDynamicCService service(options, nullptr, MakeFactory());

  for (const OperationBatch& batch : training) {
    auto changed = service.ApplyOperations(batch);
    service.ObserveBatchRound(changed);
  }

  Measurement m;
  m.shards = num_shards;
  m.threads = service.num_threads();
  double imbalance_sum = 0.0;
  size_t imbalance_rounds = 0;
  Timer timer;
  for (const OperationBatch& batch : serving) {
    Timer phase;
    auto changed = service.ApplyOperations(batch);
    m.apply_wall_ms += phase.ElapsedMillis();
    phase.Reset();
    ServiceReport report = service.DynamicRound(changed);
    m.round_wall_ms += phase.ElapsedMillis();
    m.records_served += batch.size();
    for (const ShardDynamicStats& stats : report.dynamic_shards) {
      m.recluster_ms += stats.report.recluster_ms;
      m.retrain_ms += stats.report.retrain_ms;
    }
    m.rejected += report.combined.rejected;
    m.probability_evaluations += report.combined.probability_evaluations;
    if (report.cost_imbalance > 0.0) {
      imbalance_sum += report.cost_imbalance;
      ++imbalance_rounds;
    }
  }
  m.serve_ms = timer.ElapsedMillis();
  m.records_per_sec =
      m.serve_ms > 0.0 ? 1000.0 * m.records_served / m.serve_ms : 0.0;
  m.final_objects = service.total_objects();
  m.final_clusters = service.total_clusters();
  m.cost_imbalance =
      imbalance_rounds > 0 ? imbalance_sum / imbalance_rounds : 0.0;
  FillPlacementHealth(service, &m);
  return m;
}

/// Async pipeline: identical training, then the serving snapshots are
/// only enqueued (per-call latency sampled) and one Flush() barrier ends
/// the run. serve_ms spans first enqueue to flushed state, so sustained
/// records/sec is directly comparable with the sync path.
Measurement RunOneAsync(uint32_t num_shards, const BenchArgs& args,
                        const std::vector<OperationBatch>& training,
                        const std::vector<OperationBatch>& serving) {
  ShardedDynamicCService::Options options;
  options.num_shards = num_shards;
  options.num_threads = args.threads;
  options.async.enabled = true;
  options.async.queue_depth = args.queue_depth;
  options.async.backpressure = args.backpressure == "reject"
                                   ? BackpressurePolicy::kReject
                                   : BackpressurePolicy::kBlock;
  ShardedDynamicCService service(options, nullptr, MakeFactory());

  for (const OperationBatch& batch : training) {
    auto changed = service.ApplyOperations(batch);
    service.ObserveBatchRound(changed);
  }
  // Transition into the serving phase: from here the background
  // workers round continuously (a no-op barrier — queues are empty).
  service.Flush();

  Measurement m;
  m.mode = "async";
  m.shards = num_shards;
  m.threads = service.num_threads();
  std::vector<double> enqueue_us;
  enqueue_us.reserve(serving.size());
  Timer timer;
  for (const OperationBatch& batch : serving) {
    Timer enqueue;
    auto result = service.Ingest(batch);
    enqueue_us.push_back(enqueue.ElapsedMillis() * 1000.0);
    if (result.accepted) m.records_served += batch.size();
  }
  m.apply_wall_ms = timer.ElapsedMillis();  // producer-side enqueue time
  Timer flush_timer;
  ServiceReport flush = service.Flush();
  m.flush_ms = flush_timer.ElapsedMillis();
  m.serve_ms = timer.ElapsedMillis();
  m.round_wall_ms = flush.ingest.worker_round_ms;  // overlapped, not waited
  m.records_per_sec =
      m.serve_ms > 0.0 ? 1000.0 * m.records_served / m.serve_ms : 0.0;
  m.enqueue_p50_us = bench::Percentile(&enqueue_us, 0.50);
  m.enqueue_p95_us = bench::Percentile(&enqueue_us, 0.95);
  m.coalesced_ops = flush.ingest.coalesced_ops;
  m.worker_rounds = flush.ingest.worker_rounds;
  m.rejected_batches = flush.ingest.rejected_batches;
  m.queue_high_water = flush.ingest.queue_high_water;
  // Cumulative over every round (background + flush barrier), so the
  // counters are comparable with the sync path's per-round sums.
  ServiceSnapshot snap = service.Snapshot();
  m.rejected = snap.report.combined.rejected;
  m.probability_evaluations = snap.report.combined.probability_evaluations;
  m.final_objects = snap.total_objects;
  m.final_clusters = snap.total_clusters;
  m.cost_imbalance = flush.cost_imbalance;
  FillPlacementHealth(service, &m);

  // Epoch-flush probe, outside the timed region, under *concurrent*
  // ingest — the regime the prefix barrier exists for. The probe seals
  // the traffic admitted so far, then a producer thread replays the
  // serving stream (pure adds) several times while the main thread
  // times Flush(sealed): it returns once the sealed prefix is applied
  // even though the producer keeps feeding the queues (the old barrier
  // would chase it). The full barrier afterwards pays for the leftover
  // backlog: epoch_flush_ms vs full_flush_ms is the wait a reader no
  // longer pays, and epoch_flush_pending the later-epoch backlog the
  // prefix barrier (correctly) left queued. Numbers are noisy on small
  // boxes — the *shape* (prefix barrier bounded, full barrier paying
  // the backlog) is what the JSON documents.
  {
    for (const OperationBatch& batch : serving) service.Ingest(batch);
    uint64_t sealed = service.CloseEpoch();
    // Bounded volume (not an open loop): the probe should measure
    // barrier mechanics, not ever-growing cluster sizes.
    std::thread producer([&service, &serving] {
      for (int pass = 0; pass < 6; ++pass) {
        for (const OperationBatch& batch : serving) service.Ingest(batch);
      }
    });
    Timer epoch_timer;
    ServiceReport epoch_flush = service.Flush(sealed);
    m.epoch_flush_ms = epoch_timer.ElapsedMillis();
    m.epoch_flush_pending = epoch_flush.ingest.pending_ops;
    producer.join();
    Timer full_timer;
    service.Flush();
    m.full_flush_ms = full_timer.ElapsedMillis();
  }

  // Durability probe: serialize the loaded service, restore it into a
  // fresh one, and verify the round trip reproduced the clustering.
  {
    const std::string dir =
        "/tmp/dynamicc_bench_snapshot_" + std::to_string(num_shards);
    Timer save_timer;
    Status saved = service.SaveSnapshot(dir);
    m.snapshot_save_ms = save_timer.ElapsedMillis();
    if (saved.ok()) {
      ShardedDynamicCService restored(options, nullptr, MakeFactory());
      Timer load_timer;
      Status loaded = restored.LoadSnapshot(dir);
      m.snapshot_load_ms = load_timer.ElapsedMillis();
      m.snapshot_identical =
          loaded.ok() &&
          restored.GlobalClusters() == service.GlobalClusters();
    }
  }
  return m;
}

/// Skewed (hot-key collision) section: async pipeline, static placement
/// vs mid-stream rebalancing. Under static placement every hot group
/// drains through ONE pinned shard worker — the whole stream is
/// serialized on a single core no matter how many shards exist. The
/// rebalanced run calls RebalanceOnce() every `rebalance_every`
/// snapshots: hot groups migrate away (queued backlog replays onto the
/// destination logs) and the remaining stream drains in parallel.
Measurement RunOneSkewed(const BenchArgs& args,
                         const std::vector<OperationBatch>& training,
                         const std::vector<OperationBatch>& serving,
                         uint32_t rebalance_every) {
  ShardedDynamicCService::Options options;
  options.num_shards = 4;
  options.num_threads = args.threads;
  options.async.enabled = true;
  // A tight queue paces the producer at drain rate (kBlock): load
  // evolves in real time, so the rebalance cadence below sees the hot
  // shard's records pile up while the stream flows — and migrations re-home
  // genuine queued backlog (the replay path), not an empty queue.
  options.async.queue_depth = std::min<size_t>(args.queue_depth, 256);
  options.async.adaptive_batch = true;
  options.async.min_batch = 32;
  if (rebalance_every > 0) {
    options.rebalance.policy.hysteresis = 1.3;
    options.rebalance.policy.max_moves = 8;
  }
  ShardedDynamicCService service(options, nullptr, MakeFactory());

  for (const OperationBatch& batch : training) {
    auto changed = service.ApplyOperations(batch);
    service.ObserveBatchRound(changed);
  }
  service.Flush();

  Measurement m;
  m.mode = rebalance_every > 0 ? "rebalance" : "static";
  m.shards = 4;
  m.threads = service.num_threads();
  Timer timer;
  for (size_t i = 0; i < serving.size(); ++i) {
    Timer phase;
    if (service.Ingest(serving[i]).accepted) {
      m.records_served += serving[i].size();
    }
    m.apply_wall_ms += phase.ElapsedMillis();
    if (rebalance_every > 0 && (i + 1) % rebalance_every == 0) {
      service.RebalanceOnce();
    }
  }
  ServiceReport flush = service.Flush();
  m.serve_ms = timer.ElapsedMillis();
  m.round_wall_ms = flush.ingest.worker_round_ms;
  m.records_per_sec =
      m.serve_ms > 0.0 ? 1000.0 * m.records_served / m.serve_ms : 0.0;
  m.cost_imbalance = flush.cost_imbalance;
  std::fprintf(stderr,
               "  [skewed %s] enqueue %.0f ms, flush wall %.0f ms, worker "
               "apply %.0f ms, worker rounds %llu (%.0f ms), batches %llu\n",
               m.mode, m.apply_wall_ms, flush.wall_ms,
               flush.ingest.worker_apply_ms,
               static_cast<unsigned long long>(flush.ingest.worker_rounds),
               flush.ingest.worker_round_ms,
               static_cast<unsigned long long>(flush.ingest.applied_batches));
  ServiceSnapshot snap = service.Snapshot();
  m.recluster_ms = snap.report.ingest.worker_round_ms;
  m.final_objects = snap.total_objects;
  m.final_clusters = snap.total_clusters;
  FillPlacementHealth(service, &m);
  return m;
}

/// Replication section: the same barriered serving stream (ingest +
/// flush + one sealed epoch per round — the replicated-primary
/// protocol) with delta shipping off vs on, plus a follower tailing the
/// log as it grows. records/sec on-vs-off is the delta-emit overhead; a
/// lag sample (sealed epochs the follower is behind) is taken every
/// round, and the follower only catches up every `catchup_every` rounds
/// so the series actually moves.
struct ReplicationMeasurement {
  double off_records_per_sec = 0.0;
  double on_records_per_sec = 0.0;
  double seal_ms_total = 0.0;        // cumulative SealEpoch wall time
  // The session's split of that wall time: service-side bookkeeping
  // (watermarks, epoch marks) vs delta serialization + write. A slow
  // seal is attributable to the service or the replication sink.
  double seal_service_ms_total = 0.0;
  double delta_ship_ms_total = 0.0;
  uint64_t delta_bytes_total = 0;
  uint64_t deltas_shipped = 0;
  uint64_t pending_at_seals = 0;
  std::vector<uint64_t> lag_epochs;  // one sample per serving round
  uint64_t max_lag = 0;
  double catchup_ms_total = 0.0;
  uint64_t follower_epoch = 0;
  // Final values of the follower's own staleness gauges (its private
  // registry — a shared book would pool primary and replica metrics).
  double follower_epochs_behind = 0.0;
  double follower_replay_lag_ms = 0.0;
  bool identical = false;            // replica byte-equal at the end
};

ReplicationMeasurement RunReplicated(
    const BenchArgs& args, const std::vector<OperationBatch>& training,
    const std::vector<OperationBatch>& serving) {
  ShardedDynamicCService::Options options;
  options.num_shards = 4;
  options.num_threads = args.threads;
  options.async.enabled = true;
  options.async.queue_depth = args.queue_depth;

  ReplicationMeasurement m;

  // Baseline: identical barrier + seal cadence, no shipping.
  {
    ShardedDynamicCService service(options, nullptr, MakeFactory());
    for (const OperationBatch& batch : training) {
      auto changed = service.ApplyOperations(batch);
      service.ObserveBatchRound(changed);
    }
    service.Flush();
    Timer timer;
    size_t records = 0;
    for (const OperationBatch& batch : serving) {
      if (service.Ingest(batch).accepted) records += batch.size();
      service.Flush();
      service.CloseEpoch();
    }
    double ms = timer.ElapsedMillis();
    m.off_records_per_sec = ms > 0.0 ? 1000.0 * records / ms : 0.0;
  }

  // Shipping on, with a follower tailing the directory live.
  const std::string dir = "/tmp/dynamicc_bench_replication";
  std::filesystem::remove_all(dir);
  ShardedDynamicCService primary(options, nullptr, MakeFactory());
  for (const OperationBatch& batch : training) {
    auto changed = primary.ApplyOperations(batch);
    primary.ObserveBatchRound(changed);
  }
  primary.Flush();
  ReplicationSession repl(&primary, dir, {});
  Status status = repl.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "replication bench skipped: %s\n",
                 status.ToString().c_str());
    return m;
  }

  ShardedDynamicCService::Options follower_options = options;
  follower_options.async.enabled = false;
  // The follower keeps its own metrics book: both services live in this
  // process, and sharing Default() would pool their histograms.
  obs::MetricsRegistry follower_registry;
  follower_options.obs.metrics = &follower_registry;
  Follower follower(dir, follower_options, MakeFactory());
  status = follower.Restore();
  if (!status.ok()) {
    std::fprintf(stderr, "replication bench: follower restore failed: %s\n",
                 status.ToString().c_str());
    return m;
  }

  Timer timer;
  size_t records = 0;
  uint64_t last_sealed = repl.last_base_epoch();
  const int catchup_every = std::max(1, args.catchup_every);
  for (size_t round = 0; round < serving.size(); ++round) {
    if (primary.Ingest(serving[round]).accepted) {
      records += serving[round].size();
    }
    primary.Flush();
    Timer seal_timer;
    last_sealed = repl.SealEpoch();
    m.seal_ms_total += seal_timer.ElapsedMillis();
    // Lag is sampled every round; the follower only acts on its cadence.
    m.lag_epochs.push_back(last_sealed - follower.epoch());
    if ((round + 1) % static_cast<size_t>(catchup_every) == 0) {
      Timer catchup;
      if (!follower.CatchUp().ok()) break;
      m.catchup_ms_total += catchup.ElapsedMillis();
    }
  }
  // The follower replays in-process here (a real deployment tails from
  // another machine), so its catch-up time is carved out of the
  // primary's serve window: on-vs-off isolates the delta-*emit* cost.
  double ms = timer.ElapsedMillis() - m.catchup_ms_total;
  m.on_records_per_sec = ms > 0.0 ? 1000.0 * records / ms : 0.0;
  m.deltas_shipped = repl.deltas_shipped();
  m.pending_at_seals = repl.pending_at_seals();
  m.seal_service_ms_total = repl.seal_ms_total();
  m.delta_ship_ms_total = repl.delta_ship_ms_total();
  m.delta_bytes_total = repl.delta_bytes_total();
  for (uint64_t lag : m.lag_epochs) m.max_lag = std::max(m.max_lag, lag);

  Timer final_catchup;
  if (follower.CatchUp().ok()) {
    m.catchup_ms_total += final_catchup.ElapsedMillis();
    follower.Flush();
    m.follower_epoch = follower.epoch();
    m.identical =
        follower.service().GlobalClusters() == primary.GlobalClusters();
  }
  // GetGauge returns the instance CatchUp has been updating (registries
  // register on first use), so these are the live staleness gauges.
  m.follower_epochs_behind =
      follower_registry.GetGauge("follower.epochs_behind")->value();
  m.follower_replay_lag_ms =
      follower_registry.GetGauge("follower.replay_lag_ms")->value();
  return m;
}

/// Metrics-overhead guard: the same 4-shard async serving stream with
/// the registry attached vs compiled-in-but-idle (a null pointer in
/// Options::obs — exactly what a service without --metrics-out runs).
/// One pass over a small stream lasts a few ms, far too short to time,
/// so each arm keeps serving the hot-key stream past --rounds (pass p
/// takes HotRound p*rounds .. p*rounds+rounds-1, so every pass lands on
/// fresh groups and costs about the same; a flush ends each pass) until
/// it lasts at least kMinArmMs; a calibration run fixes the pass count
/// for every arm. Arms are timed in process CPU time (producer and
/// workers together): instrumentation costs instructions, while wall
/// time on a shared box mostly measures how the scheduler happened to
/// overlap the four workers (one arm's work on a 4-vCPU VM: 40-150 ms
/// wall, 100-150 ms CPU). At least kMinPairs idle/enabled pairs run back to
/// back, whatever --repeats says, alternating which arm goes first, and
/// the reported overhead is the best paired ratio: noise only adds
/// time, so a real instrumentation cost shows in every pair and
/// survives the minimum, a one-pair spike does not (the estimator of
/// the read path's ingest arm). The bar the instrumentation must clear:
/// one relaxed striped atomic add per hot-path event, ≤ 2% cost.
struct MetricsOverhead {
  double idle_ms = 0.0;     // best pair's idle arm (CPU ms), metrics null
  double enabled_ms = 0.0;  // best pair's enabled arm (CPU ms), registry on
  double overhead_pct = 0.0;
  int passes = 0;  // serving-stream passes per arm
  int pairs = 0;
  bool within_2pct = false;
};

MetricsOverhead MeasureMetricsOverhead(
    const BenchArgs& args, const std::vector<OperationBatch>& training) {
  constexpr double kMinArmMs = 100.0;
  constexpr int kMinPairs = 5;
  constexpr int kMaxPasses = 256;
  // *passes == 0 calibrates: serve passes until the arm lasts kMinArmMs.
  auto run_arm = [&](obs::MetricsRegistry* registry, int* passes) {
    ShardedDynamicCService::Options options;
    options.num_shards = 4;
    options.num_threads = args.threads;
    options.async.enabled = true;
    options.async.queue_depth = args.queue_depth;
    options.obs.metrics = registry;
    ShardedDynamicCService service(options, nullptr, MakeFactory());
    for (const OperationBatch& batch : training) {
      auto changed = service.ApplyOperations(batch);
      service.ObserveBatchRound(changed);
    }
    service.Flush();
    const bool calibrate = *passes == 0;
    const std::clock_t start = std::clock();
    auto cpu_ms = [start] {
      return 1000.0 * static_cast<double>(std::clock() - start) /
             CLOCKS_PER_SEC;
    };
    for (int pass = 0; calibrate || pass < *passes; ++pass) {
      for (int r = 0; r < args.rounds; ++r) {
        service.Ingest(HotRound(args, pass * args.rounds + r));
      }
      service.Flush();
      if (calibrate && (cpu_ms() >= kMinArmMs || pass + 1 == kMaxPasses)) {
        *passes = pass + 1;
        break;
      }
    }
    return cpu_ms();
  };
  MetricsOverhead m;
  run_arm(nullptr, &m.passes);  // calibration, doubles as warm-up
  obs::MetricsRegistry registry;  // reused: registration is one-time cost
  m.pairs = std::max(kMinPairs, args.repeats);
  for (int pair = 0; pair < m.pairs; ++pair) {
    double idle = 0.0, enabled = 0.0;
    if (pair % 2 == 0) {
      idle = run_arm(nullptr, &m.passes);
      enabled = run_arm(&registry, &m.passes);
    } else {
      enabled = run_arm(&registry, &m.passes);
      idle = run_arm(nullptr, &m.passes);
    }
    const double pct = idle > 0.0 ? 100.0 * (enabled - idle) / idle : 0.0;
    if (pair == 0 || pct < m.overhead_pct) {
      m.overhead_pct = pct;
      m.idle_ms = idle;
      m.enabled_ms = enabled;
    }
  }
  // Negative overhead is run-to-run noise in the idle arm's favor.
  m.within_2pct = m.overhead_pct <= 2.0;
  return m;
}

/// Read-path section (PR 8): the replicated serving protocol with the
/// primary and two followers publishing epoch-pinned ReadViews. Two
/// arms, interleaved per repeat, identical except for the readers:
///
///  - baseline: primary ingests + seals, followers tail — no readers.
///  - with readers: `read_clients` fixed-rate open-loop reader threads
///    route a ClusterOf/KNearest/Stats mix through the ReadRouter
///    under the staleness bound while the same stream flows, and at
///    the stream's midpoint each serving target takes a saturated
///    capacity burst (timed queries against that one target).
///
/// The arms' ingest records/sec difference is the cost lock-free
/// readers impose on the writer (the <= 2% bar); the capacity bursts
/// are summed into aggregate fleet capacity vs the primary alone (the
/// >= 1.6x scale-out bar — in deployment each follower is its own
/// machine, so per-target capacity adds; a follower too stale to
/// admit queries contributes zero and fails the bar).
struct ReadArmResult {
  double serve_ms = 0.0;
  double ingest_records_per_sec = 0.0;
  size_t records_served = 0;
  // Fixed-rate router load (with-readers arm only).
  uint64_t queries_served = 0;
  uint64_t router_queries = 0;
  uint64_t rejected_stale = 0;
  uint64_t max_staleness = 0;
  double staleness_gauge = 0.0;
  // Saturated capacity per target (queries/sec).
  double primary_qps = 0.0;
  double follower_qps[2] = {0.0, 0.0};
  // Final pinned views byte-equal to the flushed state.
  bool primary_view_identical = false;
  bool follower_view_identical = false;
};

ReadArmResult RunReadArm(const BenchArgs& args,
                         const std::vector<OperationBatch>& training,
                         const std::vector<OperationBatch>& serving,
                         bool with_readers) {
  ReadArmResult m;
  ShardedDynamicCService::Options options;
  options.num_shards = 4;
  options.num_threads = args.threads;
  options.async.enabled = true;
  options.async.queue_depth = args.queue_depth;
  options.read.serve = true;

  const std::string dir = "/tmp/dynamicc_bench_readpath";
  std::filesystem::remove_all(dir);
  ShardedDynamicCService primary(options, nullptr, MakeFactory());
  for (const OperationBatch& batch : training) {
    auto changed = primary.ApplyOperations(batch);
    primary.ObserveBatchRound(changed);
  }
  primary.Flush();
  ReplicationSession repl(&primary, dir, {});
  if (!repl.Start().ok()) {
    std::fprintf(stderr, "read-path bench skipped: replication failed\n");
    return m;
  }

  ShardedDynamicCService::Options follower_options = options;
  follower_options.async.enabled = false;
  std::vector<std::unique_ptr<Follower>> followers;
  for (int f = 0; f < 2; ++f) {
    followers.push_back(
        std::make_unique<Follower>(dir, follower_options, MakeFactory()));
    if (!followers.back()->Restore().ok()) {
      std::fprintf(stderr, "read-path bench: follower restore failed\n");
      return m;
    }
  }

  // Followers tail continuously — both arms carry this thread, so the
  // ingest comparison isolates the readers. Empty polls back off
  // exponentially (capped low: follower staleness feeds the capacity
  // probe) and any replay progress resets the delay, so an active
  // stream is tailed tightly without spinning on an idle one.
  std::atomic<bool> stop{false};
  std::thread catcher([&followers, &stop] {
    PollBackoff::Options backoff_options;
    backoff_options.max_ms = 32;
    PollBackoff backoff(backoff_options);
    while (!stop.load(std::memory_order_relaxed)) {
      size_t progressed = 0;
      for (auto& f : followers) {
        size_t replayed = 0;
        if (!f->CatchUp(&replayed).ok()) return;
        progressed += replayed;
      }
      if (progressed > 0) {
        backoff.Reset();
        continue;
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(backoff.NextDelayMs()));
    }
  });

  // Query inputs: training-era global ids (always alive) and group
  // probe records, cycled deterministically.
  const size_t training_objects = static_cast<size_t>(args.groups) * 6;
  std::vector<Record> probes;
  for (int g = 0; g < 8; ++g) probes.push_back(GroupAdd(g).record);

  obs::MetricsRegistry router_registry;
  ReadRouter::Options router_options;
  router_options.max_staleness_epochs =
      static_cast<uint64_t>(std::max(0, args.read_staleness_bound));
  router_options.metrics = &router_registry;
  ReadRouter router(&primary, router_options);
  for (size_t f = 0; f < followers.size(); ++f) {
    router.AddFollower(&followers[f]->service(),
                       "follower" + std::to_string(f));
  }

  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> max_staleness{0};
  std::vector<std::thread> readers;
  if (with_readers) {
    for (int c = 0; c < std::max(1, args.read_clients); ++c) {
      readers.emplace_back([&, c] {
        uint64_t t = static_cast<uint64_t>(c) * 7919;
        while (!stop.load(std::memory_order_relaxed)) {
          QueryClient::ResultInfo info;
          switch (t % 3) {
            case 0:
              info = router.Stats().info;
              break;
            case 1:
              info = router
                         .ClusterOfRecord(static_cast<ObjectId>(
                             (t * 2654435761u) % training_objects))
                         .info;
              break;
            default:
              info = router.KNearestClusters(probes[t % probes.size()], 4)
                         .info;
          }
          if (info.served) {
            served.fetch_add(1, std::memory_order_relaxed);
            uint64_t seen = max_staleness.load(std::memory_order_relaxed);
            while (info.staleness > seen &&
                   !max_staleness.compare_exchange_weak(
                       seen, info.staleness, std::memory_order_relaxed)) {
            }
          }
          ++t;
          // Open-loop pacing: a fixed arrival rate per client, so the
          // read load is constant across repeats and its writer cost is
          // attributable (a closed loop would absorb any slack).
          std::this_thread::sleep_for(std::chrono::microseconds(2000));
        }
      });
    }
  }

  // One saturated capacity burst against a single target: direct
  // QueryClient calls (no router hop) for a fixed time box, counting
  // only served answers — a target with no published view scores zero.
  auto capacity_burst = [&](const ShardedDynamicCService* target) {
    QueryClient client(target);
    int burst_served = 0;
    int q = 0;
    Timer burst;
    double ms = 0.0;
    do {
      for (int step = 0; step < 64; ++step, ++q) {
        switch (q % 3) {
          case 0: {
            auto r = client.ClusterOfRecord(static_cast<ObjectId>(
                (static_cast<uint64_t>(q) * 2654435761u) %
                training_objects));
            burst_served += r.info.served ? 1 : 0;
            break;
          }
          case 1: {
            auto r = client.KNearestClusters(probes[q % probes.size()], 4);
            burst_served += r.info.served ? 1 : 0;
            break;
          }
          default: {
            auto r = client.Stats();
            burst_served += r.info.served ? 1 : 0;
          }
        }
      }
      ms = burst.ElapsedMillis();
    } while (ms < 25.0);
    return ms > 0.0 ? 1000.0 * burst_served / ms : 0.0;
  };

  double burst_ms = 0.0;
  Timer timer;
  for (size_t round = 0; round < serving.size(); ++round) {
    if (primary.Ingest(serving[round]).accepted) {
      m.records_served += serving[round].size();
    }
    primary.Flush();
    repl.SealEpoch();
    if (with_readers && round == serving.size() / 2) {
      // Mid-stream capacity probe, carved out of the ingest window like
      // the replication section's catch-up: one target at a time, the
      // fixed-rate load and the follower tailing still running. Wait
      // for each follower's first published view (the tailing thread
      // replays on its own schedule) — capacity of a view-less target
      // is legitimately zero, but at the probe point we measure serving
      // capacity, not restore latency.
      Timer probe_timer;
      for (auto& f : followers) {
        QueryClient probe(&f->service());
        Timer wait;
        while (probe.view_epoch() == 0 && wait.ElapsedMillis() < 2000.0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      m.primary_qps = capacity_burst(&primary);
      for (size_t f = 0; f < followers.size(); ++f) {
        m.follower_qps[f] = capacity_burst(&followers[f]->service());
      }
      burst_ms = probe_timer.ElapsedMillis();
    }
  }
  double ms = timer.ElapsedMillis() - burst_ms;
  m.serve_ms = ms;
  m.ingest_records_per_sec = ms > 0.0 ? 1000.0 * m.records_served / ms : 0.0;

  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  catcher.join();

  m.queries_served = served.load();
  m.max_staleness = max_staleness.load();
  m.router_queries = router.queries();
  m.rejected_stale = router.rejected_stale();
  m.staleness_gauge =
      router_registry.GetGauge("read.staleness_epochs")->value();

  // Byte-consistency of the final pinned views: the primary's view was
  // published at the last seal (the stream is flushed, so the sealed
  // epoch IS the state); the follower's at its last replayed barrier.
  ReadPin primary_pin = primary.AcquireReadView();
  m.primary_view_identical =
      primary_pin && primary_pin->CanonicalClusters() ==
                         primary.GlobalClusters();
  if (followers[0]->CatchUp().ok()) {
    followers[0]->Flush();
    ReadPin follower_pin = followers[0]->service().AcquireReadView();
    m.follower_view_identical =
        follower_pin && follower_pin->CanonicalClusters() ==
                            primary.GlobalClusters();
  }
  return m;
}

struct ReadPathMeasurement {
  ReadArmResult baseline;    // no readers (from the min-regression sweep)
  ReadArmResult with_reads;  // router load + bursts (same sweep as baseline)
  double ingest_regression_pct = 0.0;
  bool ingest_within_2pct = false;
  double single_node_read_qps = 0.0;  // primary capacity alone
  double fleet_read_qps = 0.0;        // + 2 followers, aggregate
  double follower_read_qps[2] = {0.0, 0.0};
  double read_scaling_2_followers = 0.0;
  uint64_t max_staleness = 0;           // worst served staleness, any sweep
  bool primary_view_identical = true;   // AND across sweeps
  bool follower_view_identical = true;  // AND across sweeps
};

ReadPathMeasurement MeasureReadPath(
    const BenchArgs& args, const std::vector<OperationBatch>& training,
    const std::vector<OperationBatch>& serving) {
  ReadPathMeasurement m;
  // At least 5 interleaved sweeps regardless of --repeats: the arms'
  // gap IS the measurement (a <= 2% bar) and a single sample per arm
  // on a shared box carries far more noise than the bar itself. Each
  // sweep runs its two arms back to back (alternating order, so
  // warmup and drift hit both sides equally) and contributes a PAIRED
  // regression; the reported regression is the minimum paired gap —
  // the sweep least polluted by outside load. Noise only ever adds
  // time, so a genuine reader cost shows up in every sweep and
  // survives the minimum; a one-sweep spike does not. Capacity
  // scaling keeps its best sweep for the same reason; the
  // byte-consistency flags and the staleness ceiling are taken
  // across ALL sweeps (one bad sweep must fail them).
  const int reps = std::max(5, args.repeats);
  for (int rep = 0; rep < reps; ++rep) {
    ReadArmResult first = RunReadArm(args, training, serving, rep % 2 == 1);
    ReadArmResult second = RunReadArm(args, training, serving, rep % 2 == 0);
    ReadArmResult& base = rep % 2 == 1 ? second : first;
    ReadArmResult& reads = rep % 2 == 1 ? first : second;
    const double pct =
        base.ingest_records_per_sec > 0.0
            ? 100.0 * (base.ingest_records_per_sec -
                       reads.ingest_records_per_sec) /
                  base.ingest_records_per_sec
            : 0.0;
    if (rep == 0 || pct < m.ingest_regression_pct) {
      m.ingest_regression_pct = pct;
      m.baseline = base;
      m.with_reads = reads;
    }
    const double fleet =
        reads.primary_qps + reads.follower_qps[0] + reads.follower_qps[1];
    const double scaling =
        reads.primary_qps > 0.0 ? fleet / reads.primary_qps : 0.0;
    if (rep == 0 || scaling > m.read_scaling_2_followers) {
      m.read_scaling_2_followers = scaling;
      m.single_node_read_qps = reads.primary_qps;
      m.fleet_read_qps = fleet;
      m.follower_read_qps[0] = reads.follower_qps[0];
      m.follower_read_qps[1] = reads.follower_qps[1];
    }
    m.max_staleness = std::max(m.max_staleness, reads.max_staleness);
    m.primary_view_identical =
        m.primary_view_identical && reads.primary_view_identical;
    m.follower_view_identical =
        m.follower_view_identical && reads.follower_view_identical;
  }
  // Negative regression is drift in the readers' favor.
  m.ingest_within_2pct = m.ingest_regression_pct <= 2.0;
  return m;
}

/// The adversarial hot set: `count` groups whose hash placement all
/// collides on shard 0 at `num_shards` — the worst case static routing
/// can be dealt, and the case the rebalancer exists for.
std::vector<int> CollidingHotGroups(int count, uint32_t num_shards) {
  std::vector<int> hot;
  for (int g = 0; static_cast<int>(hot.size()) < count; ++g) {
    Record probe = GroupAdd(g).record;
    if (HashShardRouter::HashKey(StableShardKey(probe)) % num_shards == 0) {
      hot.push_back(g);
    }
  }
  return hot;
}

/// Skewed serving snapshot: a flash crowd over the *whole* colliding
/// hot set, every round. Under static placement one shard re-clusters
/// all of it serially — the straggler that bounds every fork-join
/// round; after rebalancing the same work fans out across shards.
OperationBatch SkewedRound(const BenchArgs& args,
                           const std::vector<int>& hot) {
  OperationBatch ops;
  for (int i = 0; i < args.per_round; ++i) {
    for (int g : hot) ops.push_back(GroupAdd(g));
  }
  return ops;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() { return i + 1 < argc ? std::atoi(argv[++i]) : 0; };
    if (std::strcmp(argv[i], "--groups") == 0) args.groups = next();
    else if (std::strcmp(argv[i], "--active") == 0) args.active = next();
    else if (std::strcmp(argv[i], "--per-round") == 0) args.per_round = next();
    else if (std::strcmp(argv[i], "--rounds") == 0) args.rounds = next();
    else if (std::strcmp(argv[i], "--repeats") == 0) args.repeats = next();
    else if (std::strcmp(argv[i], "--threads") == 0)
      args.threads = static_cast<uint32_t>(next());
    else if (std::strcmp(argv[i], "--queue-depth") == 0)
      args.queue_depth = static_cast<size_t>(next());
    else if (std::strcmp(argv[i], "--skewed") == 0)
      args.skewed = next() != 0;
    else if (std::strcmp(argv[i], "--hot") == 0)
      args.hot = next();
    else if (std::strcmp(argv[i], "--rebalance-every") == 0)
      args.rebalance_every = static_cast<uint32_t>(next());
    else if (std::strcmp(argv[i], "--replication") == 0)
      args.replication = next() != 0;
    else if (std::strcmp(argv[i], "--catchup-every") == 0)
      args.catchup_every = next();
    else if (std::strcmp(argv[i], "--metrics-overhead") == 0)
      args.metrics_overhead = next() != 0;
    else if (std::strcmp(argv[i], "--read-path") == 0)
      args.read_path = next() != 0;
    else if (std::strcmp(argv[i], "--read-clients") == 0)
      args.read_clients = next();
    else if (std::strcmp(argv[i], "--read-staleness-bound") == 0)
      args.read_staleness_bound = next();
    else if (std::strcmp(argv[i], "--mode") == 0)
      args.mode = i + 1 < argc ? argv[++i] : "";
    else if (std::strcmp(argv[i], "--backpressure") == 0)
      args.backpressure = i + 1 < argc ? argv[++i] : "";
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (args.mode != "sync" && args.mode != "async" && args.mode != "both") {
    std::fprintf(stderr, "--mode must be sync, async or both\n");
    return 2;
  }
  if (args.backpressure != "block" && args.backpressure != "reject") {
    std::fprintf(stderr, "--backpressure must be block or reject\n");
    return 2;
  }

  // Banner on stderr: stdout carries exactly one JSON document so the
  // output pipes straight into jq / plotting scripts.
  std::fprintf(stderr, "service scaling — sharded throughput vs shard count\n");

  // Identical batches for every shard count.
  std::vector<OperationBatch> training = {GroupAdds(args.groups, 4),
                                          GroupAdds(args.groups, 2)};
  std::vector<OperationBatch> serving;
  for (int r = 0; r < args.rounds; ++r) {
    serving.push_back(HotRound(args, r));
  }

  // Each configuration keeps its best sweep: the minimum serve time is
  // the standard noise-robust estimator (scheduler interference and cold
  // page faults only ever add time), and the first sweep additionally
  // warms the allocator for the rest.
  std::vector<const char*> modes;
  if (args.mode == "sync" || args.mode == "both") modes.push_back("sync");
  if (args.mode == "async" || args.mode == "both") modes.push_back("async");
  std::vector<Measurement> results;
  for (int rep = 0; rep < std::max(1, args.repeats); ++rep) {
    size_t i = 0;
    for (const char* mode : modes) {
      for (uint32_t shards : {1u, 2u, 4u, 8u}) {
        Measurement m = std::strcmp(mode, "async") == 0
                            ? RunOneAsync(shards, args, training, serving)
                            : RunOne(shards, args, training, serving);
        std::fprintf(stderr,
                     "rep=%d mode=%s shards=%u threads=%zu  %.0f records/sec"
                     " (enqueue p95 %.0f us)\n",
                     rep, m.mode, m.shards, m.threads, m.records_per_sec,
                     m.enqueue_p95_us);
        if (rep == 0) {
          results.push_back(m);
        } else if (m.serve_ms < results[i].serve_ms) {
          results[i] = m;
        }
        ++i;
      }
    }
  }

  // Skewed section: static placement vs rebalanced, 4 shards, identical
  // adversarial stream. The training phase loads a *balanced* background
  // universe (every shard trained — the steady state of a long-running
  // service); then the workload drifts: all serving traffic concentrates
  // on hot groups whose hash placement collides on shard 0.
  Measurement skewed_static, skewed_rebalanced;
  if (args.skewed) {
    const int kBackground = 64;
    std::vector<int> hot = CollidingHotGroups(std::max(2, args.hot), 4);
    std::vector<OperationBatch> skew_training = {GroupAdds(kBackground, 4),
                                                 GroupAdds(kBackground, 2)};
    std::vector<OperationBatch> skew_serving;
    for (int r = 0; r < args.rounds; ++r) {
      skew_serving.push_back(SkewedRound(args, hot));
    }
    for (int rep = 0; rep < std::max(1, args.repeats); ++rep) {
      Measurement st = RunOneSkewed(args, skew_training, skew_serving, 0);
      Measurement rb = RunOneSkewed(args, skew_training, skew_serving,
                                    args.rebalance_every);
      if (rep == 0 || st.serve_ms < skewed_static.serve_ms) {
        skewed_static = st;
      }
      if (rep == 0 || rb.serve_ms < skewed_rebalanced.serve_ms) {
        skewed_rebalanced = rb;
      }
      std::fprintf(stderr,
                   "rep=%d skewed static %.0f rec/s (imb %.2f) vs "
                   "rebalanced %.0f rec/s (imb %.2f, %llu migrations)\n",
                   rep, st.records_per_sec, st.record_imbalance,
                   rb.records_per_sec, rb.record_imbalance,
                   static_cast<unsigned long long>(rb.migrations));
    }
  }

  // Replication section: delta-emit overhead + follower catch-up lag on
  // the plain (unskewed) serving stream.
  ReplicationMeasurement replication;
  if (args.replication) {
    replication = RunReplicated(args, training, serving);
    std::fprintf(stderr,
                 "replication: %.0f rec/s off vs %.0f rec/s on "
                 "(%llu deltas, seal total %.1f ms, max lag %llu epochs, "
                 "catch-up total %.1f ms, identical=%d)\n",
                 replication.off_records_per_sec,
                 replication.on_records_per_sec,
                 static_cast<unsigned long long>(replication.deltas_shipped),
                 replication.seal_ms_total,
                 static_cast<unsigned long long>(replication.max_lag),
                 replication.catchup_ms_total, replication.identical ? 1 : 0);
  }

  // Metrics-overhead guard: registry attached vs compiled-in-but-idle
  // on the plain 4-shard async stream.
  MetricsOverhead overhead;
  if (args.metrics_overhead) {
    overhead = MeasureMetricsOverhead(args, training);
    std::fprintf(stderr,
                 "metrics overhead: idle %.1f vs enabled %.1f CPU ms "
                 "(%d passes per arm, best of %d pairs: %+.2f%%, within 2%% "
                 "bar: %s)\n",
                 overhead.idle_ms, overhead.enabled_ms, overhead.passes,
                 overhead.pairs, overhead.overhead_pct,
                 overhead.within_2pct ? "yes" : "no");
  }

  // Read-path section: epoch-pinned reads on primary + 2 followers —
  // ingest regression under a fixed-rate router load, and aggregate
  // read capacity vs the primary alone.
  ReadPathMeasurement read_path;
  if (args.read_path) {
    read_path = MeasureReadPath(args, training, serving);
    std::fprintf(
        stderr,
        "read path: ingest %.0f rec/s bare vs %.0f rec/s under reads "
        "(%+.2f%%); capacity %.0f q/s primary vs %.0f q/s fleet "
        "(%.2fx); %llu routed queries, max staleness %llu (bound %d)\n",
        read_path.baseline.ingest_records_per_sec,
        read_path.with_reads.ingest_records_per_sec,
        read_path.ingest_regression_pct, read_path.single_node_read_qps,
        read_path.fleet_read_qps, read_path.read_scaling_2_followers,
        static_cast<unsigned long long>(read_path.with_reads.router_queries),
        static_cast<unsigned long long>(read_path.max_staleness),
        args.read_staleness_bound);
  }

  auto rate_of = [&results](const char* mode, uint32_t shards) {
    for (const Measurement& m : results) {
      if (std::strcmp(m.mode, mode) == 0 && m.shards == shards) {
        return m.records_per_sec;
      }
    }
    return 0.0;
  };

  bench::JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("sharded_throughput");
  json.Key("workload").BeginObject();
  json.Key("groups").Value(args.groups);
  json.Key("active_per_round").Value(args.active);
  json.Key("per_round").Value(args.per_round);
  json.Key("rounds").Value(args.rounds);
  json.Key("queue_depth").Value(args.queue_depth);
  json.Key("backpressure").Value(args.backpressure);
  json.EndObject();
  json.Key("results").BeginArray();
  for (const Measurement& m : results) {
    double base = rate_of(m.mode, 1);
    json.BeginObject();
    json.Key("mode").Value(m.mode);
    json.Key("shards").Value(static_cast<size_t>(m.shards));
    json.Key("threads").Value(m.threads);
    json.Key("records_served").Value(m.records_served);
    json.Key("serve_ms").Value(m.serve_ms);
    json.Key("records_per_sec").Value(m.records_per_sec);
    json.Key("speedup_vs_1").Value(base > 0.0 ? m.records_per_sec / base
                                              : 0.0);
    json.Key("final_objects").Value(m.final_objects);
    json.Key("final_clusters").Value(m.final_clusters);
    json.Key("apply_wall_ms").Value(m.apply_wall_ms);
    json.Key("round_wall_ms").Value(m.round_wall_ms);
    json.Key("recluster_ms").Value(m.recluster_ms);
    json.Key("retrain_ms").Value(m.retrain_ms);
    json.Key("rejected").Value(m.rejected);
    json.Key("probability_evaluations").Value(m.probability_evaluations);
    json.Key("cost_imbalance").Value(m.cost_imbalance);
    json.Key("record_imbalance").Value(m.record_imbalance);
    json.Key("shard_records").BeginArray();
    for (size_t records : m.shard_records) json.Value(records);
    json.EndArray();
    if (std::strcmp(m.mode, "async") == 0) {
      json.Key("enqueue_p50_us").Value(m.enqueue_p50_us);
      json.Key("enqueue_p95_us").Value(m.enqueue_p95_us);
      json.Key("flush_ms").Value(m.flush_ms);
      json.Key("coalesced_ops").Value(static_cast<size_t>(m.coalesced_ops));
      json.Key("worker_rounds").Value(static_cast<size_t>(m.worker_rounds));
      json.Key("rejected_batches")
          .Value(static_cast<size_t>(m.rejected_batches));
      json.Key("queue_high_water").Value(m.queue_high_water);
      // Epoch flush (prefix barrier) next to the old full barrier, plus
      // the backlog the prefix barrier left queued — the point of the
      // feature is exactly this gap.
      json.Key("epoch_flush_ms").Value(m.epoch_flush_ms);
      json.Key("epoch_flush_pending_ops")
          .Value(static_cast<size_t>(m.epoch_flush_pending));
      json.Key("full_flush_ms").Value(m.full_flush_ms);
      json.Key("snapshot_save_ms").Value(m.snapshot_save_ms);
      json.Key("snapshot_load_ms").Value(m.snapshot_load_ms);
      json.Key("snapshot_identical").Value(m.snapshot_identical ? 1 : 0);
    }
    json.EndObject();
  }
  json.EndArray();
  double sync_base = rate_of("sync", 1);
  double sync_at4 = rate_of("sync", 4);
  double async_base = rate_of("async", 1);
  double async_at4 = rate_of("async", 4);
  json.Key("speedup_4_shards_vs_1")
      .Value(sync_base > 0.0 ? sync_at4 / sync_base : 0.0);
  json.Key("async_speedup_4_shards_vs_1")
      .Value(async_base > 0.0 ? async_at4 / async_base : 0.0);
  json.Key("async_vs_sync_at_4")
      .Value(sync_at4 > 0.0 ? async_at4 / sync_at4 : 0.0);
  if (args.skewed) {
    auto write_skewed = [&json](const char* key, const Measurement& m) {
      json.Key(key).BeginObject();
      json.Key("records_per_sec").Value(m.records_per_sec);
      json.Key("serve_ms").Value(m.serve_ms);
      json.Key("apply_wall_ms").Value(m.apply_wall_ms);
      json.Key("round_wall_ms").Value(m.round_wall_ms);
      json.Key("recluster_ms").Value(m.recluster_ms);
      json.Key("records_served").Value(m.records_served);
      json.Key("final_clusters").Value(m.final_clusters);
      json.Key("cost_imbalance").Value(m.cost_imbalance);
      json.Key("record_imbalance").Value(m.record_imbalance);
      json.Key("shard_records").BeginArray();
      for (size_t records : m.shard_records) json.Value(records);
      json.EndArray();
      json.Key("migrations").Value(static_cast<size_t>(m.migrations));
      json.Key("placement_version")
          .Value(static_cast<size_t>(m.placement_version));
      json.EndObject();
    };
    json.Key("skewed").BeginObject();
    json.Key("hot_groups").Value(std::max(2, args.hot));
    json.Key("rebalance_every").Value(static_cast<size_t>(
        args.rebalance_every));
    write_skewed("static", skewed_static);
    write_skewed("rebalanced", skewed_rebalanced);
    json.Key("rebalance_vs_static_at_4")
        .Value(skewed_static.records_per_sec > 0.0
                   ? skewed_rebalanced.records_per_sec /
                         skewed_static.records_per_sec
                   : 0.0);
    json.EndObject();
  }
  if (args.replication) {
    json.Key("replication").BeginObject();
    json.Key("off_records_per_sec").Value(replication.off_records_per_sec);
    json.Key("on_records_per_sec").Value(replication.on_records_per_sec);
    // > 1.0 means shipping cost; the gap is the delta-emit overhead.
    json.Key("emit_overhead_ratio")
        .Value(replication.on_records_per_sec > 0.0
                   ? replication.off_records_per_sec /
                         replication.on_records_per_sec
                   : 0.0);
    json.Key("seal_ms_total").Value(replication.seal_ms_total);
    // The session's attribution of that wall time (service bookkeeping
    // vs delta serialization + write) and the wire bytes shipped.
    json.Key("seal_service_ms_total")
        .Value(replication.seal_service_ms_total);
    json.Key("delta_ship_ms_total").Value(replication.delta_ship_ms_total);
    json.Key("delta_bytes_total")
        .Value(static_cast<size_t>(replication.delta_bytes_total));
    json.Key("deltas_shipped")
        .Value(static_cast<size_t>(replication.deltas_shipped));
    json.Key("pending_at_seals")
        .Value(static_cast<size_t>(replication.pending_at_seals));
    json.Key("catchup_every").Value(static_cast<size_t>(
        std::max(1, args.catchup_every)));
    json.Key("lag_epochs").BeginArray();
    for (uint64_t lag : replication.lag_epochs) {
      json.Value(static_cast<size_t>(lag));
    }
    json.EndArray();
    json.Key("max_lag_epochs")
        .Value(static_cast<size_t>(replication.max_lag));
    json.Key("catchup_ms_total").Value(replication.catchup_ms_total);
    json.Key("follower_epoch")
        .Value(static_cast<size_t>(replication.follower_epoch));
    // Staleness gauges from the follower's own registry at the end of
    // the run (0 behind after the final catch-up; the replay-lag gauge
    // keeps the cost of that last CatchUp pass).
    json.Key("follower_epochs_behind")
        .Value(replication.follower_epochs_behind);
    json.Key("follower_replay_lag_ms")
        .Value(replication.follower_replay_lag_ms);
    json.Key("follower_identical").Value(replication.identical ? 1 : 0);
    json.EndObject();
  }
  if (args.read_path) {
    json.Key("read_path").BeginObject();
    json.Key("read_clients").Value(std::max(1, args.read_clients));
    json.Key("staleness_bound")
        .Value(static_cast<size_t>(std::max(0, args.read_staleness_bound)));
    json.Key("ingest_baseline_records_per_sec")
        .Value(read_path.baseline.ingest_records_per_sec);
    json.Key("ingest_with_reads_records_per_sec")
        .Value(read_path.with_reads.ingest_records_per_sec);
    json.Key("ingest_regression_pct").Value(read_path.ingest_regression_pct);
    json.Key("ingest_within_2pct")
        .Value(read_path.ingest_within_2pct ? 1 : 0);
    // Aggregate capacity: per-target saturated q/s, measured one target
    // at a time mid-stream (each follower is its own machine in
    // deployment, so capacities add).
    json.Key("primary_read_qps").Value(read_path.single_node_read_qps);
    json.Key("follower_read_qps").BeginArray();
    json.Value(read_path.follower_read_qps[0]);
    json.Value(read_path.follower_read_qps[1]);
    json.EndArray();
    json.Key("single_node_read_qps").Value(read_path.single_node_read_qps);
    json.Key("fleet_read_qps").Value(read_path.fleet_read_qps);
    json.Key("read_scaling_2_followers")
        .Value(read_path.read_scaling_2_followers);
    // Fixed-rate router load: admission accounting and the staleness
    // ceiling actually observed under the bound.
    json.Key("router_queries")
        .Value(static_cast<size_t>(read_path.with_reads.router_queries));
    json.Key("queries_served")
        .Value(static_cast<size_t>(read_path.with_reads.queries_served));
    json.Key("rejected_stale")
        .Value(static_cast<size_t>(read_path.with_reads.rejected_stale));
    json.Key("max_staleness_epochs")
        .Value(static_cast<size_t>(read_path.max_staleness));
    json.Key("staleness_gauge").Value(read_path.with_reads.staleness_gauge);
    json.Key("staleness_within_bound")
        .Value(read_path.max_staleness <=
                       static_cast<uint64_t>(
                           std::max(0, args.read_staleness_bound))
                   ? 1
                   : 0);
    json.Key("primary_view_identical")
        .Value(read_path.primary_view_identical ? 1 : 0);
    json.Key("follower_view_identical")
        .Value(read_path.follower_view_identical ? 1 : 0);
    json.EndObject();
  }
  if (args.metrics_overhead) {
    json.Key("metrics_overhead").BeginObject();
    json.Key("idle_ms").Value(overhead.idle_ms);
    json.Key("enabled_ms").Value(overhead.enabled_ms);
    json.Key("passes").Value(overhead.passes);
    json.Key("pairs").Value(overhead.pairs);
    json.Key("metrics_overhead_pct").Value(overhead.overhead_pct);
    json.Key("within_2pct").Value(overhead.within_2pct ? 1 : 0);
    json.EndObject();
  }
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}
