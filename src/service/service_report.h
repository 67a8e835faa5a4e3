#ifndef DYNAMICC_SERVICE_SERVICE_REPORT_H_
#define DYNAMICC_SERVICE_SERVICE_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/dynamicc.h"
#include "core/session.h"

namespace dynamicc {

/// One shard's contribution to a service-level round. `round_ms` is the
/// shard's own wall time inside the round (its position on the critical
/// path); the nested session report breaks it down further.
struct ShardTrainStats {
  uint32_t shard = 0;
  size_t objects = 0;
  size_t clusters = 0;
  double round_ms = 0.0;
  /// False when the shard was empty and skipped the training round.
  bool participated = false;
  DynamicCSession::TrainReport report;
};

struct ShardDynamicStats {
  uint32_t shard = 0;
  size_t objects = 0;
  size_t clusters = 0;
  double round_ms = 0.0;
  /// False when the shard sat the round out (empty, or not yet trained
  /// because its slice produced no evolution steps).
  bool participated = false;
  DynamicCSession::DynamicReport report;
};

/// Accumulates `addend`'s counters into `total` (shard reports sum into
/// the service-level view).
inline void AccumulateRecluster(ReclusterReport* total,
                                const ReclusterReport& addend) {
  total->iterations += addend.iterations;
  total->merges_applied += addend.merges_applied;
  total->splits_applied += addend.splits_applied;
  total->merge_predicted += addend.merge_predicted;
  total->split_predicted += addend.split_predicted;
  total->rejected += addend.rejected;
  total->probability_evaluations += addend.probability_evaluations;
}

/// Max/mean ratio over `values`: 1.0 when balanced, N when everything
/// sits on one entry of N, 0.0 when nothing is loaded. The mean counts
/// zero entries — an idle shard *is* imbalance — so callers pass one
/// entry per shard they consider eligible (all shards for record skew,
/// participants only for round cost).
inline double MaxMeanRatio(const std::vector<double>& values) {
  double max = 0.0, sum = 0.0;
  for (double v : values) {
    if (v > max) max = v;
    if (v > 0.0) sum += v;
  }
  if (values.empty() || sum <= 0.0) return 0.0;
  return max * static_cast<double>(values.size()) / sum;
}

/// Cumulative counters of the async ingestion pipeline (bounded
/// per-shard queues + background round workers). All counters are
/// totals since service construction; in synchronous mode only
/// `accepted_ops` advances.
struct IngestStats {
  /// Operations admitted to the service (enqueued or applied inline).
  uint64_t accepted_ops = 0;
  /// Whole batches turned away by the kReject backpressure policy, and
  /// the operations they carried. A rejected batch consumes no ids.
  uint64_t rejected_batches = 0;
  uint64_t rejected_ops = 0;
  /// Operations absorbed by per-key coalescing in the queues (add+update
  /// folds, add+remove annihilations) — work never paid for.
  uint64_t coalesced_ops = 0;
  /// Queued operations not yet reflected in any shard engine.
  uint64_t pending_ops = 0;
  /// Operations applied into shard engines (surviving operations only —
  /// coalesced-away work never counts).
  uint64_t applied_ops = 0;
  /// Flush-epoch watermarks: the epoch currently open for admissions,
  /// and the highest closed epoch every shard has fully applied (0 until
  /// the first CloseEpoch).
  uint64_t open_epoch = 0;
  uint64_t applied_epoch = 0;
  /// Drained batches applied by background workers, and the dynamic
  /// rounds those workers ran.
  uint64_t applied_batches = 0;
  uint64_t worker_rounds = 0;
  /// Producer wait episodes under the kBlock policy (a full queue made
  /// an Ingest call sleep at least once).
  uint64_t producer_waits = 0;
  /// Largest pending-operation depth any single shard queue reached.
  size_t queue_high_water = 0;
  /// Summed background-worker time: applying drained batches vs running
  /// dynamic rounds (the overlap the pipeline buys).
  double worker_apply_ms = 0.0;
  double worker_round_ms = 0.0;
  /// Adaptive drain sizing (AsyncOptions::adaptive_batch, AIMD): bite
  /// growth/shrink episodes across all shards, and the smallest/largest
  /// per-shard bite currently in effect (0/0 while disabled or before
  /// any worker adapted). Divergent min/max is the feature working:
  /// bursty shards grew their bite while latency-bound ones shrank.
  uint64_t batch_grows = 0;
  uint64_t batch_shrinks = 0;
  size_t adaptive_batch_min = 0;
  size_t adaptive_batch_max = 0;
};

/// Service-level view of one round executed across all shards. Wall time
/// is what a caller waits (shards run concurrently); total shard time is
/// what the machine pays; max shard time exposes the straggler that
/// bounds scaling.
struct ServiceReport {
  double wall_ms = 0.0;
  double total_shard_ms = 0.0;
  double max_shard_ms = 0.0;
  size_t total_objects = 0;
  size_t total_clusters = 0;

  /// Imbalance, as max/mean ratios (1.0 = perfectly balanced, 0.0 = not
  /// computable). `cost_imbalance` compares round wall time across the
  /// shards that participated in this round — the straggler factor that
  /// bounds fork-join scaling and that the Rebalancer's hysteresis
  /// threshold is compared against. `record_imbalance` compares alive
  /// record counts across ALL shards (an idle shard counts toward the
  /// mean — it *is* the skew: everything on 1 shard of N reads N.0) —
  /// meaningful even in rounds nobody served, and in snapshots.
  double cost_imbalance = 0.0;
  double record_imbalance = 0.0;

  /// Placement state at the time the report was built: the version of
  /// the routing table (one bump per placement decision) and the
  /// cumulative number of group migrations that actually moved data.
  uint64_t placement_version = 0;
  uint64_t groups_migrated = 0;

  /// For reports produced by an epoch-tagged Flush(epoch): the epoch the
  /// barrier waited for (0 for full barriers and plain rounds).
  uint64_t flush_epoch = 0;

  /// Summed DynamicC counters across shards (dynamic rounds only).
  ReclusterReport combined;
  /// Summed evolution-step count across shards (training rounds only).
  size_t evolution_steps = 0;

  /// Cumulative ingestion-pipeline counters at the time the report was
  /// built (filled by barrier calls and snapshots).
  IngestStats ingest;

  /// Exactly one of these is non-empty, matching the round kind.
  std::vector<ShardTrainStats> train_shards;
  std::vector<ShardDynamicStats> dynamic_shards;
};

/// A consistent cut of the service: every shard is observed at a round
/// boundary (no shard mid-apply or mid-recluster), so the partition is
/// one the equivalent single-engine run could have produced. `sequence`
/// says how far into the operation stream the cut is — after a Flush()
/// with no concurrent ingestion it equals the total accepted operation
/// count, i.e. the cut reflects everything.
struct ServiceSnapshot {
  /// Operations whose effect is reflected in `clusters` (accepted minus
  /// still-queued).
  uint64_t sequence = 0;
  size_t total_objects = 0;
  size_t total_clusters = 0;
  /// Current partition in global ids, canonical form.
  std::vector<std::vector<ObjectId>> clusters;
  /// Per-shard sizes plus cumulative ingest + recluster counters at the
  /// cut (dynamic_shards carries one entry per shard; participated is
  /// always false — a snapshot runs no rounds).
  ServiceReport report;
};

}  // namespace dynamicc

#endif  // DYNAMICC_SERVICE_SERVICE_REPORT_H_
