#include "service/sharded_service.h"

#include <algorithm>
#include <thread>
#include <unordered_set>
#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace dynamicc {

namespace {

size_t DefaultThreadCount(uint32_t num_shards) {
  unsigned hardware = std::thread::hardware_concurrency();
  if (hardware == 0) hardware = 1;
  return std::min<size_t>(num_shards, hardware);
}

}  // namespace

ShardedDynamicCService::ShardedDynamicCService(
    Options options, std::unique_ptr<ShardRouter> router,
    ShardEnvironmentFactory factory)
    : options_(options),
      router_(router ? std::move(router)
                     : std::make_unique<HashShardRouter>()),
      pool_(options.num_threads > 0 ? options.num_threads
                                    : DefaultThreadCount(options.num_shards)) {
  DYNAMICC_CHECK_GT(options_.num_shards, 0u);
  DYNAMICC_CHECK(factory != nullptr);
  // Reject the invalid combination up front: the auto-rebalance cadence
  // needs per-group loads, which only exist under content-addressed
  // routing — failing here beats CHECK-aborting mid-serving at the
  // K-th barrier.
  DYNAMICC_CHECK(options_.rebalance.every_rounds == 0 ||
                 router_->ContentAddressed())
      << "automatic rebalancing requires a content-addressed router ("
      << router_->Name() << " scatters groups across shards)";
  shards_.reserve(options_.num_shards);
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->env = factory();
    DYNAMICC_CHECK(shard->env.measure != nullptr);
    DYNAMICC_CHECK(shard->env.blocker != nullptr);
    DYNAMICC_CHECK(shard->env.batch != nullptr);
    DYNAMICC_CHECK(shard->env.merge_model != nullptr);
    DYNAMICC_CHECK(shard->env.split_model != nullptr);
    shard->graph = std::make_unique<SimilarityGraph>(
        &shard->dataset, shard->env.measure.get(),
        std::move(shard->env.blocker), shard->env.min_similarity,
        options_.obs.metrics);
    // Validator-only environments (DBSCAN) build their validator against
    // the shard's graph, which only exists now.
    if (shard->env.validator == nullptr && shard->env.validator_factory) {
      shard->env.validator = shard->env.validator_factory(shard->graph.get());
    }
    DYNAMICC_CHECK(shard->env.validator != nullptr)
        << "environment provides neither a validator nor a validator "
           "factory";
    shard->session = std::make_unique<DynamicCSession>(
        &shard->dataset, shard->graph.get(), shard->env.batch.get(),
        shard->env.validator.get(), std::move(shard->env.merge_model),
        std::move(shard->env.split_model), options_.session);
    shards_.push_back(std::move(shard));
  }

  // Metric handles resolve once, here; the hot paths only ever test
  // `metrics_` and poke pre-resolved atomics. Names are catalogued in
  // docs/metrics.md — keep the two in sync.
  tracer_ = options_.obs.tracer;
  if (options_.obs.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.obs.metrics;
    metrics_ = std::make_unique<ServiceMetrics>();
    metrics_->admit_ms = reg.GetHistogram("ingest.admit_ms");
    metrics_->queue_wait_ms = reg.GetHistogram("queue.wait_ms");
    metrics_->drain_batch_ops = reg.GetHistogram("drain.batch_ops");
    metrics_->drain_apply_ms = reg.GetHistogram("drain.apply_ms");
    metrics_->worker_round_ms = reg.GetHistogram("worker.round_ms");
    metrics_->barrier_ms = reg.GetHistogram("barrier.round_ms");
    metrics_->epoch_seal_ms = reg.GetHistogram("epoch.seal_ms");
    metrics_->migration_ms = reg.GetHistogram("migration.ms");
    metrics_->read_publish_ms = reg.GetHistogram("read.publish_ms");
    metrics_->snapshot_save_ms = reg.GetHistogram("snapshot.save_ms");
    metrics_->snapshot_load_ms = reg.GetHistogram("snapshot.load_ms");
    metrics_->epochs_sealed = reg.GetCounter("epoch.sealed");
    metrics_->migration_ops_rehomed = reg.GetCounter("migration.ops_rehomed");
    metrics_->rebalance_passes = reg.GetCounter("placement.rebalance_passes");
    metrics_->snapshot_save_bytes = reg.GetCounter("snapshot.save_bytes");
    metrics_->snapshot_load_bytes = reg.GetCounter("snapshot.load_bytes");
    metrics_->accepted_ops = reg.GetGauge("ingest.accepted_ops");
    metrics_->rejected_batches = reg.GetGauge("ingest.rejected_batches");
    metrics_->rejected_ops = reg.GetGauge("ingest.rejected_ops");
    metrics_->coalesced_ops = reg.GetGauge("ingest.coalesced_ops");
    metrics_->pending_ops = reg.GetGauge("ingest.pending_ops");
    metrics_->applied_ops = reg.GetGauge("ingest.applied_ops");
    metrics_->open_epoch = reg.GetGauge("epoch.open");
    metrics_->applied_epoch = reg.GetGauge("epoch.applied");
    metrics_->applied_batches = reg.GetGauge("ingest.applied_batches");
    metrics_->worker_rounds = reg.GetGauge("worker.rounds");
    metrics_->producer_waits = reg.GetGauge("ingest.producer_waits");
    metrics_->queue_high_water = reg.GetGauge("queue.high_water");
    metrics_->record_imbalance = reg.GetGauge("placement.record_imbalance");
    metrics_->cost_imbalance = reg.GetGauge("placement.cost_imbalance");
    metrics_->placement_version = reg.GetGauge("placement.version");
    metrics_->groups_migrated = reg.GetGauge("placement.groups_migrated");
    metrics_->queue_depth.reserve(options_.num_shards);
    for (uint32_t s = 0; s < options_.num_shards; ++s) {
      metrics_->queue_depth.push_back(
          reg.GetGauge(obs::ShardLabel("queue.depth", s)));
    }
  }

  if (options_.read.serve) {
    read_views_ = std::make_unique<ReadViewRegistry>(options_.obs.metrics);
  }
}

ShardedDynamicCService::IngestResult ShardedDynamicCService::Ingest(
    const OperationBatch& operations) {
  return IngestInternal(operations, options_.async.backpressure);
}

std::vector<ObjectId> ShardedDynamicCService::ApplyOperations(
    const OperationBatch& operations) {
  IngestResult result =
      IngestInternal(operations, BackpressurePolicy::kBlock);
  return std::move(result.changed);
}

ShardedDynamicCService::IngestResult ShardedDynamicCService::IngestInternal(
    const OperationBatch& operations, BackpressurePolicy policy) {
  // Producers serialize here: global ids come out dense in admission
  // order, and a kReject capacity check stays atomic with its enqueue.
  std::lock_guard<std::mutex> ingest_lock(ingest_mutex_);
  // The admit span covers the whole producer-side call: routing, id
  // assignment, enqueue (including any backpressure stall, which also
  // gets its own queue.wait span). Its seq range is the assigned
  // global-id range when the batch carries adds.
  obs::ScopedSpan admit_span(tracer_, obs::kSpanIngestAdmit,
                             obs::kServiceShard,
                             open_epoch_.load(std::memory_order_relaxed));
  ScopedTimer admit_timer;
  admit_timer.Record(metrics_ ? metrics_->admit_ms : nullptr);
  const bool async = options_.async.enabled;
  const size_t depth = std::max<size_t>(1, options_.async.queue_depth);

  // The whole batch routes against one pinned placement version.
  // Migrations publish new versions under ingest_mutex_, so the pin is
  // also a proof: no batch ever straddles a placement swap.
  PlacementTable::View placement = placement_.Current();

  // Pass 1 — route every operation without touching state: adds by
  // placement override (falling back to the router for groups never
  // moved), removes/updates to the shard that owns the target. A
  // target may be an add from this very batch (its id is not assigned
  // until pass 2), so prospective ids resolve against the batch's own
  // adds.
  std::vector<uint32_t> shard_of(operations.size());
  std::vector<size_t> slice_size(shards_.size(), 0);
  std::vector<uint32_t> batch_add_shards;
  std::vector<uint64_t> batch_add_groups;
  {
    std::lock_guard<std::mutex> loc_lock(locations_mutex_);
    const size_t base = locations_.size();
    for (size_t i = 0; i < operations.size(); ++i) {
      const DataOperation& op = operations[i];
      uint32_t target;
      if (op.kind == DataOperation::Kind::kAdd) {
        uint64_t group = router_->GroupKey(op.record);
        const uint32_t* pinned = placement->Find(group);
        target = pinned ? *pinned : router_->Route(op.record, num_shards());
        batch_add_shards.push_back(target);
        batch_add_groups.push_back(group);
      } else if (op.target < base) {
        target = locations_.at(op.target).shard;
      } else {
        // Intra-batch reference: the target is this batch's add number
        // (op.target - base), which pass 2 will admit under exactly
        // that id.
        target = batch_add_shards.at(op.target - base);
      }
      shard_of[i] = target;
      slice_size[target] += 1;
    }
  }

  // kReject decides before any id is assigned, so a turned-away batch
  // leaves no trace. The depth bounds *backlog*, not batch size: a
  // shard with an empty queue admits any slice (transiently exceeding
  // the depth), so an oversized batch always makes progress on retry
  // instead of being rejected forever. The check is conservative
  // otherwise: it charges the slice's full size even though coalescing
  // may shrink it on arrival.
  if (async && policy == BackpressurePolicy::kReject) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (slice_size[s] == 0) continue;
      std::lock_guard<std::mutex> lock(shards_[s]->queue_mutex);
      size_t pending = shards_[s]->log.pending();
      if (pending > 0 && pending + slice_size[s] > depth) {
        rejected_batches_.fetch_add(1);
        rejected_ops_.fetch_add(operations.size());
        return IngestResult{false, {}};
      }
    }
  }

  // Pass 2 — commit: assign global ids densely in admission order and
  // build the per-shard slices. Adds carry their assigned id in
  // `target` (the OperationLog coalescing handle; cleared again before
  // the slice reaches the session).
  IngestResult result;
  std::vector<OperationBatch> per_shard(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    per_shard[s].reserve(slice_size[s]);
  }
  // The replication feed journals the batch exactly as admitted: global
  // admission order, adds stamped with their assigned ids — replaying it
  // through a fresh service's own ingest boundary reassigns the same
  // ids. The copy is made outside the locks and stamped afterwards
  // (ids are dense from the pre-commit watermark, so the k-th add got
  // first_add_id + k); the sink takes ownership, so this is the only
  // copy the feed costs the ingest path.
  OperationBatch journal;
  if (observer_ != nullptr) journal = operations;
  ObjectId first_add_id = kInvalidObject;
  {
    std::lock_guard<std::mutex> loc_lock(locations_mutex_);
    first_add_id = static_cast<ObjectId>(locations_.size());
    size_t add_index = 0;
    for (size_t i = 0; i < operations.size(); ++i) {
      DataOperation routed = operations[i];
      if (routed.kind == DataOperation::Kind::kAdd) {
        ObjectId global = static_cast<ObjectId>(locations_.size());
        uint64_t group = batch_add_groups[add_index++];
        locations_.push_back(
            ObjectLocation{shard_of[i], kInvalidObject, group});
        group_members_[group].push_back(global);
        group_shard_[group] = shard_of[i];
        routed.target = global;
        result.changed.push_back(global);
      } else if (routed.kind == DataOperation::Kind::kUpdate) {
        result.changed.push_back(routed.target);
      }
      per_shard[shard_of[i]].push_back(std::move(routed));
    }
  }
  if (observer_ != nullptr && !journal.empty()) {
    ObjectId next_add_id = first_add_id;
    for (DataOperation& op : journal) {
      if (op.kind == DataOperation::Kind::kAdd) op.target = next_add_id++;
    }
    observer_->OnAdmitted(std::move(journal));
  }
  if (!batch_add_shards.empty()) {
    admit_span.set_range(first_add_id,
                         first_add_id + batch_add_shards.size());
  }

  if (!async) {
    // Shard slices are disjoint, so they apply concurrently. Only
    // shards with work are dispatched: waking a worker for an empty
    // slice costs more than the slice.
    std::vector<size_t> busy;
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (!per_shard[s].empty()) busy.push_back(s);
    }
    pool_.ParallelFor(busy.size(), [&](size_t i) {
      size_t s = busy[i];
      Shard& shard = *shards_[s];
      std::lock_guard<std::mutex> round_lock(shard.round_mutex);
      shard.dirty = true;
      ApplyBatchToShard(s, per_shard[s]);
      std::lock_guard<std::mutex> queue_lock(shard.queue_mutex);
      shard.accepted_ops += per_shard[s].size();
      shard.applied_ops += per_shard[s].size();
    });
    return result;
  }

  // Pass 3 — enqueue with backpressure and wake each shard's worker.
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (per_shard[s].empty()) continue;
    Shard& shard = *shards_[s];
    bool schedule = false;
    {
      std::unique_lock<std::mutex> lock(shard.queue_mutex);
      bool counted_wait = false;
      Timer wait_timer;  // read only when a backpressure stall happened
      for (DataOperation& op : per_shard[s]) {
        // Only kBlock meters the queue op-by-op; a kReject batch was
        // admitted as a whole above and must never stall the producer
        // (its slice may transiently exceed the depth).
        while (policy == BackpressurePolicy::kBlock &&
               shard.log.pending() >= depth) {
          // A worker must be in flight before we sleep, or nobody would
          // ever make room (a slice larger than the queue depth fills
          // it before this call returns).
          if (!shard.worker_busy) {
            shard.worker_busy = true;
            pool_.SubmitTo(s, [this, s] { WorkerDrain(s); });
            continue;
          }
          if (!counted_wait) {
            shard.producer_waits += 1;
            counted_wait = true;
            wait_timer.Reset();
          }
          shard.queue_not_full.wait(lock);
        }
        shard.log.Append(std::move(op));
        shard.accepted_ops += 1;
        shard.queue_high_water =
            std::max(shard.queue_high_water, shard.log.pending());
      }
      if (counted_wait) {
        // One wait episode per (batch, shard): from the first stall to
        // the slice being fully enqueued.
        const double wait_ms = wait_timer.ElapsedMillis();
        if (metrics_) metrics_->queue_wait_ms->Record(wait_ms);
        if (tracer_ != nullptr) {
          obs::TraceSpan span;
          span.name = obs::kSpanQueueWait;
          span.shard = static_cast<uint32_t>(s);
          span.epoch = open_epoch_.load(std::memory_order_relaxed);
          span.duration_ns = static_cast<uint64_t>(wait_ms * 1e6);
          span.start_ns = tracer_->NowNs() - span.duration_ns;
          tracer_->Record(span);
        }
      }
      if (metrics_) {
        metrics_->queue_depth[s]->Set(
            static_cast<double>(shard.log.pending()));
      }
      // Stamp the ambient trace context (set by a traced RPC handler)
      // on the queue so the drain worker can join the trace.
      if (tracer_ != nullptr) {
        const obs::TraceContext ctx = obs::CurrentTraceContext();
        if (ctx.active()) shard.queue_trace = ctx;
      }
      if (!shard.log.empty() && !shard.worker_busy) {
        shard.worker_busy = true;
        schedule = true;
      }
    }
    if (schedule) pool_.SubmitTo(s, [this, s] { WorkerDrain(s); });
  }
  return result;
}

std::vector<ObjectId> ShardedDynamicCService::ApplyBatchToShard(
    size_t shard_index, const OperationBatch& batch) {
  Shard& shard = *shards_[shard_index];
  size_t base = shard.dataset.total_count();
  OperationBatch local_ops;
  local_ops.reserve(batch.size());
  std::vector<ObjectId> expected;
  size_t adds = 0;
  {
    std::lock_guard<std::mutex> loc_lock(locations_mutex_);
    for (const DataOperation& op : batch) {
      DataOperation local = op;
      if (op.kind == DataOperation::Kind::kAdd) {
        ObjectId global = op.target;
        DYNAMICC_CHECK(global != kInvalidObject)
            << "add reached a shard without an admission-assigned id";
        ObjectId local_id = static_cast<ObjectId>(base + adds++);
        locations_[global].local = local_id;
        group_alive_[locations_[global].group] += 1;
        local.target = kInvalidObject;
        expected.push_back(local_id);
        DYNAMICC_CHECK_EQ(shard.global_of_local.size(), local_id);
        shard.global_of_local.push_back(global);
      } else {
        const ObjectLocation& loc = locations_.at(op.target);
        DYNAMICC_CHECK_EQ(loc.shard, static_cast<uint32_t>(shard_index));
        DYNAMICC_CHECK(loc.local != kInvalidObject)
            << "operation targets an object that never materialized";
        local.target = loc.local;
        if (op.kind == DataOperation::Kind::kUpdate) {
          expected.push_back(loc.local);
        } else {
          group_alive_[loc.group] -= 1;
        }
      }
      local_ops.push_back(std::move(local));
    }
  }
  std::vector<ObjectId> changed = shard.session->ApplyOperations(local_ops);
  DYNAMICC_CHECK(changed == expected)
      << "shard dataset assigned ids out of line with the service's "
         "admission-order pre-assignment";
  shard.state_version += 1;
  return changed;
}

void ShardedDynamicCService::WorkerDrain(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  // Several shards may share one pool worker; yielding after a few
  // batches round-robins them instead of letting a continuously-fed
  // shard starve its neighbours. On yield the shard stays marked busy
  // and the resubmitted task owns the remaining queue.
  constexpr int kBatchesBeforeYield = 4;
  for (int iteration = 0; iteration < kBatchesBeforeYield; ++iteration) {
    OperationLog::Drained drained;
    uint64_t span_seq_begin = 0;
    obs::TraceContext drain_trace;
    {
      std::lock_guard<std::mutex> lock(shard.queue_mutex);
      if (shard.paused) {
        // A migration is operating on this shard: park at the batch
        // boundary (no drained batch stays in flight); the migration
        // reschedules the worker once the surgery is done.
        AdvanceEpochsLocked(&shard);
        shard.worker_busy = false;
        shard.queue_drained.notify_all();
        return;
      }
      if (shard.log.empty()) {
        shard.log.Take(0);  // GC entries annihilated in place
        AdvanceEpochsLocked(&shard);
        shard.worker_busy = false;
        shard.queue_drained.notify_all();
        return;
      }
      size_t bite = 0;  // 0 = drain everything queued
      if (options_.async.adaptive_batch) {
        if (shard.adaptive_batch == 0) {
          shard.adaptive_batch = std::max<size_t>(1, options_.async.min_batch);
        }
        bite = shard.adaptive_batch;
      }
      if (tracer_ != nullptr) {
        span_seq_begin = shard.log.first_pending_sequence();
        // Take-and-clear with the batch: the drain span joins the trace
        // of the enqueue that fed this batch.
        drain_trace = shard.queue_trace;
        shard.queue_trace = obs::TraceContext{};
      }
      drained = shard.log.Take(bite);
      shard.queue_not_full.notify_all();
      if (metrics_) {
        metrics_->queue_depth[shard_index]->Set(
            static_cast<double>(shard.log.pending()));
      }
    }

    double apply_ms = 0.0;
    double round_ms = 0.0;
    bool rounded = false;
    DynamicCSession::DynamicReport round_report;
    const uint64_t drain_epoch = open_epoch_.load(std::memory_order_relaxed);
    if (metrics_) {
      metrics_->drain_batch_ops->Record(
          static_cast<double>(drained.ops.size()));
    }
    {
      std::lock_guard<std::mutex> round_lock(shard.round_mutex);
      std::vector<ObjectId> changed;
      {
        obs::ScopedSpan span(tracer_, obs::kSpanDrainApply,
                             static_cast<uint32_t>(shard_index), drain_epoch);
        span.set_range(span_seq_begin, drained.end_sequence);
        span.AdoptContext(drain_trace);
        ScopedTimer timer;
        timer.Set(&apply_ms)
            .Record(metrics_ ? metrics_->drain_apply_ms : nullptr);
        changed = ApplyBatchToShard(shard_index, drained.ops);
      }
      shard.dirty = true;
      // Rounds run in the background only once the whole service is
      // trained; until then application is deferred but rounds stay
      // with the explicit barriers, so training matches the
      // synchronous path exactly.
      if (serving_.load(std::memory_order_acquire) &&
          shard.session->is_trained()) {
        if (!shard.pending_changed.empty()) {
          changed.insert(changed.begin(), shard.pending_changed.begin(),
                         shard.pending_changed.end());
          shard.pending_changed.clear();
        }
        {
          obs::ScopedSpan span(tracer_, obs::kSpanWorkerRound,
                               static_cast<uint32_t>(shard_index),
                               drain_epoch);
          ScopedTimer timer;
          timer.Set(&round_ms)
              .Record(metrics_ ? metrics_->worker_round_ms : nullptr);
          round_report = shard.session->DynamicRound(changed);
        }
        shard.dirty = false;
        shard.state_version += 1;
        rounded = true;
      } else {
        shard.pending_changed.insert(shard.pending_changed.end(),
                                     changed.begin(), changed.end());
      }
    }
    {
      std::lock_guard<std::mutex> lock(shard.queue_mutex);
      shard.applied_batches += 1;
      shard.applied_ops += drained.ops.size();
      // The drained batch is applied: the reflected prefix advanced, and
      // with it possibly one or more epoch watermarks.
      AdvanceEpochsLocked(&shard);
      shard.worker_apply_ms += apply_ms;
      if (rounded) {
        shard.worker_rounds += 1;
        shard.worker_round_ms += round_ms;
        AccumulateRecluster(&shard.round_detail, round_report.detail);
      }
      if (options_.async.adaptive_batch && shard.adaptive_batch > 0) {
        AdaptiveBiteDecision next = NextAdaptiveBite(
            shard.adaptive_batch, apply_ms + round_ms, shard.log.pending(),
            options_.async);
        shard.adaptive_batch = next.bite;
        if (next.grew) shard.batch_grows += 1;
        if (next.shrank) shard.batch_shrinks += 1;
      }
    }
  }
  pool_.SubmitTo(shard_index, [this, shard_index] { WorkerDrain(shard_index); });
}

void ShardedDynamicCService::Drain() {
  if (!async()) return;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::unique_lock<std::mutex> lock(shard.queue_mutex);
    shard.queue_drained.wait(
        lock, [&shard] { return shard.log.empty() && !shard.worker_busy; });
  }
}

std::vector<std::vector<ObjectId>> ShardedDynamicCService::LocalizeChanged(
    const std::vector<ObjectId>& changed) const {
  std::vector<std::vector<ObjectId>> local(shards_.size());
  std::lock_guard<std::mutex> loc_lock(locations_mutex_);
  for (ObjectId global : changed) {
    const ObjectLocation& loc = locations_.at(global);
    // Skip ids that never materialized (adds annihilated in the queue).
    if (loc.local == kInvalidObject) continue;
    local[loc.shard].push_back(loc.local);
  }
  return local;
}

std::vector<std::vector<ObjectId>>
ShardedDynamicCService::TakePendingChanged() {
  std::vector<std::vector<ObjectId>> hints(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> round_lock(shards_[s]->round_mutex);
    hints[s] = std::move(shards_[s]->pending_changed);
    shards_[s]->pending_changed.clear();
  }
  return hints;
}

std::vector<ObjectId> ShardedDynamicCService::GlobalizeHints(
    const std::vector<std::vector<ObjectId>>& local_hints) const {
  std::vector<ObjectId> global;
  for (size_t s = 0; s < shards_.size() && s < local_hints.size(); ++s) {
    if (local_hints[s].empty()) continue;
    std::lock_guard<std::mutex> round_lock(shards_[s]->round_mutex);
    for (ObjectId local : local_hints[s]) {
      global.push_back(shards_[s]->global_of_local.at(local));
    }
  }
  return global;
}

ServiceReport ShardedDynamicCService::ObserveBatchRound(
    const std::vector<ObjectId>& changed) {
  std::vector<std::vector<ObjectId>> hints;
  if (async()) {
    // Barrier: everything admitted is applied before the round, and the
    // service's own record of applied-but-unrounded objects replaces
    // the caller's list (they agree when the caller passed what the
    // preceding ingest returned).
    Drain();
    hints = TakePendingChanged();
  } else {
    hints = LocalizeChanged(changed);
  }
  if (observer_ != nullptr) {
    observer_->OnBarrier(StreamObserver::Barrier::kObserve,
                         async() ? GlobalizeHints(hints) : changed);
  }
  ServiceReport report;
  report.train_shards.resize(shards_.size());

  {
    obs::ScopedSpan barrier_span(
        tracer_, obs::kSpanObserveRound, obs::kServiceShard,
        open_epoch_.load(std::memory_order_relaxed));
    ScopedTimer wall;
    wall.Set(&report.wall_ms)
        .Record(metrics_ ? metrics_->barrier_ms : nullptr);
    pool_.ParallelFor(shards_.size(), [&](size_t s) {
      Shard& shard = *shards_[s];
      std::lock_guard<std::mutex> round_lock(shard.round_mutex);
      ShardTrainStats& stats = report.train_shards[s];
      stats.shard = static_cast<uint32_t>(s);
      {
        obs::ScopedSpan span(tracer_, obs::kSpanObserveRound,
                             static_cast<uint32_t>(s));
        ScopedTimer timer;
        timer.Set(&stats.round_ms);
        if (shard.dataset.alive_count() > 0) {
          stats.report = shard.session->ObserveBatchRound(hints[s]);
          stats.participated = true;
          shard.state_version += 1;
        }
        shard.dirty = false;  // the batch result is a fresh fixpoint
      }
      stats.objects = shard.dataset.alive_count();
      stats.clusters = shard.session->engine().clustering().num_clusters();
    });
  }

  for (const ShardTrainStats& stats : report.train_shards) {
    report.total_shard_ms += stats.round_ms;
    report.max_shard_ms = std::max(report.max_shard_ms, stats.round_ms);
    report.total_objects += stats.objects;
    report.total_clusters += stats.clusters;
    report.evolution_steps += stats.report.step_count;
  }
  FillIngestStats(&report.ingest);
  FinalizeReport(&report);
  // An observe means the caller is driving barriers (training, or a
  // long-run accuracy refresh): background rounds stay off until the
  // next explicit DynamicRound/Flush, so any number of training
  // barriers sees exactly the synchronous path's engine state and
  // derives identical models.
  serving_.store(false, std::memory_order_release);
  return report;
}

ServiceReport ShardedDynamicCService::DynamicRound(
    const std::vector<ObjectId>& changed) {
  std::vector<std::vector<ObjectId>> hints;
  if (async()) {
    Drain();
    hints = TakePendingChanged();
  } else {
    hints = LocalizeChanged(changed);
  }
  if (observer_ != nullptr) {
    observer_->OnBarrier(StreamObserver::Barrier::kDynamic,
                         async() ? GlobalizeHints(hints) : changed);
  }
  return ServeBarrier(std::move(hints), /*flush_epoch=*/0);
}

ServiceReport ShardedDynamicCService::ServeBarrier(
    std::vector<std::vector<ObjectId>> hints, uint64_t flush_epoch) {
  ServiceReport report;
  report.flush_epoch = flush_epoch;
  report.dynamic_shards.resize(shards_.size());

  // A shard sits the round out while empty, or clean — no operation
  // landed on it since its last round, so its clustering is already a
  // DynamicC fixpoint and re-running would change nothing. In async
  // mode the background workers already rounded every trained shard, so
  // only shards they had to leave dirty (untrained ones) serve here.
  std::vector<size_t> serving;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> round_lock(shards_[s]->round_mutex);
    ShardDynamicStats& stats = report.dynamic_shards[s];
    stats.shard = static_cast<uint32_t>(s);
    stats.objects = shards_[s]->dataset.alive_count();
    stats.clusters = shards_[s]->session->engine().clustering().num_clusters();
    if (shards_[s]->dirty && stats.objects > 0) {
      serving.push_back(s);
    }
  }
  {
    obs::ScopedSpan barrier_span(tracer_, obs::kSpanDynamicRound,
                                 obs::kServiceShard, flush_epoch);
    ScopedTimer wall_timer;
    wall_timer.Set(&report.wall_ms)
        .Record(metrics_ ? metrics_->barrier_ms : nullptr);
    pool_.ParallelFor(serving.size(), [&](size_t i) {
      size_t s = serving[i];
      Shard& shard = *shards_[s];
      std::lock_guard<std::mutex> round_lock(shard.round_mutex);
      ShardDynamicStats& stats = report.dynamic_shards[s];
      {
        obs::ScopedSpan span(tracer_, obs::kSpanDynamicRound,
                             static_cast<uint32_t>(s), flush_epoch);
        ScopedTimer timer;
        timer.Set(&stats.round_ms);
        if (shard.session->is_trained()) {
          stats.report = shard.session->DynamicRound(hints[s]);
        } else {
          // The shard cannot serve dynamically yet — its slice of the
          // training phase produced no evolution steps, or its first
          // data arrived after training ended. Serve it with an
          // observed batch round instead (mirroring the session's
          // observe_every path): the output is the correct batch
          // clustering either way, and the round doubles as this
          // shard's training opportunity.
          DynamicCSession::TrainReport observe =
              shard.session->ObserveBatchRound(hints[s]);
          stats.report.recluster_ms = observe.batch_ms + observe.derive_ms;
          stats.report.retrain_ms = observe.fit_ms;
          stats.report.used_batch = true;
        }
        stats.participated = true;
        shard.dirty = false;
        shard.state_version += 1;
      }
      stats.objects = shard.dataset.alive_count();
      stats.clusters = shard.session->engine().clustering().num_clusters();
      std::lock_guard<std::mutex> queue_lock(shard.queue_mutex);
      AccumulateRecluster(&shard.round_detail, stats.report.detail);
    });
  }

  for (const ShardDynamicStats& stats : report.dynamic_shards) {
    report.total_shard_ms += stats.round_ms;
    report.max_shard_ms = std::max(report.max_shard_ms, stats.round_ms);
    report.total_objects += stats.objects;
    report.total_clusters += stats.clusters;
    AccumulateRecluster(&report.combined, stats.report.detail);
  }
  FillIngestStats(&report.ingest);
  FinalizeReport(&report);
  // An explicit dynamic barrier is the caller's transition into the
  // serving phase: from here (if every data-holding shard is trained)
  // the background workers round continuously until the next observe.
  serving_.store(is_trained(), std::memory_order_release);
  // Automatic placement maintenance rides the barrier cadence: every K
  // dynamic barriers one rebalance pass runs, after the round so its
  // record counts include everything this barrier applied and its
  // migrations land before the next batch of traffic.
  if (options_.rebalance.every_rounds > 0 &&
      rounds_since_rebalance_.fetch_add(1) + 1 >=
          options_.rebalance.every_rounds) {
    rounds_since_rebalance_.store(0);
    RebalanceOnce();
  }
  if (read_views_ != nullptr) {
    // The barrier's state covers everything admitted up to the newest
    // sealed epoch (and, on a full drain, possibly later open-epoch
    // operations) — stamp the view with the newest sealed epoch, the
    // lower bound the staleness contract promises.
    PublishReadViewAt(flush_epoch > 0
                          ? flush_epoch
                          : open_epoch_.load(std::memory_order_relaxed) - 1);
  }
  return report;
}

ServiceReport ShardedDynamicCService::Flush() { return DynamicRound({}); }

uint64_t ShardedDynamicCService::CloseEpoch() {
  std::lock_guard<std::mutex> ingest_lock(ingest_mutex_);
  return CloseEpochLocked();
}

uint64_t ShardedDynamicCService::CloseEpochLocked() {
  // ingest_mutex_ is held: no admission races the seal, so the recorded
  // boundaries cover exactly the operations of this epoch and earlier.
  const uint64_t closed = open_epoch_.fetch_add(1);
  uint64_t pending_tail = 0;
  {
    // The seal proper: stamping watermarks and epoch marks across the
    // shards. Shipping the delta (the observer hook below) is timed
    // separately — the split is what tells an operator whether a slow
    // CloseEpoch is the service's bookkeeping or the replication sink.
    obs::ScopedSpan span(tracer_, obs::kSpanEpochSeal, obs::kServiceShard,
                         closed);
    ScopedTimer seal_timer;
    seal_timer.Record(metrics_ ? metrics_->epoch_seal_ms : nullptr);
    for (const auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      std::lock_guard<std::mutex> lock(shard.queue_mutex);
      const uint64_t boundary = shard.log.appended();
      if (!shard.worker_busy) {
        // No drain task is queued or running, so nothing is in flight
        // and the precise watermark is safe to read straight off the
        // log (first_pending_sequence() is appended() when nothing
        // pends).
        shard.reflected_seq = shard.log.first_pending_sequence();
      }
      if (boundary <= shard.reflected_seq) {
        shard.applied_epoch = closed;
        shard.epoch_applied.notify_all();
      } else {
        shard.epoch_marks.push_back(Shard::EpochMark{closed, boundary});
      }
      if (observer_ != nullptr || read_views_ != nullptr) {
        // Everything still queued below the seal boundary is
        // sealed-but-unapplied — the primary's replication lag at this
        // boundary, which the delta log records per epoch. Count-only
        // (ExportRange's copying sibling has no place under these
        // locks).
        pending_tail += shard.log.LogicalInRange(0, boundary);
      }
    }
  }
  if (metrics_) metrics_->epochs_sealed->Add(1);
  if (observer_ != nullptr) {
    // Swap-only: the replication session queues the sealed events here
    // and writes the delta file after CloseEpoch returns, off the
    // admission path (ReplicationSession::ShipPending owns the
    // `delta.ship` span and `epoch.delta_ship_ms` histogram).
    observer_->OnEpochSealed(closed, pending_tail);
  }
  if (read_views_ != nullptr && pending_tail == 0) {
    // Every operation of the sealed epoch is already applied, so the
    // state right now *is* epoch `closed` — publish it. With a tail
    // still queued, the epoch's view appears at the barrier that
    // applies it instead.
    PublishReadViewAt(closed);
  }
  return closed;
}

void ShardedDynamicCService::AdvanceEpochsLocked(Shard* shard) {
  shard->reflected_seq = shard->log.first_pending_sequence();
  bool advanced = false;
  while (!shard->epoch_marks.empty() &&
         shard->epoch_marks.front().boundary <= shard->reflected_seq) {
    shard->applied_epoch = shard->epoch_marks.front().epoch;
    shard->epoch_marks.pop_front();
    advanced = true;
  }
  if (advanced) shard->epoch_applied.notify_all();
}

void ShardedDynamicCService::WaitEpoch(uint64_t epoch) {
  if (epoch == 0) return;
  DYNAMICC_CHECK_LT(epoch, open_epoch_.load())
      << "WaitEpoch requires a closed epoch (CloseEpoch first)";
  // A migration moves queued operations — and with them epoch
  // obligations — from one shard's log to another's. A scan that
  // overlapped one may have checked the destination before the replayed
  // tail arrived, so the scan only counts if no migration surgery ran
  // during it (seqlock; migrations are rare, rescans cheap: already
  // applied shards pass immediately).
  for (;;) {
    const uint64_t seq_before = migration_seq_.load(std::memory_order_acquire);
    if (seq_before % 2 == 1) {
      std::this_thread::yield();
      continue;
    }
    for (const auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      std::unique_lock<std::mutex> lock(shard.queue_mutex);
      shard.epoch_applied.wait(
          lock, [&shard, epoch] { return shard.applied_epoch >= epoch; });
    }
    if (migration_seq_.load(std::memory_order_acquire) == seq_before) return;
  }
}

ServiceReport ShardedDynamicCService::Flush(uint64_t epoch) {
  // 0 is not an epoch (numbering starts at 1): catching it here keeps a
  // caller who passed an uninitialized watermark from silently getting
  // a no-drain barrier that looks like a completed flush.
  DYNAMICC_CHECK_GT(epoch, 0u) << "Flush(epoch) requires a sealed epoch";
  WaitEpoch(epoch);
  // Only what the epoch's application left dirty still needs serving
  // (trained shards were rounded by their workers batch by batch; the
  // hints carry the applied-but-unrounded objects of untrained ones).
  // No Drain(): later-epoch queue contents stay queued.
  std::vector<std::vector<ObjectId>> hints = TakePendingChanged();
  if (observer_ != nullptr) {
    observer_->OnBarrier(StreamObserver::Barrier::kDynamic,
                         GlobalizeHints(hints));
  }
  return ServeBarrier(std::move(hints), epoch);
}

ServiceSnapshot ShardedDynamicCService::Snapshot() const {
  ServiceSnapshot snap;
  snap.report.dynamic_shards.resize(shards_.size());

  // Holding every round mutex pauses each shard's worker between
  // rounds: the cut observes every shard at a round boundary.
  std::vector<std::unique_lock<std::mutex>> round_locks;
  round_locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    round_locks.emplace_back(shard->round_mutex);
  }

  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    ShardDynamicStats& stats = snap.report.dynamic_shards[s];
    stats.shard = static_cast<uint32_t>(s);
    stats.objects = shard.dataset.alive_count();
    stats.clusters = shard.session->engine().clustering().num_clusters();
    AppendShardClusters(shard, &snap.clusters);
    snap.total_objects += stats.objects;
    snap.total_clusters += stats.clusters;
    snap.report.total_objects += stats.objects;
    snap.report.total_clusters += stats.clusters;
    std::lock_guard<std::mutex> queue_lock(shard.queue_mutex);
    AccumulateRecluster(&snap.report.combined, shard.round_detail);
  }
  std::sort(snap.clusters.begin(), snap.clusters.end());

  FillIngestStats(&snap.report.ingest);
  FinalizeReport(&snap.report);
  snap.sequence =
      snap.report.ingest.accepted_ops - snap.report.ingest.pending_ops;
  return snap;
}

IngestStats ShardedDynamicCService::ingest_stats() const {
  IngestStats stats;
  FillIngestStats(&stats);
  return stats;
}

void ShardedDynamicCService::FillIngestStats(IngestStats* ingest) const {
  ingest->rejected_batches = rejected_batches_.load();
  ingest->rejected_ops = rejected_ops_.load();
  ingest->open_epoch = open_epoch_.load();
  // The fleet-wide applied epoch is the laggard's: an epoch is applied
  // once *every* shard has it.
  uint64_t applied_epoch = ingest->open_epoch - 1;
  size_t shard_index = 0;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.queue_mutex);
    if (metrics_ != nullptr) {
      metrics_->queue_depth[shard_index]->Set(
          static_cast<double>(shard.log.pending()));
    }
    shard_index += 1;
    applied_epoch = std::min(applied_epoch, shard.applied_epoch);
    ingest->accepted_ops += shard.accepted_ops;
    ingest->applied_ops += shard.applied_ops;
    ingest->coalesced_ops += shard.log.coalesced();
    ingest->pending_ops += shard.log.pending_logical();
    ingest->applied_batches += shard.applied_batches;
    ingest->worker_rounds += shard.worker_rounds;
    ingest->producer_waits += shard.producer_waits;
    ingest->queue_high_water =
        std::max(ingest->queue_high_water, shard.queue_high_water);
    ingest->worker_apply_ms += shard.worker_apply_ms;
    ingest->worker_round_ms += shard.worker_round_ms;
    ingest->batch_grows += shard.batch_grows;
    ingest->batch_shrinks += shard.batch_shrinks;
    if (shard.adaptive_batch > 0) {
      if (ingest->adaptive_batch_min == 0 ||
          shard.adaptive_batch < ingest->adaptive_batch_min) {
        ingest->adaptive_batch_min = shard.adaptive_batch;
      }
      ingest->adaptive_batch_max =
          std::max(ingest->adaptive_batch_max, shard.adaptive_batch);
    }
  }
  ingest->applied_epoch = applied_epoch;

  // The shard-local counters above stay authoritative; the registry
  // carries a verbatim mirror so exporters and reports can never
  // disagree (obs_test pins gauge == struct field).
  if (metrics_ != nullptr) {
    metrics_->accepted_ops->Set(static_cast<double>(ingest->accepted_ops));
    metrics_->rejected_batches->Set(
        static_cast<double>(ingest->rejected_batches));
    metrics_->rejected_ops->Set(static_cast<double>(ingest->rejected_ops));
    metrics_->coalesced_ops->Set(static_cast<double>(ingest->coalesced_ops));
    metrics_->pending_ops->Set(static_cast<double>(ingest->pending_ops));
    metrics_->applied_ops->Set(static_cast<double>(ingest->applied_ops));
    metrics_->open_epoch->Set(static_cast<double>(ingest->open_epoch));
    metrics_->applied_epoch->Set(static_cast<double>(ingest->applied_epoch));
    metrics_->applied_batches->Set(
        static_cast<double>(ingest->applied_batches));
    metrics_->worker_rounds->Set(static_cast<double>(ingest->worker_rounds));
    metrics_->producer_waits->Set(
        static_cast<double>(ingest->producer_waits));
    metrics_->queue_high_water->Set(
        static_cast<double>(ingest->queue_high_water));
  }
}

void ShardedDynamicCService::FinalizeReport(ServiceReport* report) const {
  std::vector<double> cost, records;
  auto fold = [&](size_t objects, double round_ms, bool participated) {
    // Every shard counts toward record skew (an empty shard is the
    // skew); only participants count toward round cost (clean shards
    // were skipped by design, not stragglers).
    records.push_back(static_cast<double>(objects));
    if (participated && round_ms > 0.0) cost.push_back(round_ms);
  };
  for (const ShardTrainStats& stats : report->train_shards) {
    fold(stats.objects, stats.round_ms, stats.participated);
  }
  for (const ShardDynamicStats& stats : report->dynamic_shards) {
    fold(stats.objects, stats.round_ms, stats.participated);
  }
  report->cost_imbalance = MaxMeanRatio(cost);
  report->record_imbalance = MaxMeanRatio(records);
  report->placement_version = placement_.version();
  report->groups_migrated = migrations_.load();
  if (metrics_ != nullptr) {
    metrics_->cost_imbalance->Set(report->cost_imbalance);
    metrics_->record_imbalance->Set(report->record_imbalance);
    metrics_->placement_version->Set(
        static_cast<double>(report->placement_version));
    metrics_->groups_migrated->Set(
        static_cast<double>(report->groups_migrated));
  }
}

void ShardedDynamicCService::AppendShardClusters(
    const Shard& shard, std::vector<std::vector<ObjectId>>* out) {
  for (const auto& members :
       shard.session->engine().clustering().CanonicalClusters()) {
    std::vector<ObjectId> global_members;
    global_members.reserve(members.size());
    for (ObjectId local : members) {
      global_members.push_back(shard.global_of_local.at(local));
    }
    std::sort(global_members.begin(), global_members.end());
    out->push_back(std::move(global_members));
  }
}

std::vector<std::vector<ObjectId>> ShardedDynamicCService::GlobalClusters()
    const {
  std::vector<std::vector<ObjectId>> clusters;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> round_lock(shard->round_mutex);
    AppendShardClusters(*shard, &clusters);
  }
  std::sort(clusters.begin(), clusters.end());
  return clusters;
}

size_t ShardedDynamicCService::total_objects() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> round_lock(shard->round_mutex);
    total += shard->dataset.alive_count();
  }
  return total;
}

size_t ShardedDynamicCService::total_clusters() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> round_lock(shard->round_mutex);
    total += shard->session->engine().clustering().num_clusters();
  }
  return total;
}

bool ShardedDynamicCService::is_trained() const {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> round_lock(shard->round_mutex);
    if (shard->dataset.alive_count() > 0 && !shard->session->is_trained()) {
      return false;
    }
  }
  return true;
}

ShardedDynamicCService::AdaptiveBiteDecision
ShardedDynamicCService::NextAdaptiveBite(size_t current, double latency_ms,
                                         size_t backlog,
                                         const AsyncOptions& options) {
  // AIMD: a slow round halves the bite (latency recovers in a few
  // rounds no matter how far it overshot), a fast round with backlog
  // still queued grows it one min_batch step (throughput converges
  // without overshooting). Bounded to [min_batch, queue_depth].
  const size_t floor_bite = std::max<size_t>(1, options.min_batch);
  const size_t ceiling = std::max(options.queue_depth, floor_bite);

  AdaptiveBiteDecision decision;
  decision.bite = std::min(std::max(current, floor_bite), ceiling);
  if (latency_ms > options.target_round_ms) {
    size_t shrunk = std::max(floor_bite, decision.bite / 2);
    if (shrunk < decision.bite) {
      decision.bite = shrunk;
      decision.shrank = true;
    }
  } else if (backlog > decision.bite && decision.bite < ceiling) {
    decision.bite = std::min(ceiling, decision.bite + floor_bite);
    decision.grew = true;
  }
  return decision;
}

void ShardedDynamicCService::ParkWorker(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  std::unique_lock<std::mutex> lock(shard.queue_mutex);
  shard.paused = true;
  // The worker parks at its next batch boundary (it checks `paused`
  // before every Take), so after this wait no drained-but-unapplied
  // batch exists for the shard. Producers cannot re-schedule a worker
  // meanwhile — the caller holds ingest_mutex_.
  shard.queue_drained.wait(lock, [&shard] { return !shard.worker_busy; });
}

void ShardedDynamicCService::ResumeWorker(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(shard.queue_mutex);
    shard.paused = false;
    if (!shard.log.empty() && !shard.worker_busy) {
      shard.worker_busy = true;
      schedule = true;
    }
  }
  if (schedule) {
    pool_.SubmitTo(shard_index,
                   [this, shard_index] { WorkerDrain(shard_index); });
  }
}

ShardedDynamicCService::MigrationReport ShardedDynamicCService::MigrateGroup(
    uint64_t group, uint32_t to_shard) {
  DYNAMICC_CHECK_LT(to_shard, num_shards());
  DYNAMICC_CHECK(router_->ContentAddressed())
      << "group migration requires a content-addressed router ("
      << router_->Name() << " scatters groups across shards)";
  Timer timer;
  MigrationReport report;
  report.group = group;
  report.to = to_shard;

  // Producers are excluded for the whole move: admission pins a
  // placement version under ingest_mutex_, so holding it means no batch
  // can straddle the swap — the only operations that raced the move are
  // the ones already sitting in the source shard's queue, and those are
  // replayed below. Ingest to *other* shards resumes the moment this
  // returns; their queues and workers are never touched.
  std::lock_guard<std::mutex> ingest_lock(ingest_mutex_);

  // Source = the shard currently owning the group. group_shard_ is
  // authoritative (admission sets it, every migration updates it);
  // first-member locations would lie for groups whose early members
  // are tombstones, which stay where they died.
  uint32_t from = to_shard;
  bool known = false;
  {
    std::lock_guard<std::mutex> loc_lock(locations_mutex_);
    auto it = group_shard_.find(group);
    if (it != group_shard_.end()) {
      from = it->second;
      known = true;
    }
  }
  report.from = known ? from : to_shard;
  if (!known || from == to_shard) {
    // Nothing to move; still pin the placement so future adds land on
    // `to_shard` deterministically.
    report.placement_version = placement_.Assign(group, to_shard);
    // No-op moves are journaled too: every Assign bumps the placement
    // version, and the follower must bump in lockstep.
    if (observer_ != nullptr) observer_->OnMigration(group, to_shard);
    report.ms = timer.ElapsedMillis();
    return report;
  }

  // Flush epoch, step 1: park both drain workers at a batch boundary.
  // The surgery below moves queued operations — and with them epoch
  // obligations — between the two shards' logs; the seqlock (odd = in
  // progress) makes concurrent WaitEpoch scans that overlapped the move
  // re-scan instead of trusting a destination they checked too early.
  migration_seq_.fetch_add(1, std::memory_order_acq_rel);
  {
    obs::ScopedSpan span(tracer_, obs::kSpanMigrationQuiesce,
                         obs::kServiceShard,
                         open_epoch_.load(std::memory_order_relaxed));
    span.set_range(group, group);
    ParkWorker(from);
    ParkWorker(to_shard);
  }

  {
    obs::ScopedSpan surgery_span(
        tracer_, obs::kSpanMigrationSurgery, obs::kServiceShard,
        open_epoch_.load(std::memory_order_relaxed));
    surgery_span.set_range(group, group);
    Shard& src = *shards_[from];
    Shard& dst = *shards_[to_shard];
    // Lock order everywhere: round_mutex (ascending) before
    // locations_mutex_.
    std::unique_lock<std::mutex> first(
        shards_[std::min(from, to_shard)]->round_mutex);
    std::unique_lock<std::mutex> second(
        shards_[std::max(from, to_shard)]->round_mutex);

    // The moved set: applied+alive members carry their state across;
    // queued members (no local id yet) just flip ownership and their
    // pending operations replay. Tombstones stay behind.
    std::vector<ObjectId> moved_globals;
    std::vector<ObjectId> moved_locals;
    std::unordered_set<ObjectId> moved_set;
    {
      std::lock_guard<std::mutex> loc_lock(locations_mutex_);
      group_shard_[group] = to_shard;
      auto it = group_members_.find(group);
      if (it != group_members_.end()) {
        for (ObjectId global : it->second) {
          ObjectLocation& loc = locations_[global];
          if (loc.shard != from) continue;
          if (loc.local == kInvalidObject) {
            loc.shard = to_shard;  // queued (or annihilated) add
            moved_set.insert(global);
            continue;
          }
          if (!src.dataset.IsAlive(loc.local)) continue;
          loc.shard = to_shard;
          moved_set.insert(global);
          moved_globals.push_back(global);
          moved_locals.push_back(loc.local);
        }
      }
    }

    if (!moved_locals.empty()) {
      // State surgery: membership first (the stats hooks need the edges
      // still in the graph), then graph, then dataset — an apply in
      // reverse. No model, trainer or threshold is touched: the group
      // arrives at a destination that keeps serving with its own
      // training, which is the whole point of moving state instead of
      // re-clustering.
      ClusteringEngine::GroupExtract extract =
          src.session->engine().ExtractGroupState(moved_locals);
      std::vector<Record> records;
      records.reserve(moved_locals.size());
      for (ObjectId local : moved_locals) {
        records.push_back(src.dataset.Get(local));
        src.graph->RemoveObject(local);
        src.dataset.Remove(local);
      }

      // Adopt: records in source-local (= admission) order keep repeated
      // migrations deterministic; edges re-derive from the destination's
      // blocker, then the carried-over memberships re-attach.
      std::unordered_map<ObjectId, ObjectId> local_map;
      local_map.reserve(moved_locals.size());
      {
        std::lock_guard<std::mutex> loc_lock(locations_mutex_);
        for (size_t i = 0; i < moved_locals.size(); ++i) {
          ObjectId fresh = dst.dataset.Add(records[i]);
          dst.graph->AddObject(fresh);
          DYNAMICC_CHECK_EQ(dst.global_of_local.size(), fresh);
          dst.global_of_local.push_back(moved_globals[i]);
          locations_[moved_globals[i]].local = fresh;
          local_map[moved_locals[i]] = fresh;
        }
      }
      std::vector<std::vector<ObjectId>> adopted = std::move(extract.clusters);
      for (auto& cluster : adopted) {
        for (ObjectId& member : cluster) member = local_map.at(member);
      }
      dst.session->engine().AdoptGroupState(adopted);
      report.objects = moved_locals.size();
      report.clusters = adopted.size();

      // Applied-but-unrounded hints follow their objects.
      if (!src.pending_changed.empty()) {
        std::vector<ObjectId> kept;
        kept.reserve(src.pending_changed.size());
        for (ObjectId local : src.pending_changed) {
          auto mapped = local_map.find(local);
          if (mapped == local_map.end()) {
            kept.push_back(local);
          } else {
            dst.pending_changed.push_back(mapped->second);
          }
        }
        src.pending_changed.swap(kept);
      }
      // A cut cluster (similarity edges crossing blocking groups inside
      // the shard) leaves the source off its fixpoint.
      if (extract.split_sources > 0) src.dirty = true;
    }

    // Flush epoch, step 2: re-home the raced tail. Everything producers
    // enqueued for this group before the swap sits in the source log;
    // extract it by target id and replay it onto the destination log in
    // arrival order — per-object composition (folds, annihilations)
    // keeps working because relative order is preserved.
    OperationLog::Extracted raced;
    uint64_t src_applied_epoch = 0;
    {
      std::lock_guard<std::mutex> queue_lock(src.queue_mutex);
      raced = src.log.ExtractIf([&moved_set](const DataOperation& op) {
        return op.target != kInvalidObject && moved_set.count(op.target) > 0;
      });
      report.source_epoch = src.log.appended();
      // Every operation still queued on the source — the raced tail
      // included — belongs to an epoch the source has *not* applied
      // yet, so this bounds the epochs the tail can carry from below.
      src_applied_epoch = src.applied_epoch;
    }
    {
      std::lock_guard<std::mutex> queue_lock(dst.queue_mutex);
      for (DataOperation& op : raced.ops) {
        dst.log.Append(std::move(op));
      }
      report.dest_epoch = dst.log.appended();
      report.replayed_ops = raced.ops.size();
      if (!raced.ops.empty()) {
        // The replayed tail was admitted in earlier — possibly already
        // sealed, possibly already *applied on this destination* —
        // epochs, but it now sits at the end of the destination log.
        // Rebuild the destination's epoch state so every sealed epoch
        // the tail could belong to (anything above the source's applied
        // watermark) waits for the full post-replay log: roll
        // applied_epoch back to cover tails from epochs the destination
        // had already reported applied, and give every such epoch a
        // boundary at the end of the replay. Conservative — a sealed
        // epoch may now also wait for a few unrelated queued operations
        // — but producers are excluded here, so the over-approximation
        // is bounded by the queue contents at the time of the move.
        // Waiters mid-scan are safe: the migration seqlock makes any
        // WaitEpoch scan that overlapped this surgery re-scan.
        const uint64_t sealed_max = open_epoch_.load() - 1;
        const uint64_t new_applied =
            std::min(dst.applied_epoch, src_applied_epoch);
        if (sealed_max > new_applied) {
          dst.applied_epoch = new_applied;
          dst.epoch_marks.clear();
          for (uint64_t epoch = new_applied + 1; epoch <= sealed_max;
               ++epoch) {
            dst.epoch_marks.push_back(
                Shard::EpochMark{epoch, dst.log.appended()});
          }
        }
      }
    }
    {
      // The extracted operations are no longer the source's obligation:
      // its watermark may jump past sealed boundaries right now (the
      // worker is parked, so nobody else will advance it — without this
      // a source left idle after the move would strand its epochs).
      std::lock_guard<std::mutex> queue_lock(src.queue_mutex);
      AdvanceEpochsLocked(&src);
    }

    if (report.objects > 0 || report.replayed_ops > 0) {
      // The adopted state is re-validated (and, on an untrained
      // destination, trained) at the next round that covers the shard.
      dst.dirty = true;
      report.moved = true;
      migrations_.fetch_add(1);
      src.state_version += 1;
      dst.state_version += 1;
    }
  }

  // Publish the new placement while producers are still excluded — the
  // first batch admitted after the move already routes to `to_shard` —
  // then let the workers loose again.
  report.placement_version = placement_.Assign(group, to_shard);
  if (observer_ != nullptr) observer_->OnMigration(group, to_shard);
  ResumeWorker(from);
  ResumeWorker(to_shard);
  migration_seq_.fetch_add(1, std::memory_order_acq_rel);
  // Not a ScopedTimer: report.ms must be read into the return value,
  // and return-value construction happens before local destructors run.
  report.ms = timer.ElapsedMillis();
  if (metrics_) {
    metrics_->migration_ms->Record(report.ms);
    metrics_->migration_ops_rehomed->Add(report.replayed_ops);
  }
  return report;
}

std::vector<Rebalancer::GroupLoad> ShardedDynamicCService::GroupLoads() const {
  DYNAMICC_CHECK(router_->ContentAddressed())
      << "per-group loads require a content-addressed router ("
      << router_->Name() << " scatters groups across shards)";
  std::vector<Rebalancer::GroupLoad> loads;
  {
    std::lock_guard<std::mutex> loc_lock(locations_mutex_);
    loads.reserve(group_alive_.size());
    for (const auto& [group, alive] : group_alive_) {
      if (alive == 0) continue;
      auto shard = group_shard_.find(group);
      if (shard == group_shard_.end()) continue;
      Rebalancer::GroupLoad load;
      load.group = group;
      load.shard = shard->second;
      load.records = alive;
      loads.push_back(load);
    }
  }
  std::sort(loads.begin(), loads.end(),
            [](const Rebalancer::GroupLoad& a, const Rebalancer::GroupLoad& b) {
              if (a.records != b.records) return a.records > b.records;
              return a.group < b.group;
            });
  return loads;
}

ShardedDynamicCService::RebalanceReport
ShardedDynamicCService::RebalanceOnce() {
  RebalanceReport report;
  if (metrics_) metrics_->rebalance_passes->Add(1);
  auto record_imbalance = [this](
                              const std::vector<Rebalancer::GroupLoad>& groups) {
    std::vector<double> records_per_shard(shards_.size(), 0.0);
    for (const Rebalancer::GroupLoad& group : groups) {
      records_per_shard[group.shard] += static_cast<double>(group.records);
    }
    return MaxMeanRatio(records_per_shard);
  };
  std::vector<Rebalancer::GroupLoad> groups = GroupLoads();
  report.record_imbalance_before = record_imbalance(groups);

  Rebalancer policy(options_.rebalance.policy);
  for (const Rebalancer::Move& move :
       policy.PickMoves(shards_.size(), groups)) {
    report.moves.push_back(MigrateGroup(move.group, move.to));
  }

  report.record_imbalance_after = record_imbalance(GroupLoads());
  report.placement_version = placement_.version();
  return report;
}

uint32_t ShardedDynamicCService::ShardOfObject(ObjectId global_id) const {
  std::lock_guard<std::mutex> loc_lock(locations_mutex_);
  return locations_.at(global_id).shard;
}

const DynamicCSession& ShardedDynamicCService::session(uint32_t shard) const {
  return *shards_.at(shard)->session;
}

const Dataset& ShardedDynamicCService::dataset(uint32_t shard) const {
  return shards_.at(shard)->dataset;
}

void ShardedDynamicCService::PublishReadView() {
  PublishReadViewAt(open_epoch_.load(std::memory_order_relaxed) - 1);
}

std::shared_ptr<const ReadViewSlice> ShardedDynamicCService::BuildShardSlice(
    size_t shard_index, uint64_t version) const {
  const Shard& shard = *shards_[shard_index];
  auto slice = std::make_shared<ReadViewSlice>();
  slice->shard = static_cast<uint32_t>(shard_index);
  slice->version = version;
  const auto& clustering = shard.session->engine().clustering();
  const auto& stats = shard.session->engine().stats();
  slice->clusters.reserve(clustering.num_clusters());
  for (ClusterId cluster : clustering.ClusterIds()) {
    ReadClusterInfo info;
    info.shard = static_cast<uint32_t>(shard_index);
    const auto& members = clustering.Members(cluster);
    info.members.reserve(members.size());
    ObjectId rep_local = kInvalidObject;
    ObjectId rep_global = kInvalidObject;
    for (ObjectId local : members) {
      ObjectId global = shard.global_of_local.at(local);
      info.members.push_back(global);
      if (global < rep_global) {
        rep_global = global;
        rep_local = local;
      }
    }
    std::sort(info.members.begin(), info.members.end());
    info.representative = shard.dataset.Get(rep_local);
    info.intra_sum = stats.IntraSum(cluster);
    info.avg_intra = stats.AverageIntraSimilarity(cluster);
    slice->clusters.push_back(std::move(info));
  }
  std::sort(slice->clusters.begin(), slice->clusters.end(),
            [](const ReadClusterInfo& a, const ReadClusterInfo& b) {
              return a.members.front() < b.members.front();
            });
  return slice;
}

void ShardedDynamicCService::PublishReadViewAt(uint64_t epoch) {
  if (read_views_ == nullptr) return;
  // One publisher at a time; seal and barrier paths may race here, and
  // the second through simply republishes whatever moved (or no-ops).
  std::lock_guard<std::mutex> publish_lock(read_publish_mutex_);
  obs::ScopedSpan span(tracer_, obs::kSpanReadPublish, obs::kServiceShard,
                       epoch);
  ScopedTimer publish_timer;
  publish_timer.Record(metrics_ ? metrics_->read_publish_ms : nullptr);

  // Pin the predecessor so the builder can graft its untouched slices.
  ReadPin prev_pin = read_views_->Acquire();
  const ReadView* prev = prev_pin.get();
  ReadViewBuilder builder(prev, static_cast<uint32_t>(num_shards()), epoch,
                          read_sequence_ + 1);
  bool changed = false;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> round_lock(shards_[s]->round_mutex);
    uint64_t version = shards_[s]->state_version;
    if (builder.NeedsShard(static_cast<uint32_t>(s), version)) {
      builder.SetSlice(BuildShardSlice(s, version));
      changed = true;
    }
  }
  if (prev != nullptr && prev->epoch() == epoch && !changed) {
    // Nothing moved since the identical-epoch predecessor — keep it
    // (and its readers' cache warmth) instead of churning a clone.
    return;
  }
  read_sequence_ += 1;
  read_views_->Publish(builder.Finish(shards_[0]->env.measure.get()));
}

}  // namespace dynamicc
