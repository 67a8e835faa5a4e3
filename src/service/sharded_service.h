#ifndef DYNAMICC_SERVICE_SHARDED_SERVICE_H_
#define DYNAMICC_SERVICE_SHARDED_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "batch/batch_algorithm.h"
#include "core/session.h"
#include "data/dataset.h"
#include "data/operation_log.h"
#include "data/operations.h"
#include "data/similarity.h"
#include "data/similarity_graph.h"
#include "ml/model.h"
#include "objective/objective.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/placement.h"
#include "service/read_view.h"
#include "service/rebalancer.h"
#include "service/service_report.h"
#include "service/shard_router.h"
#include "service/thread_pool.h"
#include "util/status.h"

namespace dynamicc {

/// Everything one shard needs that must not be shared across threads:
/// its own measure, blocker, objective/validator, batch algorithm and
/// models. A factory builds one environment per shard, so shards never
/// contend on mutable state and rounds can run fully in parallel.
///
/// `validator` and `batch` may reference `objective`; all four are owned
/// here, so the reference stays valid for the shard's lifetime. For
/// validator-only setups (DBSCAN) leave `objective` null.
struct ShardEnvironment {
  std::unique_ptr<SimilarityMeasure> measure;
  std::unique_ptr<CandidateProvider> blocker;
  double min_similarity = 0.1;
  std::unique_ptr<ObjectiveFunction> objective;
  std::unique_ptr<ChangeValidator> validator;
  /// Validator-only environments (DBSCAN) leave `validator` null and set
  /// this instead: their validator needs the shard's similarity graph,
  /// which only exists once the service has built the shard, so the
  /// service invokes the factory right after creating the graph. The
  /// returned validator may reference `batch`/`batch_stages` members
  /// (e.g. DbscanValidator holding the Dbscan instance) — they are owned
  /// here, so the reference stays valid for the shard's lifetime.
  std::function<std::unique_ptr<ChangeValidator>(const SimilarityGraph*)>
      validator_factory;
  std::unique_ptr<BatchAlgorithm> batch;
  std::unique_ptr<BinaryClassifier> merge_model;
  std::unique_ptr<BinaryClassifier> split_model;
  /// Optional extra owned state for multi-stage batch pipelines: `batch`
  /// may be a CompositeBatch over `batch_stages`, and a stage may run on
  /// a cheaper `bootstrap_objective` than the task objective (the
  /// db-index environments do both, mirroring the harness: greedy
  /// agglomeration bootstraps on correlation, hill climbing refines on
  /// DB-index). Both live here so their lifetime matches the shard's.
  std::unique_ptr<ObjectiveFunction> bootstrap_objective;
  std::vector<std::unique_ptr<BatchAlgorithm>> batch_stages;
};

using ShardEnvironmentFactory = std::function<ShardEnvironment()>;

/// Hook interface through which the service reports every
/// state-changing decision of its serving protocol, in serialization
/// order — the feed the replication layer (src/replication/) journals
/// into epoch-tagged deltas. A follower that replays the reported
/// admitted batches, migrations and barriers through its own service
/// reproduces the primary's clusterings, models and placement exactly
/// (blocking-disjoint workloads, the regime every equivalence claim in
/// this repository lives in).
///
/// Threading: OnAdmitted, OnEpochSealed and OnMigration are invoked
/// under the service's ingest lock, so they are totally ordered against
/// each other and against admissions. OnBarrier is invoked from the
/// barrier caller's thread before the rounds run; replicated flows keep
/// barriers serialized against producers (the CLI, tests and benches
/// all do), which makes the whole event stream a linearization of the
/// primary's processing. Implementations must not call back into the
/// service from OnAdmitted/OnEpochSealed/OnMigration (the ingest lock
/// is held); OnBarrier may.
class StreamObserver {
 public:
  virtual ~StreamObserver() = default;

  /// Which barrier ran (ObserveBatchRound vs DynamicRound/Flush).
  enum class Barrier { kObserve, kDynamic };

  /// One admitted batch in admission order, passed by value (the sink
  /// owns it — no second copy on the ingest path). Adds carry their
  /// assigned global id in `target` (the same stamping the
  /// operation-log coalescing uses); removes/updates carry global
  /// target ids.
  virtual void OnAdmitted(OperationBatch operations) = 0;

  /// CloseEpoch sealed `epoch`. `pending_tail_ops` counts the sealed
  /// epochs' operations still queued (unapplied) across all shards at
  /// the seal — the primary's replication lag at this boundary.
  virtual void OnEpochSealed(uint64_t epoch, uint64_t pending_tail_ops) = 0;

  /// MigrateGroup published a placement decision (every call, including
  /// no-op moves — each one bumps the placement version).
  virtual void OnMigration(uint64_t group, uint32_t to_shard) = 0;

  /// A barrier is about to run with the given changed-object hints
  /// (global ids; what the barrier's rounds will be seeded with).
  virtual void OnBarrier(Barrier kind,
                         const std::vector<ObjectId>& hints) = 0;
};

/// What a full shard queue does to an Ingest call in async mode.
enum class BackpressurePolicy {
  /// Wait until the shard's worker drains enough space (never drops).
  kBlock,
  /// Turn the whole batch away — no ids assigned, nothing enqueued —
  /// and report it in IngestStats. Load-shedding for latency-bound
  /// producers: an admitted batch never stalls, and a batch is only
  /// rejected while the target shard has backlog (an idle shard admits
  /// any batch, transiently exceeding the depth, so retries always
  /// make progress).
  kReject,
};

/// Concurrent serving layer over DynamicC: partitions the record stream
/// across N shards by blocking group, owns one Dataset / SimilarityGraph
/// / DynamicCSession per shard, and executes training and dynamic rounds
/// across shards concurrently on a fixed thread pool.
///
/// Placement is dynamic: a versioned PlacementTable maps blocking groups
/// to shards (copy-on-write, one pinned version per ingested batch) with
/// the pluggable ShardRouter (default: hash of the stable blocking key,
/// data/blocking.h) as the fallback for groups never moved. Hot groups
/// migrate between shards live — records, cluster memberships and
/// similarity aggregates carried over, no retraining — either manually
/// (MigrateGroup) or through the load-aware Rebalancer
/// (RebalanceOnce / Options::rebalance.every_rounds).
///
/// Object ids: callers speak *global* ids, assigned densely in arrival
/// order at the ingestion boundary — the exact ids a single shared
/// Dataset would have assigned for the same stream, which keeps sharded
/// output directly comparable to a single-engine run. Id assignment is
/// split from application: each shard's dataset assigns its own local
/// ids when (possibly later, on a worker) its slice is applied; the
/// service owns the bidirectional mapping and translates at the
/// boundary.
///
/// Ingestion modes:
///
///  - **Synchronous** (default): ApplyOperations routes the batch and
///    applies each shard's slice concurrently (fork-join) before
///    returning; rounds are driven explicitly by the caller.
///  - **Async pipelined** (`Options::async.enabled`): ApplyOperations /
///    Ingest only *enqueue* — each shard has a bounded MPSC queue (an
///    OperationLog, so queued work coalesces before it is paid for) and
///    a long-lived background worker that drains the queue into batches,
///    applies them, and runs dynamic rounds continuously. Ingest and
///    re-clustering overlap; a full queue blocks or rejects per
///    `Options::async.backpressure`. Reading state goes through the
///    Flush()/Drain() barriers or a Snapshot() at a consistent cut.
///
/// Training still uses explicit barriers in both modes: while the
/// caller drives ObserveBatchRound barriers, async mode merely defers
/// application (workers never round), so every training barrier —
/// however many there are — sees exactly the engine state the
/// synchronous path would have, and the models come out identical. The
/// first explicit DynamicRound()/Flush() afterwards is the transition
/// into the serving phase: from then on the background workers run
/// dynamic rounds continuously (until the next observe, which returns
/// the service to barrier-driven mode, e.g. for a long-run accuracy
/// refresh). A shard that first receives data after training (so it is
/// itself untrained) accumulates its changes and is served with a
/// batch-fallback round at the next Flush(), which is also its
/// training opportunity.
///
/// Correctness: at any flush barrier, a round over N shards equals the
/// single-engine round exactly when no similarity edge crosses shards —
/// guaranteed by hash-of-blocking-key routing on blocking-disjoint
/// workloads (see StableShardKey). On other workloads sharding trades
/// cross-shard merges for throughput.
class ShardedDynamicCService {
 public:
  struct AsyncOptions {
    /// Enable pipelined ingestion (bounded queues + background workers).
    bool enabled = false;
    /// Per-shard backlog bound in pending (post-coalescing) operations;
    /// floored at 1. kBlock meters producers against it op-by-op;
    /// kReject sheds batches that would grow an existing backlog past
    /// it (a single batch may transiently exceed it on an idle shard).
    size_t queue_depth = 4096;
    BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
    /// AIMD adaptation of the per-round drain bite, per shard (off: a
    /// worker drains everything queued into one batch): a round
    /// slower than target_round_ms halves the shard's bite
    /// (multiplicative decrease, keeps latency-sensitive shards
    /// responsive); a fast round with backlog still waiting grows it by
    /// min_batch (additive increase, lets bursty shards take bigger
    /// bites and amortize the per-round fixed cost). Bounded to
    /// [min_batch, queue_depth].
    bool adaptive_batch = false;
    double target_round_ms = 4.0;
    size_t min_batch = 16;
  };

  /// Automatic placement maintenance.
  struct RebalanceOptions {
    /// 0 = manual rebalancing only (RebalanceOnce()). K > 0 runs a
    /// rebalance pass after every K explicit dynamic barriers
    /// (DynamicRound / Flush).
    uint32_t every_rounds = 0;
    Rebalancer::Options policy;
  };

  /// Observability hooks (src/obs/). Both null by default — the
  /// compiled-in-but-idle state, where every instrumentation site costs
  /// a pointer test (the overhead guard in bench_sharded_throughput
  /// pins the enabled cost at <2% records/sec). Neither is owned; both
  /// must outlive the service. Two services sharing one registry pool
  /// their counters — give an in-process follower its own registry when
  /// the books must stay separate.
  struct ObsOptions {
    obs::MetricsRegistry* metrics = nullptr;
    obs::Tracer* tracer = nullptr;
  };

  /// Epoch-pinned read serving (service/read_view.h). With `serve` on,
  /// the service publishes an immutable ReadView behind an RCU-style
  /// pointer on every sealed epoch whose operations are fully applied,
  /// and at every dynamic barrier — readers pin it with one
  /// acquire-load and query lock-free while ingest keeps draining.
  struct ReadOptions {
    bool serve = false;
  };

  struct Options {
    uint32_t num_shards = 4;
    /// Worker threads. 0 = one per shard, capped at the hardware
    /// concurrency. In async mode shard s's drain worker is pinned to
    /// thread s % num_threads.
    uint32_t num_threads = 0;
    DynamicCSession::Options session;
    AsyncOptions async;
    RebalanceOptions rebalance;
    ObsOptions obs;
    ReadOptions read;
  };

  /// Outcome of one Ingest call. `accepted` is false only in async mode
  /// under the kReject policy when a shard queue had no room for the
  /// batch; a rejected batch assigns no ids and enqueues nothing.
  struct IngestResult {
    bool accepted = true;
    /// Global ids of added/updated objects, in operation order (what
    /// the single-engine session would report as changed).
    std::vector<ObjectId> changed;
  };

  /// `router` may be null (defaults to HashShardRouter). `factory` is
  /// invoked num_shards times, once per shard, at construction.
  ShardedDynamicCService(Options options, std::unique_ptr<ShardRouter> router,
                         ShardEnvironmentFactory factory);

  ShardedDynamicCService(const ShardedDynamicCService&) = delete;
  ShardedDynamicCService& operator=(const ShardedDynamicCService&) = delete;

  /// Async mode: waits for queues to drain, then stops the workers.
  /// External producers must stop ingesting before destruction.
  ~ShardedDynamicCService() = default;

  /// Admits a batch under the configured backpressure policy. Sync mode:
  /// routes per shard (adds by router; removes/updates to the owning
  /// shard) and applies each slice concurrently before returning. Async
  /// mode: assigns global ids, enqueues per shard, and returns — the
  /// background workers apply and round later. Thread-safe (multiple
  /// producers may ingest concurrently; ids stay dense in admission
  /// order).
  IngestResult Ingest(const OperationBatch& operations);

  /// Ingest under the kBlock policy regardless of configuration — never
  /// rejects. Returns the global ids of added/updated objects.
  std::vector<ObjectId> ApplyOperations(const OperationBatch& operations);

  /// Runs DynamicCSession::ObserveBatchRound on every non-empty shard
  /// concurrently. `changed` is the output of the preceding
  /// ApplyOperations (global ids; the service translates per shard). In
  /// async mode the service drained the queues first and uses its own
  /// precise record of applied-but-unrounded objects instead of
  /// `changed`. Requires ingest quiescence (a training barrier).
  ServiceReport ObserveBatchRound(const std::vector<ObjectId>& changed);

  /// Runs DynamicCSession::DynamicRound concurrently on every shard that
  /// needs it. A shard sits the round out (participated = false) when it
  /// is empty or *clean* — no operation touched it since its last round.
  /// Skipping clean shards is sound because DynamicC is idempotent at a
  /// fixpoint (re-running changes nothing, §6.4); it is the scheduling
  /// win of sharding: hot-key traffic re-clusters only the shards it
  /// lands on, where a single engine re-scans every cluster. The cost is
  /// that a clean shard's retrain cadence only advances when it serves.
  /// A dirty shard that cannot serve dynamically yet (no evolution steps
  /// from its training slice, or data first routed to it after training)
  /// is served with an observed batch round instead — correct output
  /// now, and its chance to become trained (used_batch in its report).
  ///
  /// In async mode this is the flush barrier's second half: queues are
  /// drained first, and only shards the background workers left dirty
  /// (untrained ones) still serve here.
  ServiceReport DynamicRound(const std::vector<ObjectId>& changed = {});

  /// Async barrier, step 1: blocks until every queued operation has been
  /// applied by the background workers. Does not run rounds. No-op in
  /// sync mode.
  void Drain();

  /// Async barrier, step 2 (= Drain + DynamicRound): after Flush()
  /// returns, every admitted operation is applied *and* covered by a
  /// round — the state readable via GlobalClusters()/Snapshot() is what
  /// the synchronous path would have produced at this point in the
  /// stream. The returned report covers the final serving pass and
  /// carries cumulative IngestStats.
  ServiceReport Flush();

  // ------------------------------------------------- epoch-tagged flushes

  /// Ingestion is divided into *flush epochs*: every admitted batch
  /// belongs to the epoch that was open when it was admitted, and
  /// CloseEpoch() seals the current epoch (recording, per shard, how far
  /// into its operation log the epoch reaches). A closed epoch is
  /// *applied* on a shard once the shard's drain worker has applied all
  /// of its operations; Flush(epoch) waits for exactly that prefix on
  /// every shard — no full quiescence, and queue contents admitted in
  /// later epochs are not drained. This is the consistency point the
  /// old global barrier over-delivered on: readers that need "everything
  /// up to here" no longer wait out traffic that arrived after "here",
  /// and under sustained ingest Flush(epoch) returns where Flush()
  /// would chase the producers forever. MigrateGroup transfers a moved
  /// group's epoch obligations to the destination shard's log, so
  /// watermarks stay sound across live migrations.

  /// The epoch currently open for admissions (>= 1).
  uint64_t open_epoch() const { return open_epoch_.load(); }

  /// Seals the current epoch and returns its number. Admissions after
  /// this call belong to the next epoch. Epoch numbers are dense from 1,
  /// so two services fed the same barrier sequence agree on them.
  uint64_t CloseEpoch();

  /// Blocks until every shard has applied every operation admitted in
  /// epochs <= `epoch` (which must be closed). Does not run rounds and
  /// does not drain later-epoch queue contents.
  void WaitEpoch(uint64_t epoch);

  /// Epoch-tagged flush barrier: WaitEpoch(epoch), then one serving pass
  /// over the shards still dirty (in async serving mode the background
  /// workers already rounded every trained shard as part of applying the
  /// epoch). After it returns, the clustering reflects at least every
  /// operation of epochs <= `epoch` — later-epoch operations may still
  /// be queued, which is the point: the barrier's latency is bounded by
  /// the epoch's own backlog, not by whatever arrived since.
  ServiceReport Flush(uint64_t epoch);

  // ------------------------------------------------------ durable snapshots

  /// Serializes the full serving state into `dir` (created if needed) as
  /// one versioned, checksummed snapshot: per-shard datasets, id-exact
  /// clusterings, trained models + trainer sample sets + session
  /// cadence state, the global<->local id maps, cumulative IngestStats,
  /// and the PlacementTable (version + overrides, stable BlockingKeyHash
  /// keys). Taken at an epoch boundary: producers are excluded, the
  /// current epoch is closed and applied everywhere, then state is
  /// written — so the snapshot is exactly "the service at epoch E", and
  /// E is recorded in the manifest. Safe to call between barriers of a
  /// live service; concurrent Ingest calls block for the duration.
  Status SaveSnapshot(const std::string& dir);

  /// Restores a snapshot written by SaveSnapshot into this service,
  /// which must be freshly constructed (same num_shards and a factory
  /// producing the same environment/model types) and must not have
  /// admitted any operation. After it returns the service serves from
  /// the saved epoch: same placement version, same models (no
  /// retraining), same id assignment — feeding it the operations the
  /// saved service would have received next produces byte-identical
  /// assignments and placement versions. Rejects corrupted, truncated
  /// or version-mismatched snapshots (checksums in the manifest).
  Status LoadSnapshot(const std::string& dir);

  /// Consistent cut: every shard observed at a round boundary, with the
  /// partition, per-shard sizes, and cumulative pipeline counters. Safe
  /// to call concurrently with ingestion (it briefly pauses each shard's
  /// worker between rounds).
  ServiceSnapshot Snapshot() const;

  // ------------------------------------------- dynamic placement control

  /// Outcome of one group migration. `moved` is false when the group had
  /// nothing to move (unknown, empty, or already on `to`) — the
  /// placement override is still recorded so future adds land on `to`.
  struct MigrationReport {
    uint64_t group = 0;
    uint32_t from = 0;
    uint32_t to = 0;
    bool moved = false;
    /// Alive records carried over, and the clusters they arrived in.
    size_t objects = 0;
    size_t clusters = 0;
    /// Queued (async) operations that raced the move: extracted from
    /// the source shard's log by OperationLog sequence number and
    /// replayed onto the destination's log, order preserved.
    size_t replayed_ops = 0;
    /// Placement version published by this migration.
    uint64_t placement_version = 0;
    /// The flush epoch: every source-shard operation with a sequence
    /// number below source_epoch was either applied before the move or
    /// replayed to the destination; dest_epoch is the destination log's
    /// sequence after the replay appended.
    uint64_t source_epoch = 0;
    uint64_t dest_epoch = 0;
    double ms = 0.0;
  };

  /// Outcome of one rebalance pass: the moves executed plus the record
  /// imbalance (max/mean alive records across all shards, idle shards
  /// included) around the pass.
  struct RebalanceReport {
    std::vector<MigrationReport> moves;
    double record_imbalance_before = 0.0;
    double record_imbalance_after = 0.0;
    uint64_t placement_version = 0;
  };

  /// Live-migrates blocking group `group` (a ShardRouter::GroupKey
  /// value; see GroupOf) to `to_shard` without retraining: quiesces only
  /// the source and destination shards at a flush epoch, moves the
  /// group's records, cluster memberships and similarity aggregates via
  /// ClusteringEngine::{Extract,Adopt}GroupState, re-homes queued
  /// operations that raced the move, and publishes a new placement
  /// version — concurrent ingest to other shards keeps flowing. At the
  /// next flush barrier the clustering is byte-identical to a run that
  /// never migrated (blocking-disjoint workloads; the migration
  /// equivalence tests pin this down).
  MigrationReport MigrateGroup(uint64_t group, uint32_t to_shard);

  /// One load-aware rebalance pass: counts alive records per group and
  /// per shard, asks the Rebalancer policy for moves, and executes
  /// them. Also runs
  /// automatically every Options::rebalance.every_rounds dynamic
  /// barriers.
  RebalanceReport RebalanceOnce();

  /// The blocking-group key of a record under the configured router —
  /// what MigrateGroup and the placement table key on.
  uint64_t GroupOf(const Record& record) const {
    return router_->GroupKey(record);
  }

  /// Current per-group load (alive records + owning shard), the
  /// Rebalancer's whole input. Sorted heaviest first, ties on group hash
  /// (deterministic).
  std::vector<Rebalancer::GroupLoad> GroupLoads() const;

  const PlacementTable& placement() const { return placement_; }

  /// One pure AIMD step for the adaptive drain bite (see
  /// AsyncOptions::adaptive_batch): multiplicative decrease when the
  /// observed apply+round latency exceeds the target, additive increase
  /// while the remaining backlog outruns the current bite. Exposed as a
  /// pure function so the policy is unit-testable without timing.
  struct AdaptiveBiteDecision {
    size_t bite = 0;
    bool grew = false;
    bool shrank = false;
  };
  static AdaptiveBiteDecision NextAdaptiveBite(size_t current,
                                               double latency_ms,
                                               size_t backlog,
                                               const AsyncOptions& options);

  /// Cumulative ingestion-pipeline counters (see IngestStats).
  IngestStats ingest_stats() const;

  /// Current partition in global ids, canonical form (members ascending,
  /// clusters sorted): the union of the per-shard clusterings. In async
  /// mode, call after Flush() (or use Snapshot()) for a cut that
  /// reflects the whole stream.
  std::vector<std::vector<ObjectId>> GlobalClusters() const;

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  size_t num_threads() const { return pool_.size(); }
  bool async() const { return options_.async.enabled; }
  size_t total_objects() const;
  size_t total_clusters() const;
  /// True when every shard that holds objects can serve dynamic rounds.
  bool is_trained() const;

  /// Attaches (or detaches, with nullptr) the replication feed. Must be
  /// called while the service is quiescent — no in-flight producers and
  /// no barrier running — typically right before the base snapshot that
  /// starts a ReplicationSession. Not owned; the observer must outlive
  /// the service or detach first.
  void SetStreamObserver(StreamObserver* observer) { observer_ = observer; }
  StreamObserver* stream_observer() const { return observer_; }

  /// The registry/tracer this service instruments into (null when
  /// metrics are idle). The replication layer resolves its own metric
  /// handles through these, so primary-side and service-side metrics
  /// land in the same books.
  obs::MetricsRegistry* metrics_registry() const {
    return options_.obs.metrics;
  }
  obs::Tracer* tracer() const { return tracer_; }

  // --------------------------------------------------- epoch-pinned reads

  /// True when Options::read.serve enabled the read surface.
  bool serves_reads() const { return read_views_ != nullptr; }

  /// Pins the currently published ReadView (null pin when read serving
  /// is off or nothing is published yet — the service has sealed no
  /// epoch and run no dynamic barrier). Lock-free for readers; hold the
  /// pin for the duration of one query, not longer.
  ReadPin AcquireReadView() const {
    return read_views_ != nullptr ? read_views_->Acquire() : ReadPin();
  }

  /// The publication point itself (epoch introspection, reclamation
  /// diagnostics). Null when read serving is off.
  ReadViewRegistry* read_views() const { return read_views_.get(); }

  /// Builds and publishes a view of the current state, stamped with the
  /// newest sealed epoch. The automatic publication points (epoch seals
  /// with no unapplied tail, dynamic barriers) call the same machinery;
  /// this is for callers that changed state through a side door —
  /// LoadSnapshot, a replica that finished replaying — and want the
  /// read surface to reflect it now.
  void PublishReadView();

  /// The shard owning a (live or tombstoned) global id.
  uint32_t ShardOfObject(ObjectId global_id) const;
  const DynamicCSession& session(uint32_t shard) const;
  const Dataset& dataset(uint32_t shard) const;
  const ShardRouter& router() const { return *router_; }

 private:
  struct Shard {
    ShardEnvironment env;
    Dataset dataset;
    std::unique_ptr<SimilarityGraph> graph;
    std::unique_ptr<DynamicCSession> session;

    /// Held for the duration of every apply + round on this shard (by
    /// the background worker in async mode, by fork-join lanes at
    /// barriers); snapshot readers take it to observe the shard at a
    /// round boundary. Also guards global_of_local, dirty and
    /// pending_changed.
    mutable std::mutex round_mutex;
    /// Local id -> global id (local ids are dense, so a vector).
    std::vector<ObjectId> global_of_local;
    /// Set when an operation lands on the shard; cleared by rounds.
    bool dirty = false;
    /// Local ids applied but not yet covered by any round (accumulates
    /// only while the shard is untrained; barrier rounds consume it).
    std::vector<ObjectId> pending_changed;
    /// Bumped by every state mutation under round_mutex (batch applies,
    /// rounds, migration surgery). The read-view publisher compares it
    /// against the previous view's slice version to rebuild only the
    /// shards that actually changed.
    uint64_t state_version = 0;

    /// Guards the ingest queue and the counters below.
    mutable std::mutex queue_mutex;
    std::condition_variable queue_not_full;
    std::condition_variable queue_drained;
    OperationLog log;
    /// One sealed epoch this shard has not fully applied yet: every log
    /// operation with sequence < boundary belongs to `epoch` (or
    /// earlier). Boundaries are non-decreasing front to back; a
    /// migration that replays raced operations onto this shard raises
    /// pending boundaries so the epoch waits for the replayed tail too.
    struct EpochMark {
      uint64_t epoch = 0;
      uint64_t boundary = 0;
    };
    std::deque<EpochMark> epoch_marks;
    /// Trace context of the most recent traced enqueue (guarded by
    /// queue_mutex). The drain worker takes-and-clears it with the
    /// batch, so the async drain.apply span joins the trace of the
    /// ingest that fed it — stitching client → handler → drain across
    /// the thread handoff. Best-effort under coalescing: concurrent
    /// traced producers overwrite, the batch adopts the newest.
    obs::TraceContext queue_trace;
    /// Highest closed epoch fully applied on this shard (monotone).
    uint64_t applied_epoch = 0;
    /// Log-sequence watermark: every appended operation with sequence <
    /// reflected_seq has been applied (or folded/annihilated into one
    /// that was). Only recomputed at batch boundaries — when no drained
    /// batch is in flight — so it never overstates.
    uint64_t reflected_seq = 0;
    std::condition_variable epoch_applied;
    /// True while a drain task is queued or running for this shard.
    bool worker_busy = false;
    /// Set by a migration to park the drain worker at a batch boundary:
    /// a worker that sees it returns without taking another batch (and
    /// without resubmitting itself), so the migration can operate on a
    /// shard with no drained-but-unapplied batch in flight. Producers
    /// cannot schedule a worker meanwhile — the migration holds
    /// ingest_mutex_.
    bool paused = false;
    /// Current AIMD drain bite (adaptive_batch mode; 0 until the first
    /// drain initializes it to min_batch).
    size_t adaptive_batch = 0;
    uint64_t batch_grows = 0;
    uint64_t batch_shrinks = 0;
    uint64_t accepted_ops = 0;
    /// Operations applied into this shard's engine (surviving operations
    /// only).
    uint64_t applied_ops = 0;
    uint64_t applied_batches = 0;
    uint64_t worker_rounds = 0;
    uint64_t producer_waits = 0;
    size_t queue_high_water = 0;
    double worker_apply_ms = 0.0;
    double worker_round_ms = 0.0;
    /// Cumulative recluster counters from every dynamic round this
    /// shard ran — background worker rounds and barrier rounds alike —
    /// so Snapshot().report.combined is comparable with summing the
    /// synchronous path's per-round reports.
    ReclusterReport round_detail;
  };

  struct ObjectLocation {
    uint32_t shard = 0;
    ObjectId local = kInvalidObject;
    /// Blocking group the object was admitted under (router GroupKey);
    /// migrations move whole groups, so this never changes.
    uint64_t group = 0;
  };

  IngestResult IngestInternal(const OperationBatch& operations,
                              BackpressurePolicy policy);

  /// Fills `report`'s imbalance ratios and placement fields from its
  /// per-shard stats and the service counters.
  void FinalizeReport(ServiceReport* report) const;

  /// The serving half every barrier shares (DynamicRound, Flush and
  /// Flush(epoch) differ only in how they quiesce and derive hints):
  /// rounds the dirty shards, finalizes the report, flips the service
  /// into serving mode, and drives the automatic rebalance cadence.
  ServiceReport ServeBarrier(std::vector<std::vector<ObjectId>> hints,
                             uint64_t flush_epoch);

  /// CloseEpoch with ingest_mutex_ already held.
  uint64_t CloseEpochLocked();

  /// Recomputes `shard`'s reflected_seq from its log and pops every
  /// epoch mark the watermark now covers (notifying epoch waiters).
  /// Caller holds the shard's queue_mutex, at a batch boundary (no
  /// drained-but-unapplied batch in flight for the shard).
  static void AdvanceEpochsLocked(Shard* shard);

  /// Parks / resumes shard `s`'s drain worker around a migration (async
  /// mode; see Shard::paused).
  void ParkWorker(size_t shard_index);
  void ResumeWorker(size_t shard_index);

  /// Translates a drained (global-handle) batch to local ids, applies it
  /// through the shard's session, and registers the global<->local
  /// mapping for adds. Caller holds the shard's round_mutex. Returns the
  /// local changed ids.
  std::vector<ObjectId> ApplyBatchToShard(size_t shard_index,
                                          const OperationBatch& batch);

  /// Background drain loop for one shard: repeatedly takes a coalesced
  /// batch, applies it, and (once the shard is trained) runs a dynamic
  /// round, until the queue is empty.
  void WorkerDrain(size_t shard_index);

  /// Splits `changed` (global ids) into per-shard local-id lists,
  /// skipping ids that never materialized (annihilated adds).
  std::vector<std::vector<ObjectId>> LocalizeChanged(
      const std::vector<ObjectId>& changed) const;

  /// Moves every shard's pending_changed out (the async barrier's
  /// precise per-shard changed hints).
  std::vector<std::vector<ObjectId>> TakePendingChanged();

  /// Translates per-shard local-id hint lists back to global ids
  /// (concatenated; per-shard relative order preserved, which is all a
  /// later LocalizeChanged needs). Used to report async barriers' hints
  /// to the stream observer in the global vocabulary OnAdmitted uses.
  std::vector<ObjectId> GlobalizeHints(
      const std::vector<std::vector<ObjectId>>& local_hints) const;

  /// Fills `ingest` with the cumulative pipeline counters.
  void FillIngestStats(IngestStats* ingest) const;

  /// Registry handles, resolved once at construction (null metrics_
  /// when Options::obs.metrics is null). Histograms record live on the
  /// hot paths; the IngestStats-mirror gauges are published by
  /// FillIngestStats — the shard counters stay the single source of
  /// truth and the registry is the uniform export surface over them
  /// (obs_test pins the two views equal).
  struct ServiceMetrics {
    obs::Histogram* admit_ms = nullptr;
    obs::Histogram* queue_wait_ms = nullptr;
    obs::Histogram* drain_batch_ops = nullptr;
    obs::Histogram* drain_apply_ms = nullptr;
    obs::Histogram* worker_round_ms = nullptr;
    obs::Histogram* barrier_ms = nullptr;
    obs::Histogram* epoch_seal_ms = nullptr;
    obs::Histogram* migration_ms = nullptr;
    obs::Histogram* read_publish_ms = nullptr;
    obs::Histogram* snapshot_save_ms = nullptr;
    obs::Histogram* snapshot_load_ms = nullptr;
    obs::Counter* epochs_sealed = nullptr;
    obs::Counter* migration_ops_rehomed = nullptr;
    obs::Counter* rebalance_passes = nullptr;
    obs::Counter* snapshot_save_bytes = nullptr;
    obs::Counter* snapshot_load_bytes = nullptr;
    /// IngestStats mirrors (gauges; see FillIngestStats).
    obs::Gauge* accepted_ops = nullptr;
    obs::Gauge* rejected_batches = nullptr;
    obs::Gauge* rejected_ops = nullptr;
    obs::Gauge* coalesced_ops = nullptr;
    obs::Gauge* pending_ops = nullptr;
    obs::Gauge* applied_ops = nullptr;
    obs::Gauge* open_epoch = nullptr;
    obs::Gauge* applied_epoch = nullptr;
    obs::Gauge* applied_batches = nullptr;
    obs::Gauge* worker_rounds = nullptr;
    obs::Gauge* producer_waits = nullptr;
    obs::Gauge* queue_high_water = nullptr;
    /// Placement health (published by FinalizeReport / RebalanceOnce).
    obs::Gauge* record_imbalance = nullptr;
    obs::Gauge* cost_imbalance = nullptr;
    obs::Gauge* placement_version = nullptr;
    obs::Gauge* groups_migrated = nullptr;
    /// Per-shard queue depth, labelled "queue.depth{shard=i}".
    std::vector<obs::Gauge*> queue_depth;
  };

  /// Appends one shard's clusters to `out`, translated to global ids
  /// with members ascending. Caller holds the shard's round_mutex; the
  /// cluster list still needs a final sort for canonical form.
  static void AppendShardClusters(const Shard& shard,
                                  std::vector<std::vector<ObjectId>>* out);

  /// One shard's half of a ReadView, cut at `version` under the shard's
  /// round_mutex (held by the caller).
  std::shared_ptr<const ReadViewSlice> BuildShardSlice(size_t shard_index,
                                                       uint64_t version) const;

  /// Builds and publishes a ReadView stamped `epoch`, reusing every
  /// slice whose shard version did not move since the previous view.
  /// Takes each shard's round_mutex in turn (never all at once); caller
  /// must hold none of them. Publishers serialize on
  /// read_publish_mutex_. No-op when read serving is off, and when
  /// nothing changed since a view at the same epoch.
  void PublishReadViewAt(uint64_t epoch);

  Options options_;
  std::unique_ptr<ShardRouter> router_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Epoch-pinned read surface (null = read serving off). Declared
  /// after shards_ so views die before the shard environments their
  /// borrowed SimilarityMeasure lives in.
  std::unique_ptr<ReadViewRegistry> read_views_;
  /// Serializes view publication (the seal path and the barrier path
  /// can both publish) and guards read_sequence_.
  std::mutex read_publish_mutex_;
  uint64_t read_sequence_ = 0;

  /// Null when metrics are idle — every instrumentation site guards on
  /// this one pointer.
  std::unique_ptr<ServiceMetrics> metrics_;
  obs::Tracer* tracer_ = nullptr;

  /// Replication feed (null = not replicating). Written only while
  /// quiescent (SetStreamObserver's contract); read on the ingest, seal,
  /// migration and barrier paths.
  StreamObserver* observer_ = nullptr;

  /// Versioned blocking-group -> shard overrides. Every batch routes
  /// against one pinned version (taken under ingest_mutex_, which every
  /// migration also holds, so a batch can never straddle two
  /// placements); groups without an override fall back to the router.
  PlacementTable placement_;

  /// Serializes producers: global ids are assigned densely in admission
  /// order, and a kReject capacity check is atomic with its enqueue.
  /// Never taken by workers (a producer may block on queue space while
  /// holding it; workers must stay free to drain).
  std::mutex ingest_mutex_;
  /// Guards locations_ (brief, leaf-level).
  mutable std::mutex locations_mutex_;
  /// Global id -> owning shard + local id; indexed by global id. The
  /// shard is fixed at admission; the local id is filled in when the
  /// add is applied (kInvalidObject until then, or forever for adds
  /// annihilated in the queue).
  std::vector<ObjectLocation> locations_;
  /// Group hash -> global ids ever admitted under it (append-only; dead
  /// and annihilated members are filtered at use). Guarded by
  /// locations_mutex_.
  std::unordered_map<uint64_t, std::vector<ObjectId>> group_members_;
  /// Group hash -> alive applied records, maintained at application
  /// time (adds increment, removes decrement). Guarded by
  /// locations_mutex_; the O(groups) input of GroupLoads().
  std::unordered_map<uint64_t, size_t> group_alive_;
  /// Group hash -> the shard currently owning the group (set at
  /// admission, updated by migration). The authoritative answer —
  /// individual members' locations can lag it for tombstones, which
  /// stay where they died. Guarded by locations_mutex_.
  std::unordered_map<uint64_t, uint32_t> group_shard_;
  std::atomic<uint64_t> rejected_batches_{0};
  std::atomic<uint64_t> rejected_ops_{0};
  /// Migrations that actually moved data, and the dynamic-barrier
  /// cadence counter for automatic rebalancing.
  std::atomic<uint64_t> migrations_{0};
  std::atomic<uint32_t> rounds_since_rebalance_{0};
  /// The epoch currently accepting admissions; CloseEpoch increments it.
  std::atomic<uint64_t> open_epoch_{1};
  /// Seqlock over migration surgery (odd = in progress): a migration
  /// moves epoch obligations between shard logs, so WaitEpoch re-scans
  /// whenever its scan overlapped one — per-shard watermarks alone
  /// cannot see an obligation that hopped shards mid-scan.
  std::atomic<uint64_t> migration_seq_{0};
  /// Set by explicit DynamicRound/Flush barriers (to is_trained()) and
  /// cleared by ObserveBatchRound. Background workers only run rounds
  /// while set — in barrier-driven (training/observe) mode async
  /// ingestion defers application only, so every observe barrier sees
  /// exactly the synchronous path's engine state and derives identical
  /// models, no matter how many training rounds the caller runs.
  std::atomic<bool> serving_{false};

  /// Last member: destroyed first, so the pool joins its workers (and
  /// finishes any queued drain) while the shards are still alive.
  ThreadPool pool_;
};

}  // namespace dynamicc

#endif  // DYNAMICC_SERVICE_SHARDED_SERVICE_H_
