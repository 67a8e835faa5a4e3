#ifndef DYNAMICC_SERVICE_READ_VIEW_H_
#define DYNAMICC_SERVICE_READ_VIEW_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "data/feature_index.h"
#include "data/record.h"
#include "data/similarity.h"
#include "data/types.h"

namespace dynamicc {

namespace obs {
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
}  // namespace obs

/// One cluster as a reader sees it: members in global ids (ascending),
/// the shard serving it, and the similarity aggregates the engine
/// maintained for it at the view's epoch. `representative` is the
/// record of the smallest-id member — the deterministic probe target
/// k-nearest-cluster queries score against.
struct ReadClusterInfo {
  std::vector<ObjectId> members;
  uint32_t shard = 0;
  /// Σ sim over intra pairs and its size-normalized average (1.0 for
  /// singletons), straight from the engine's ClusterStatsTracker.
  double intra_sum = 0.0;
  double avg_intra = 0.0;
  Record representative;
};

/// The per-shard half of a view: every cluster the shard served at the
/// view's epoch. Slices are immutable and shared between consecutive
/// views — a shard that saw no operation and ran no round between two
/// publishes contributes the same slice object to both, which is what
/// makes view building incremental instead of a re-materialization.
struct ReadViewSlice {
  uint32_t shard = 0;
  /// The shard-state version this slice was cut at (the publisher's
  /// reuse check).
  uint64_t version = 0;
  std::vector<ReadClusterInfo> clusters;
};

/// Partition-wide aggregates of one view.
struct ReadViewStats {
  size_t objects = 0;
  size_t clusters = 0;
  double total_intra_sum = 0.0;
};

/// An immutable, epoch-pinned snapshot of the global clustering — what
/// one query sees, in its entirety. Built by the service when an epoch's
/// state is fully applied and rounded, published behind an RCU-style
/// atomic pointer (ReadViewRegistry), and never mutated afterwards:
/// readers dereference freely without locks for as long as they hold a
/// pin. The canonical-form contract: CanonicalClusters() of the view at
/// epoch E is byte-equal to GlobalClusters() of the service flushed at E
/// (read_path_test pins it, on primaries and followers alike).
class ReadView {
 public:
  ReadView() = default;
  ReadView(const ReadView&) = delete;
  ReadView& operator=(const ReadView&) = delete;

  /// The sealed epoch this view reflects (0 = the pre-first-seal state).
  uint64_t epoch() const { return epoch_; }

  /// Monotone publish sequence (distinct views at one epoch — e.g. a
  /// barrier that re-rounded without a new seal — stay distinguishable).
  uint64_t sequence() const { return sequence_; }

  size_t num_objects() const { return stats_.objects; }
  size_t num_clusters() const { return clusters_.size(); }
  const ReadViewStats& stats() const { return stats_; }

  /// The cluster holding `global_id`, or nullptr when the id is unknown,
  /// dead, or was still queued (unapplied) at the view's epoch.
  const ReadClusterInfo* ClusterOf(ObjectId global_id) const;

  /// Clusters in canonical global order (members ascending, clusters
  /// sorted — the exact form GlobalClusters() reports).
  const ReadClusterInfo& cluster(size_t index) const {
    return *clusters_[index];
  }

  /// Materialized canonical partition (copies; the comparator used by
  /// the byte-consistency tests).
  std::vector<std::vector<ObjectId>> CanonicalClusters() const;

  /// The clusters shard `shard` served at this epoch — the partition
  /// slice a scale-out reader fans over. Returns an empty slice for an
  /// out-of-range shard.
  const ReadViewSlice& Slice(uint32_t shard) const;
  uint32_t num_shards() const { return static_cast<uint32_t>(slices_.size()); }

  /// One k-nearest-clusters hit.
  struct Neighbor {
    const ReadClusterInfo* cluster = nullptr;
    double similarity = 0.0;
  };

  /// The k clusters whose representatives score highest against `probe`
  /// under the service's similarity measure, best first (ties broken by
  /// canonical cluster order, so results are deterministic). Scored in
  /// one batched threshold-aware kernel call over the view's
  /// representative feature table — the PR-7 fast path, not a scalar
  /// loop. Safe to call from any number of threads concurrently.
  std::vector<Neighbor> KNearestClusters(const Record& probe,
                                         size_t k) const;

 private:
  friend class ReadViewBuilder;

  /// Looked up by ClusterOf: which slice owns the id and which cluster
  /// within it. Ids that are unknown, dead, or were still queued at the
  /// view's epoch map to kNoShard.
  struct Entry {
    uint32_t shard = kNoShard;
    uint32_t index = 0;
  };
  static constexpr uint32_t kNoShard = 0xffffffffu;

  uint64_t epoch_ = 0;
  uint64_t sequence_ = 0;
  ReadViewStats stats_;
  std::vector<std::shared_ptr<const ReadViewSlice>> slices_;
  /// Canonical order: pointers into the slices, sorted by first member.
  std::vector<const ReadClusterInfo*> clusters_;
  /// global id -> owning slice/cluster; copied from the previous view
  /// and patched only for rebuilt slices. Invariant: every member of
  /// every listed cluster maps to its slice and index within it, and
  /// every other id maps to kNoShard or lies past the map's end.
  /// ReadViewBuilder::Finish keeps it across group moves between rebuilt
  /// shards by erasing all rebuilt shards' old entries before writing
  /// any new ones.
  std::vector<Entry> cluster_of_;

  /// k-NN support: representative features per canonical cluster, built
  /// against the view's own intern table (queries intern nothing — see
  /// FeatureIndex::BuildQuery — so concurrent reads never mutate it).
  const SimilarityMeasure* measure_ = nullptr;
  std::unique_ptr<FeatureIndex> features_;
  std::vector<SimCandidate> candidates_;
};

/// A pinned view: dereference while alive; release by destruction. The
/// pin is what keeps the view out of the registry's reclamation — drop
/// it promptly (a query's lifetime, not a session's).
class ReadPin {
 public:
  ReadPin() = default;
  ReadPin(ReadPin&& other) noexcept;
  ReadPin& operator=(ReadPin&& other) noexcept;
  ReadPin(const ReadPin&) = delete;
  ReadPin& operator=(const ReadPin&) = delete;
  ~ReadPin();

  const ReadView* get() const { return view_; }
  const ReadView& operator*() const { return *view_; }
  const ReadView* operator->() const { return view_; }
  explicit operator bool() const { return view_ != nullptr; }

 private:
  friend class ReadViewRegistry;
  class ReadViewRegistry* registry_ = nullptr;
  const ReadView* view_ = nullptr;
  /// Hazard slot/entry the pin occupies, or -1 for the mutex-guarded
  /// fallback path.
  int slot_ = -1;
  int entry_ = -1;
};

/// RCU-style publication point for ReadViews: writers publish a new
/// immutable view with one pointer swap; readers pin the current view
/// with one acquire-load plus a hazard-slot store — no locks, no shared
/// cache-line contention between readers on different slots. Retired
/// views are reclaimed deferred, epoch-stamped: a view is freed only
/// once no hazard slot references it and it is no longer current, and
/// the registry's gauges expose how many views are live vs reclaimed.
///
/// Threading: Acquire() is wait-free for up to kMaxSlots concurrent
/// reader threads (each thread claims one slot on first use and keeps
/// it); past that, readers fall back to a mutex-guarded pin that is
/// still correct, just not lock-free. Publish() may be called from one
/// thread at a time (the service's barrier/seal path already serializes
/// it); it runs reclamation inline, so publishing is where retired
/// views die.
class ReadViewRegistry {
 public:
  /// `metrics` may be null (unmetered). Metric names are catalogued in
  /// docs/metrics.md under `read.*`.
  explicit ReadViewRegistry(obs::MetricsRegistry* metrics = nullptr);
  ~ReadViewRegistry();

  ReadViewRegistry(const ReadViewRegistry&) = delete;
  ReadViewRegistry& operator=(const ReadViewRegistry&) = delete;

  /// Pins the current view (null pin when nothing is published yet).
  ReadPin Acquire();

  /// The current view's epoch without pinning (staleness checks).
  uint64_t current_epoch() const {
    return current_epoch_.load(std::memory_order_acquire);
  }

  /// True once any view is published.
  bool has_view() const {
    return current_.load(std::memory_order_acquire) != nullptr;
  }

  /// Publishes `view` (takes ownership), retires the predecessor, and
  /// reclaims every retired view no reader still pins.
  void Publish(std::unique_ptr<const ReadView> view);

  /// Runs one reclamation pass without publishing (tests, shutdown).
  /// Returns the number of views freed.
  size_t Reclaim();

  /// Diagnostics: retired-but-unreclaimed views, and pins currently
  /// held (a scan — not for hot paths).
  size_t retired_count() const;
  size_t live_pins() const;
  uint64_t views_published() const {
    return published_.load(std::memory_order_relaxed);
  }
  uint64_t views_reclaimed() const {
    return reclaimed_.load(std::memory_order_relaxed);
  }

  /// Hazard capacity: concurrent reader threads on the lock-free path,
  /// and simultaneous pins per thread before the fallback engages.
  static constexpr int kMaxSlots = 64;
  static constexpr int kPinsPerSlot = 4;

 private:
  friend class ReadPin;

  struct Slot {
    /// Owning thread (claimed once, kept until process exit). An id is
    /// never reused while the thread lives, and a stale claim from a
    /// dead thread only wastes the slot, never corrupts it.
    std::atomic<std::thread::id> owner{};
    std::atomic<const ReadView*> hazard[kPinsPerSlot];
  };

  struct Retired {
    const ReadView* view = nullptr;
    uint64_t epoch = 0;
  };

  /// The calling thread's slot index, claiming one on first use; -1
  /// when the table is full (fallback path).
  int LocalSlotIndex();

  void Release(ReadPin* pin);
  size_t ReclaimLocked();

  std::atomic<const ReadView*> current_{nullptr};
  std::atomic<uint64_t> current_epoch_{0};
  Slot slots_[kMaxSlots];

  /// Publisher-side state (publish + reclaim + fallback pins).
  mutable std::mutex retire_mutex_;
  std::vector<Retired> retired_;
  /// Views pinned through the fallback path (slot table exhausted):
  /// view -> outstanding pin count.
  std::vector<std::pair<const ReadView*, uint64_t>> fallback_pins_;

  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> reclaimed_{0};

  obs::Counter* published_metric_ = nullptr;
  obs::Counter* reclaimed_metric_ = nullptr;
  obs::Gauge* view_epoch_metric_ = nullptr;
  obs::Gauge* views_retired_metric_ = nullptr;
};

/// Assembles the next ReadView incrementally from the previous one:
/// the publisher asks NeedsShard() per shard, rebuilds only the slices
/// whose state version moved (SetSlice), and Finish() grafts the
/// untouched slices from `prev` by shared_ptr — so a seal that touched
/// one shard republished the other N-1 slices for free and only patches
/// the id map for the rebuilt shard's members.
class ReadViewBuilder {
 public:
  /// `prev` may be null (first publish) but must otherwise cover the
  /// same shard count. The builder borrows `prev` for the duration —
  /// the caller must hold a pin (or otherwise keep it alive) until
  /// Finish() returns.
  ReadViewBuilder(const ReadView* prev, uint32_t num_shards, uint64_t epoch,
                  uint64_t sequence);

  /// True when the shard's slice must be rebuilt: no previous view, or
  /// the shard's state version moved since `prev` was cut.
  bool NeedsShard(uint32_t shard, uint64_t version) const;

  /// Installs a freshly built slice (clusters sorted by first member,
  /// members ascending — the canonical shard form).
  void SetSlice(std::shared_ptr<const ReadViewSlice> slice);

  /// Assembles the view. `measure` (may be null → k-NN disabled) must
  /// outlive the returned view; it is the service's similarity measure,
  /// whose batch kernel scores k-nearest-cluster queries.
  std::unique_ptr<const ReadView> Finish(const SimilarityMeasure* measure);

 private:
  const ReadView* prev_;
  std::unique_ptr<ReadView> view_;
  std::vector<char> fresh_;
};

}  // namespace dynamicc

#endif  // DYNAMICC_SERVICE_READ_VIEW_H_
