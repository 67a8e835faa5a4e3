#include "service/read_view.h"

#include <algorithm>
#include <numeric>

#include "obs/metrics.h"
#include "util/logging.h"

namespace dynamicc {

// ---------------------------------------------------------------------------
// ReadView

const ReadClusterInfo* ReadView::ClusterOf(ObjectId global_id) const {
  size_t slot = static_cast<size_t>(global_id);
  if (slot >= cluster_of_.size()) return nullptr;
  const Entry& entry = cluster_of_[slot];
  if (entry.shard == kNoShard) return nullptr;
  return &slices_[entry.shard]->clusters[entry.index];
}

const ReadViewSlice& ReadView::Slice(uint32_t shard) const {
  static const ReadViewSlice kEmpty;
  if (shard >= slices_.size() || slices_[shard] == nullptr) return kEmpty;
  return *slices_[shard];
}

std::vector<std::vector<ObjectId>> ReadView::CanonicalClusters() const {
  std::vector<std::vector<ObjectId>> out;
  out.reserve(clusters_.size());
  for (const ReadClusterInfo* cluster : clusters_) {
    out.push_back(cluster->members);
  }
  return out;
}

std::vector<ReadView::Neighbor> ReadView::KNearestClusters(const Record& probe,
                                                           size_t k) const {
  std::vector<Neighbor> out;
  if (k == 0 || clusters_.empty() || measure_ == nullptr ||
      features_ == nullptr) {
    return out;
  }
  RecordFeatures probe_features;
  features_->BuildQuery(probe, &probe_features);
  std::vector<double> scores(candidates_.size(), 0.0);
  // min_similarity 0 forces exact scores for every representative (the
  // SimilarityBatch threshold contract) — ranking needs them all.
  measure_->SimilarityBatch(probe, &probe_features, candidates_.data(),
                            candidates_.size(), 0.0, scores.data());
  std::vector<uint32_t> order(candidates_.size());
  std::iota(order.begin(), order.end(), 0u);
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&scores](uint32_t a, uint32_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;  // ties: canonical cluster order
                    });
  out.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    out.push_back(Neighbor{clusters_[order[i]], scores[order[i]]});
  }
  return out;
}

// ---------------------------------------------------------------------------
// ReadViewBuilder

ReadViewBuilder::ReadViewBuilder(const ReadView* prev, uint32_t num_shards,
                                 uint64_t epoch, uint64_t sequence)
    : prev_(prev), view_(new ReadView()), fresh_(num_shards, 0) {
  if (prev_ != nullptr) {
    DYNAMICC_CHECK(prev_->num_shards() == num_shards)
        << "shard count changed across views: " << prev_->num_shards()
        << " -> " << num_shards;
  }
  view_->epoch_ = epoch;
  view_->sequence_ = sequence;
  view_->slices_.resize(num_shards);
}

bool ReadViewBuilder::NeedsShard(uint32_t shard, uint64_t version) const {
  if (prev_ == nullptr) return true;
  const std::shared_ptr<const ReadViewSlice>& slice = prev_->slices_[shard];
  return slice == nullptr || slice->version != version;
}

void ReadViewBuilder::SetSlice(std::shared_ptr<const ReadViewSlice> slice) {
  uint32_t shard = slice->shard;
  DYNAMICC_CHECK(shard < view_->slices_.size());
  view_->slices_[shard] = std::move(slice);
  fresh_[shard] = 1;
}

std::unique_ptr<const ReadView> ReadViewBuilder::Finish(
    const SimilarityMeasure* measure) {
  ReadView* view = view_.get();
  uint32_t num_shards = static_cast<uint32_t>(view->slices_.size());

  // Seed the id map from the previous view and patch only the rebuilt
  // shards, in two passes over them. Pass 1 grafts the untouched slices
  // and erases every entry a rebuilt shard's old slice owned; pass 2
  // writes every rebuilt slice's entries. Erasing and writing shard by
  // shard would tear a group that moved from a higher to a lower shard:
  // the lower shard writes the group's entries first, then the higher
  // shard erases them because its old slice owned them.
  if (prev_ != nullptr) view->cluster_of_ = prev_->cluster_of_;
  for (uint32_t shard = 0; shard < num_shards; ++shard) {
    if (!fresh_[shard]) {
      DYNAMICC_CHECK(prev_ != nullptr && prev_->slices_[shard] != nullptr)
          << "shard " << shard << " neither rebuilt nor present in prev";
      view->slices_[shard] = prev_->slices_[shard];
      continue;
    }
    if (prev_ == nullptr || prev_->slices_[shard] == nullptr) continue;
    for (const ReadClusterInfo& cluster : prev_->slices_[shard]->clusters) {
      for (ObjectId member : cluster.members) {
        if (static_cast<size_t>(member) < view->cluster_of_.size()) {
          view->cluster_of_[member] = ReadView::Entry{};
        }
      }
    }
  }
  for (uint32_t shard = 0; shard < num_shards; ++shard) {
    if (!fresh_[shard]) continue;
    const ReadViewSlice& slice = *view->slices_[shard];
    for (uint32_t index = 0; index < slice.clusters.size(); ++index) {
      for (ObjectId member : slice.clusters[index].members) {
        size_t slot = static_cast<size_t>(member);
        if (slot >= view->cluster_of_.size()) {
          view->cluster_of_.resize(slot + 1);
        }
        view->cluster_of_[slot] = ReadView::Entry{shard, index};
      }
    }
  }

  // Canonical global order: shard slices are already sorted by first
  // member and clusters are disjoint, so a global sort on the first
  // member reproduces GlobalClusters() exactly.
  size_t total_clusters = 0;
  for (const auto& slice : view->slices_) {
    total_clusters += slice->clusters.size();
  }
  view->clusters_.reserve(total_clusters);
  for (const auto& slice : view->slices_) {
    for (const ReadClusterInfo& cluster : slice->clusters) {
      view->clusters_.push_back(&cluster);
    }
  }
  std::sort(view->clusters_.begin(), view->clusters_.end(),
            [](const ReadClusterInfo* a, const ReadClusterInfo* b) {
              return a->members.front() < b->members.front();
            });

  view->stats_.clusters = view->clusters_.size();
  view->stats_.objects = 0;
  view->stats_.total_intra_sum = 0.0;
  for (const ReadClusterInfo* cluster : view->clusters_) {
    view->stats_.objects += cluster->members.size();
    view->stats_.total_intra_sum += cluster->intra_sum;
  }

  // k-NN table: representative features interned per view. Dense ids
  // follow canonical cluster order, so query results are deterministic
  // for a given view regardless of which shards were rebuilt.
  view->measure_ = measure;
  if (measure != nullptr && !view->clusters_.empty()) {
    view->features_.reset(new FeatureIndex(measure->FeatureNeeds()));
    view->candidates_.resize(view->clusters_.size());
    for (size_t i = 0; i < view->clusters_.size(); ++i) {
      view->features_->Insert(static_cast<ObjectId>(i),
                              view->clusters_[i]->representative);
    }
    // Resolve feature pointers only after every Insert: the index's
    // feature storage may reallocate while it grows.
    for (size_t i = 0; i < view->clusters_.size(); ++i) {
      view->candidates_[i] =
          SimCandidate{&view->clusters_[i]->representative,
                       view->features_->Find(static_cast<ObjectId>(i))};
    }
  }

  prev_ = nullptr;
  return std::unique_ptr<const ReadView>(view_.release());
}

// ---------------------------------------------------------------------------
// ReadPin

ReadPin::ReadPin(ReadPin&& other) noexcept
    : registry_(other.registry_),
      view_(other.view_),
      slot_(other.slot_),
      entry_(other.entry_) {
  other.registry_ = nullptr;
  other.view_ = nullptr;
  other.slot_ = -1;
  other.entry_ = -1;
}

ReadPin& ReadPin::operator=(ReadPin&& other) noexcept {
  if (this != &other) {
    if (registry_ != nullptr && view_ != nullptr) registry_->Release(this);
    registry_ = other.registry_;
    view_ = other.view_;
    slot_ = other.slot_;
    entry_ = other.entry_;
    other.registry_ = nullptr;
    other.view_ = nullptr;
    other.slot_ = -1;
    other.entry_ = -1;
  }
  return *this;
}

ReadPin::~ReadPin() {
  if (registry_ != nullptr && view_ != nullptr) registry_->Release(this);
}

// ---------------------------------------------------------------------------
// ReadViewRegistry

ReadViewRegistry::ReadViewRegistry(obs::MetricsRegistry* metrics) {
  for (Slot& slot : slots_) {
    for (auto& hazard : slot.hazard) {
      hazard.store(nullptr, std::memory_order_relaxed);
    }
  }
  if (metrics != nullptr) {
    published_metric_ = metrics->GetCounter("read.views_published");
    reclaimed_metric_ = metrics->GetCounter("read.views_reclaimed");
    view_epoch_metric_ = metrics->GetGauge("read.view_epoch");
    views_retired_metric_ = metrics->GetGauge("read.views_retired");
  }
}

ReadViewRegistry::~ReadViewRegistry() {
  // Teardown: callers must have released every pin (the service joins
  // its readers before destruction), so everything still held is ours.
  const ReadView* current = current_.exchange(nullptr);
  delete current;
  std::lock_guard<std::mutex> lock(retire_mutex_);
  for (const Retired& retired : retired_) delete retired.view;
  retired_.clear();
}

int ReadViewRegistry::LocalSlotIndex() {
  struct Cached {
    const ReadViewRegistry* registry;
    int slot;
  };
  thread_local std::vector<Cached> cache;
  const std::thread::id self = std::this_thread::get_id();
  Cached* mine = nullptr;
  for (Cached& entry : cache) {
    if (entry.registry == this) {
      // Guard against registry address reuse across lifetimes: the slot
      // is ours only if we still own it.
      if (slots_[entry.slot].owner.load(std::memory_order_relaxed) == self) {
        return entry.slot;
      }
      mine = &entry;
      break;
    }
  }
  for (int i = 0; i < kMaxSlots; ++i) {
    std::thread::id expected{};
    if (slots_[i].owner.load(std::memory_order_relaxed) ==
            std::thread::id{} &&
        slots_[i].owner.compare_exchange_strong(expected, self,
                                                std::memory_order_acq_rel)) {
      if (mine != nullptr) {
        mine->slot = i;
      } else {
        cache.push_back(Cached{this, i});
      }
      return i;
    }
  }
  return -1;
}

ReadPin ReadViewRegistry::Acquire() {
  ReadPin pin;
  int slot_index = LocalSlotIndex();
  if (slot_index >= 0) {
    Slot& slot = slots_[slot_index];
    int entry = -1;
    for (int e = 0; e < kPinsPerSlot; ++e) {
      // Entries of this slot are only ever written by the owning
      // thread, so an empty one stays empty until we take it.
      if (slot.hazard[e].load(std::memory_order_relaxed) == nullptr) {
        entry = e;
        break;
      }
    }
    if (entry >= 0) {
      // The hazard handshake: announce the candidate, then confirm it
      // is still current. seq_cst on both sides orders the announcement
      // against the publisher's post-swap hazard scan, so a view we
      // confirmed can never be freed under us.
      const ReadView* view = current_.load(std::memory_order_acquire);
      while (view != nullptr) {
        slot.hazard[entry].store(view, std::memory_order_seq_cst);
        const ReadView* check = current_.load(std::memory_order_seq_cst);
        if (check == view) break;
        view = check;
      }
      if (view == nullptr) {
        slot.hazard[entry].store(nullptr, std::memory_order_relaxed);
        return pin;
      }
      pin.registry_ = this;
      pin.view_ = view;
      pin.slot_ = slot_index;
      pin.entry_ = entry;
      return pin;
    }
  }
  // Fallback (slot table or per-slot entries exhausted): a refcount
  // under the retire mutex. Correct because reclamation also runs under
  // it — the load and the count bump are atomic w.r.t. any reclaim.
  std::lock_guard<std::mutex> lock(retire_mutex_);
  const ReadView* view = current_.load(std::memory_order_acquire);
  if (view == nullptr) return pin;
  bool found = false;
  for (auto& [pinned, count] : fallback_pins_) {
    if (pinned == view) {
      ++count;
      found = true;
      break;
    }
  }
  if (!found) fallback_pins_.emplace_back(view, 1);
  pin.registry_ = this;
  pin.view_ = view;
  return pin;
}

void ReadViewRegistry::Release(ReadPin* pin) {
  if (pin->slot_ >= 0) {
    slots_[pin->slot_].hazard[pin->entry_].store(nullptr,
                                                 std::memory_order_release);
    return;
  }
  std::lock_guard<std::mutex> lock(retire_mutex_);
  for (auto it = fallback_pins_.begin(); it != fallback_pins_.end(); ++it) {
    if (it->first == pin->view_) {
      if (--it->second == 0) fallback_pins_.erase(it);
      return;
    }
  }
  DYNAMICC_CHECK(false) << "released a fallback pin with no registration";
}

void ReadViewRegistry::Publish(std::unique_ptr<const ReadView> view) {
  DYNAMICC_CHECK(view != nullptr);
  const ReadView* raw = view.release();
  current_epoch_.store(raw->epoch(), std::memory_order_release);
  const ReadView* old = current_.exchange(raw, std::memory_order_seq_cst);
  published_.fetch_add(1, std::memory_order_relaxed);
  if (published_metric_ != nullptr) published_metric_->Add();
  if (view_epoch_metric_ != nullptr) {
    view_epoch_metric_->Set(static_cast<double>(raw->epoch()));
  }
  std::lock_guard<std::mutex> lock(retire_mutex_);
  if (old != nullptr) retired_.push_back(Retired{old, old->epoch()});
  ReclaimLocked();
  if (views_retired_metric_ != nullptr) {
    views_retired_metric_->Set(static_cast<double>(retired_.size()));
  }
}

size_t ReadViewRegistry::Reclaim() {
  std::lock_guard<std::mutex> lock(retire_mutex_);
  size_t freed = ReclaimLocked();
  if (views_retired_metric_ != nullptr) {
    views_retired_metric_->Set(static_cast<double>(retired_.size()));
  }
  return freed;
}

size_t ReadViewRegistry::ReclaimLocked() {
  if (retired_.empty()) return 0;
  std::vector<const ReadView*> protected_views;
  for (const Slot& slot : slots_) {
    for (const auto& hazard : slot.hazard) {
      const ReadView* view = hazard.load(std::memory_order_seq_cst);
      if (view != nullptr) protected_views.push_back(view);
    }
  }
  for (const auto& [view, count] : fallback_pins_) {
    (void)count;
    protected_views.push_back(view);
  }
  const ReadView* current = current_.load(std::memory_order_seq_cst);
  size_t freed = 0;
  auto alive_end = std::remove_if(
      retired_.begin(), retired_.end(),
      [&](const Retired& retired) {
        if (retired.view == current) return false;
        if (std::find(protected_views.begin(), protected_views.end(),
                      retired.view) != protected_views.end()) {
          return false;
        }
        delete retired.view;
        ++freed;
        return true;
      });
  retired_.erase(alive_end, retired_.end());
  if (freed > 0) {
    reclaimed_.fetch_add(freed, std::memory_order_relaxed);
    if (reclaimed_metric_ != nullptr) reclaimed_metric_->Add(freed);
  }
  return freed;
}

size_t ReadViewRegistry::retired_count() const {
  std::lock_guard<std::mutex> lock(retire_mutex_);
  return retired_.size();
}

size_t ReadViewRegistry::live_pins() const {
  std::lock_guard<std::mutex> lock(retire_mutex_);
  size_t pins = 0;
  for (const Slot& slot : slots_) {
    for (const auto& hazard : slot.hazard) {
      if (hazard.load(std::memory_order_seq_cst) != nullptr) ++pins;
    }
  }
  for (const auto& [view, count] : fallback_pins_) {
    (void)view;
    pins += count;
  }
  return pins;
}

}  // namespace dynamicc
