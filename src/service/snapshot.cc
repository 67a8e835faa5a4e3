// Durable snapshots of ShardedDynamicCService (SaveSnapshot /
// LoadSnapshot) plus the format helpers declared in snapshot.h. Lives
// apart from sharded_service.cc because it is the only part of the
// service that touches the filesystem, and it pulls in the cluster/ml
// serialization layers the hot path never needs.

#include "service/snapshot.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "cluster/serialization.h"
#include "data/blocking.h"
#include "ml/serialization.h"
#include "service/sharded_service.h"
#include "util/logging.h"
#include "util/timer.h"
#include "util/wire.h"

namespace dynamicc {

namespace {

constexpr int kDoublePrecision = 17;  // round-trips IEEE doubles exactly
constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kServiceFileName = "service.dat";

std::string ShardFileName(size_t shard) {
  return "shard-" + std::to_string(shard) + ".dat";
}

struct ManifestEntry {
  std::string name;
  uint64_t size = 0;
  uint64_t checksum = 0;
};

struct Manifest {
  SnapshotInfo info;
  std::vector<ManifestEntry> files;
};

std::string RenderManifest(const Manifest& manifest) {
  std::ostringstream os;
  os << "dynamicc-snapshot " << manifest.info.format_version << "\n";
  os << "epoch " << manifest.info.epoch << "\n";
  os << "shards " << manifest.info.num_shards << "\n";
  os << "placement_version " << manifest.info.placement_version << "\n";
  os << "files " << manifest.files.size() << "\n";
  for (const ManifestEntry& entry : manifest.files) {
    os << entry.name << " " << entry.size << " " << std::hex
       << entry.checksum << std::dec << "\n";
  }
  return os.str();
}

Status ParseManifest(const std::string& bytes, Manifest* manifest) {
  std::istringstream is(bytes);
  std::string magic, tag;
  if (!(is >> magic >> manifest->info.format_version) ||
      magic != "dynamicc-snapshot") {
    return Status::InvalidArgument("not a dynamicc snapshot manifest");
  }
  if (manifest->info.format_version != kSnapshotFormatVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot format version " +
        std::to_string(manifest->info.format_version) + " (expected " +
        std::to_string(kSnapshotFormatVersion) + ")");
  }
  size_t file_count = 0;
  if (!(is >> tag >> manifest->info.epoch) || tag != "epoch" ||
      !(is >> tag >> manifest->info.num_shards) || tag != "shards" ||
      !(is >> tag >> manifest->info.placement_version) ||
      tag != "placement_version" || !(is >> tag >> file_count) ||
      tag != "files") {
    return Status::InvalidArgument("malformed snapshot manifest header");
  }
  manifest->files.resize(file_count);
  for (ManifestEntry& entry : manifest->files) {
    if (!(is >> entry.name >> entry.size >> std::hex >> entry.checksum >>
          std::dec)) {
      return Status::InvalidArgument("truncated snapshot manifest");
    }
  }
  return Status::Ok();
}

/// Reads one payload file and verifies its size + checksum against the
/// manifest before any of it is parsed.
Status ReadVerified(const std::string& dir, const Manifest& manifest,
                    const std::string& name, std::string* bytes) {
  const ManifestEntry* entry = nullptr;
  for (const ManifestEntry& candidate : manifest.files) {
    if (candidate.name == name) {
      entry = &candidate;
      break;
    }
  }
  if (entry == nullptr) {
    return Status::InvalidArgument("snapshot is missing " + name +
                                   " in its manifest");
  }
  Status status = ReadFileBytes(JoinPath(dir, name), bytes);
  if (!status.ok()) return status;
  if (bytes->size() != entry->size) {
    return Status::InvalidArgument(
        name + " is truncated or padded: " + std::to_string(bytes->size()) +
        " bytes, manifest says " + std::to_string(entry->size));
  }
  if (SnapshotChecksum(*bytes) != entry->checksum) {
    return Status::InvalidArgument(name + " failed its checksum: snapshot "
                                          "is corrupted");
  }
  return Status::Ok();
}

void WriteRecluster(std::ostream& os, const ReclusterReport& detail) {
  os << detail.iterations << " " << detail.merges_applied << " "
     << detail.splits_applied << " " << detail.merge_predicted << " "
     << detail.split_predicted << " " << detail.rejected << " "
     << detail.probability_evaluations;
}

bool ReadRecluster(std::istream& is, ReclusterReport* detail) {
  return static_cast<bool>(is >> detail->iterations >>
                           detail->merges_applied >> detail->splits_applied >>
                           detail->merge_predicted >> detail->split_predicted >>
                           detail->rejected >> detail->probability_evaluations);
}

}  // namespace

uint64_t SnapshotChecksum(const std::string& bytes) {
  // The repository's one FNV-1a 64 implementation (data/blocking.cc);
  // snapshot checksums and blocking-group identities stay the same
  // hash family by construction.
  return BlockingKeyHash(bytes);
}

Status ReadSnapshotInfo(const std::string& dir, SnapshotInfo* info) {
  std::string bytes;
  Status status = ReadFileBytes(JoinPath(dir, kManifestName), &bytes);
  if (!status.ok()) return status;
  Manifest manifest;
  status = ParseManifest(bytes, &manifest);
  if (!status.ok()) return status;
  *info = manifest.info;
  return Status::Ok();
}

Status ShardedDynamicCService::SaveSnapshot(const std::string& dir) {
  // The span/timer cover the whole save — quiesce included, since the
  // stall the service experiences is the number an operator wants.
  obs::ScopedSpan save_span(tracer_, obs::kSpanSnapshotSave,
                            obs::kServiceShard);
  ScopedTimer save_timer;
  save_timer.Record(metrics_ ? metrics_->snapshot_save_ms : nullptr);
  // Crash atomicity: every file is written into a sibling scratch
  // directory ("<dir>.saving") and the scratch is renamed into place
  // only after the manifest — the integrity root, written last — is on
  // disk. A kill at any point leaves either the previous complete
  // snapshot at `dir` (plus a stale scratch the next save sweeps away)
  // or the new complete one; a reader can never observe a half-written
  // `dir`. The one non-atomic window (previous snapshot removed, rename
  // pending) still cannot surface a half-trusted state: `dir` is simply
  // absent and the finished replacement sits in the scratch.
  const std::string scratch = dir + ".saving";
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
  if (ec) {
    // A stale scratch that cannot be swept must fail the save: writing
    // into it would publish its leftover files as part of the snapshot.
    return Status::IoError("cannot sweep stale snapshot scratch " + scratch +
                           ": " + ec.message());
  }
  std::filesystem::create_directories(scratch, ec);
  if (ec) {
    return Status::IoError("cannot create snapshot scratch " + scratch +
                           ": " + ec.message());
  }

  // Quiesce at an epoch boundary: producers are excluded (so nothing is
  // admitted past the seal), the current epoch closes, and we wait for
  // every shard to drain its queue — with no admissions racing, "epoch
  // applied everywhere" and "queues empty" coincide, which is the
  // consistent cut the files capture.
  std::lock_guard<std::mutex> ingest_lock(ingest_mutex_);
  const uint64_t epoch = CloseEpochLocked();
  save_span.set_epoch(epoch);
  // Safe while holding ingest_mutex_: Drain only touches the queue
  // mutexes, and the workers it waits on never take ingest_mutex_.
  Drain();

  // Every worker is idle between rounds now; the round mutexes pin that.
  std::vector<std::unique_lock<std::mutex>> round_locks;
  round_locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    round_locks.emplace_back(shard->round_mutex);
  }

  Manifest manifest;
  manifest.info.format_version = kSnapshotFormatVersion;
  manifest.info.epoch = epoch;
  manifest.info.num_shards = num_shards();
  manifest.info.placement_version = placement_.version();

  uint64_t total_bytes = 0;
  auto emit = [&](const std::string& name,
                  const std::string& bytes) -> Status {
    ManifestEntry entry;
    entry.name = name;
    entry.size = bytes.size();
    entry.checksum = SnapshotChecksum(bytes);
    manifest.files.push_back(entry);
    total_bytes += bytes.size();
    return WriteFileBytes(JoinPath(scratch, name), bytes);
  };

  // ------------------------------------------------------- service.dat
  {
    std::ostringstream os;
    os << std::setprecision(kDoublePrecision);
    os << "service 1\n";
    os << "open_epoch " << open_epoch_.load() << "\n";
    os << "serving " << (serving_.load() ? 1 : 0) << "\n";
    os << "counters " << rejected_batches_.load() << " "
       << rejected_ops_.load() << " " << migrations_.load() << " "
       << rounds_since_rebalance_.load() << "\n";

    std::lock_guard<std::mutex> loc_lock(locations_mutex_);
    {
      PlacementTable::View view = placement_.Current();
      // Maps are dumped in sorted key order so identical states always
      // produce identical bytes (and checksums).
      std::map<uint64_t, uint32_t> sorted(view->overrides.begin(),
                                          view->overrides.end());
      os << "placement " << view->version << " " << sorted.size() << "\n";
      for (const auto& [group, shard] : sorted) {
        os << group << " " << shard << "\n";
      }
    }
    os << "locations " << locations_.size() << "\n";
    for (const ObjectLocation& loc : locations_) {
      os << loc.shard << " " << loc.local << " " << loc.group << "\n";
    }
    {
      std::map<uint64_t, uint32_t> sorted(group_shard_.begin(),
                                          group_shard_.end());
      os << "group_shards " << sorted.size() << "\n";
      for (const auto& [group, shard] : sorted) {
        os << group << " " << shard << "\n";
      }
    }
    Status status = emit(kServiceFileName, os.str());
    if (!status.ok()) return status;
  }

  // ----------------------------------------------------- shard-<i>.dat
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::ostringstream os;
    os << std::setprecision(kDoublePrecision);
    os << "shard " << s << "\n";

    // Dataset, tombstones included: restored id assignment must continue
    // from the same total count, and tombstoned records stay readable.
    os << "dataset " << shard.dataset.total_count() << "\n";
    for (ObjectId id = 0; id < shard.dataset.total_count(); ++id) {
      const Record& record = shard.dataset.Get(id);
      // The shared record dialect (data/record.h), prefixed by the
      // snapshot's alive flag on the same header line.
      os << (shard.dataset.IsAlive(id) ? 1 : 0) << " ";
      WriteRecordWire(os, record);
    }

    Status status =
        SaveClusteringWithIds(shard.session->engine().clustering(), os);
    if (!status.ok()) return status;

    DynamicCSession::PersistentState session = shard.session->ExportState();
    os << "session " << (session.trained ? 1 : 0) << " "
       << session.rounds_since_retrain << " " << session.rounds_since_observe
       << " " << session.pending_feedback << " " << session.merge_theta
       << " " << session.split_theta << "\n";

    const EvolutionTrainer& trainer = shard.session->trainer();
    os << "trainer " << trainer.rounds_observed() << "\n";
    status = SaveSampleSet(trainer.merge_samples(), os);
    if (!status.ok()) return status;
    status = SaveSampleSet(trainer.split_samples(), os);
    if (!status.ok()) return status;

    auto save_model = [&os](const char* tag,
                            const BinaryClassifier& model) -> Status {
      os << tag << " " << (model.is_fitted() ? 1 : 0) << "\n";
      if (!model.is_fitted()) return Status::Ok();
      return SaveClassifier(model, os);
    };
    status = save_model("model_merge", shard.session->merge_model());
    if (!status.ok()) return status;
    status = save_model("model_split", shard.session->split_model());
    if (!status.ok()) return status;

    os << "state " << (shard.dirty ? 1 : 0) << " "
       << shard.pending_changed.size();
    for (ObjectId local : shard.pending_changed) os << " " << local;
    os << "\n";

    {
      std::lock_guard<std::mutex> queue_lock(shard.queue_mutex);
      os << "shard_counters " << shard.accepted_ops << " "
         << shard.applied_ops << " " << shard.applied_batches << " "
         << shard.worker_rounds << " " << shard.producer_waits << " "
         << shard.queue_high_water << " " << shard.batch_grows << " "
         << shard.batch_shrinks << " " << shard.adaptive_batch << " "
         << shard.worker_apply_ms << " " << shard.worker_round_ms << "\n";
      os << "round_detail ";
      WriteRecluster(os, shard.round_detail);
      os << "\n";
    }

    status = emit(ShardFileName(s), os.str());
    if (!status.ok()) return status;
  }

  // The manifest goes last: even a torn scratch directory (if a caller
  // ever pointed a load at one) is missing its integrity root and is
  // rejected outright.
  const std::string manifest_bytes = RenderManifest(manifest);
  total_bytes += manifest_bytes.size();
  Status status =
      WriteFileBytes(JoinPath(scratch, kManifestName), manifest_bytes);
  if (!status.ok()) return status;

  // Publish by rename-aside: the previous snapshot moves to
  // "<dir>.old", the scratch renames into place, and only then is the
  // backup dropped. At every instant at least one *complete* snapshot
  // exists on disk — a kill between the two renames leaves `dir`
  // momentarily absent, but both the backup and the replacement are
  // whole (recover by renaming either back); loads only ever trust
  // `dir`, so nothing half-written can be picked up.
  const std::string backup = dir + ".old";
  std::filesystem::remove_all(backup, ec);
  if (ec) {
    return Status::IoError("cannot sweep stale snapshot backup " + backup +
                           ": " + ec.message());
  }
  if (std::filesystem::exists(dir)) {
    std::filesystem::rename(dir, backup, ec);
    if (ec) {
      return Status::IoError("cannot set aside snapshot " + dir + ": " +
                             ec.message());
    }
  }
  std::filesystem::rename(scratch, dir, ec);
  if (ec) {
    return Status::IoError("cannot publish snapshot " + dir +
                           " (previous state preserved at " + backup +
                           "): " + ec.message());
  }
  std::filesystem::remove_all(backup, ec);  // best effort; swept next save
  if (metrics_) metrics_->snapshot_save_bytes->Add(total_bytes);
  return Status::Ok();
}

Status ShardedDynamicCService::LoadSnapshot(const std::string& dir) {
  obs::ScopedSpan load_span(tracer_, obs::kSpanSnapshotLoad,
                            obs::kServiceShard);
  ScopedTimer load_timer;
  load_timer.Record(metrics_ ? metrics_->snapshot_load_ms : nullptr);
  {
    std::lock_guard<std::mutex> loc_lock(locations_mutex_);
    if (!locations_.empty() || open_epoch_.load() != 1) {
      return Status::InvalidArgument(
          "LoadSnapshot requires a freshly constructed service");
    }
  }

  std::string manifest_bytes;
  Status status =
      ReadFileBytes(JoinPath(dir, kManifestName), &manifest_bytes);
  if (!status.ok()) return status;
  Manifest manifest;
  status = ParseManifest(manifest_bytes, &manifest);
  if (!status.ok()) return status;
  load_span.set_epoch(manifest.info.epoch);
  if (manifest.info.num_shards != num_shards()) {
    return Status::InvalidArgument(
        "snapshot holds " + std::to_string(manifest.info.num_shards) +
        " shards, service has " + std::to_string(num_shards()));
  }

  std::lock_guard<std::mutex> ingest_lock(ingest_mutex_);

  // ------------------------------------------------------- service.dat
  uint64_t open_epoch = 1;
  bool serving = false;
  std::vector<ObjectLocation> locations;
  std::unordered_map<uint64_t, uint32_t> group_shard;
  uint64_t placement_version = 0;
  std::unordered_map<uint64_t, uint32_t> placement_overrides;
  uint64_t rejected_batches = 0, rejected_ops = 0, migrations = 0;
  uint32_t rounds_since_rebalance = 0;
  {
    std::string bytes;
    status = ReadVerified(dir, manifest, kServiceFileName, &bytes);
    if (!status.ok()) return status;
    std::istringstream is(bytes);
    std::string tag;
    uint32_t file_version = 0;
    if (!(is >> tag >> file_version) || tag != "service" ||
        file_version != 1) {
      return Status::InvalidArgument("malformed service state header");
    }
    if (!(is >> tag >> open_epoch) || tag != "open_epoch") {
      return Status::InvalidArgument("malformed open_epoch");
    }
    int serving_flag = 0;
    if (!(is >> tag >> serving_flag) || tag != "serving") {
      return Status::InvalidArgument("malformed serving flag");
    }
    serving = serving_flag != 0;
    if (!(is >> tag >> rejected_batches >> rejected_ops >> migrations >>
          rounds_since_rebalance) ||
        tag != "counters") {
      return Status::InvalidArgument("malformed service counters");
    }
    size_t override_count = 0;
    if (!(is >> tag >> placement_version >> override_count) ||
        tag != "placement") {
      return Status::InvalidArgument("malformed placement header");
    }
    for (size_t i = 0; i < override_count; ++i) {
      uint64_t group = 0;
      uint32_t shard = 0;
      if (!(is >> group >> shard) || shard >= num_shards()) {
        return Status::InvalidArgument("malformed placement override");
      }
      placement_overrides[group] = shard;
    }
    size_t location_count = 0;
    // Counts gate allocations, so they are sanity-checked against the
    // (checksum-verified) file size before any container grows: a
    // hand-edited header with a bogus huge count is rejected instead of
    // aborting in a giant resize.
    if (!(is >> tag >> location_count) || tag != "locations" ||
        location_count > bytes.size()) {
      return Status::InvalidArgument("malformed locations header");
    }
    locations.resize(location_count);
    for (ObjectLocation& loc : locations) {
      if (!(is >> loc.shard >> loc.local >> loc.group) ||
          loc.shard >= num_shards()) {
        return Status::InvalidArgument("malformed location entry");
      }
    }
    size_t group_count = 0;
    if (!(is >> tag >> group_count) || tag != "group_shards") {
      return Status::InvalidArgument("malformed group_shards header");
    }
    for (size_t i = 0; i < group_count; ++i) {
      uint64_t group = 0;
      uint32_t shard = 0;
      if (!(is >> group >> shard) || shard >= num_shards()) {
        return Status::InvalidArgument("malformed group_shards entry");
      }
      group_shard[group] = shard;
    }
  }

  // ----------------------------------------------------- shard-<i>.dat
  // Parse and apply shard by shard; any error leaves the service
  // partially written, which is why LoadSnapshot demands a fresh
  // instance (the caller just constructs another on failure).
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::string bytes;
    status = ReadVerified(dir, manifest, ShardFileName(s), &bytes);
    if (!status.ok()) return status;
    std::istringstream is(bytes);
    std::string tag;
    size_t shard_index = 0;
    if (!(is >> tag >> shard_index) || tag != "shard" || shard_index != s) {
      return Status::InvalidArgument("malformed shard header");
    }

    size_t total_records = 0;
    // Counts bound allocations, so cap them by the checksum-verified
    // file size (every record/token/numeric occupies at least one byte).
    if (!(is >> tag >> total_records) || tag != "dataset" ||
        total_records > bytes.size()) {
      return Status::InvalidArgument("malformed dataset header");
    }
    std::vector<bool> alive(total_records, false);
    for (size_t r = 0; r < total_records; ++r) {
      int alive_flag = 0;
      if (!(is >> alive_flag)) {
        return Status::InvalidArgument("malformed record header");
      }
      Record record;
      status = ReadRecordWire(is, bytes.size(), &record);
      if (!status.ok()) return status;
      ObjectId id = shard.dataset.Add(std::move(record));
      DYNAMICC_CHECK_EQ(static_cast<size_t>(id), r);
      alive[r] = alive_flag != 0;
      if (!alive[r]) shard.dataset.Remove(id);
    }
    // The similarity graph re-derives from the alive records — the same
    // deterministic reconstruction live migration performs when a group
    // changes shards, so restored edges equal never-restarted ones.
    for (ObjectId id = 0; id < total_records; ++id) {
      if (alive[id]) shard.graph->AddObject(id);
    }

    Clustering clustering;
    status = LoadClusteringWithIds(is, &clustering);
    if (!status.ok()) return status;
    for (ObjectId object : clustering.AssignedObjects()) {
      if (object >= total_records || !alive[object]) {
        return Status::InvalidArgument(
            "clustering references a dead or unknown object");
      }
    }
    shard.session->engine().SetClustering(clustering);

    DynamicCSession::PersistentState session_state;
    int trained_flag = 0;
    if (!(is >> tag >> trained_flag >> session_state.rounds_since_retrain >>
          session_state.rounds_since_observe >>
          session_state.pending_feedback >> session_state.merge_theta >>
          session_state.split_theta) ||
        tag != "session") {
      return Status::InvalidArgument("malformed session state");
    }
    session_state.trained = trained_flag != 0;

    uint64_t trainer_rounds = 0;
    if (!(is >> tag >> trainer_rounds) || tag != "trainer") {
      return Status::InvalidArgument("malformed trainer state");
    }
    SampleSet merge_samples, split_samples;
    status = LoadSampleSet(is, &merge_samples);
    if (!status.ok()) return status;
    status = LoadSampleSet(is, &split_samples);
    if (!status.ok()) return status;

    auto load_model = [&is](const char* expected_tag,
                            BinaryClassifier* model) -> Status {
      std::string model_tag;
      int fitted = 0;
      if (!(is >> model_tag >> fitted) || model_tag != expected_tag) {
        return Status::InvalidArgument("malformed model header");
      }
      if (fitted == 0) return Status::Ok();
      return LoadClassifierInto(is, model);
    };
    status = load_model("model_merge", shard.session->mutable_merge_model());
    if (!status.ok()) return status;
    status = load_model("model_split", shard.session->mutable_split_model());
    if (!status.ok()) return status;

    shard.session->ImportState(session_state);
    shard.session->mutable_trainer()->RestoreState(
        std::move(merge_samples), std::move(split_samples), trainer_rounds);

    int dirty_flag = 0;
    size_t pending_count = 0;
    if (!(is >> tag >> dirty_flag >> pending_count) || tag != "state" ||
        pending_count > bytes.size()) {
      return Status::InvalidArgument("malformed shard state");
    }
    shard.dirty = dirty_flag != 0;
    shard.pending_changed.resize(pending_count);
    for (ObjectId& local : shard.pending_changed) {
      if (!(is >> local)) {
        return Status::InvalidArgument("malformed pending_changed");
      }
    }

    if (!(is >> tag >> shard.accepted_ops >> shard.applied_ops >>
          shard.applied_batches >> shard.worker_rounds >>
          shard.producer_waits >> shard.queue_high_water >>
          shard.batch_grows >> shard.batch_shrinks >> shard.adaptive_batch >>
          shard.worker_apply_ms >> shard.worker_round_ms) ||
        tag != "shard_counters") {
      return Status::InvalidArgument("malformed shard counters");
    }
    if (!(is >> tag) || tag != "round_detail" ||
        !ReadRecluster(is, &shard.round_detail)) {
      return Status::InvalidArgument("malformed round detail");
    }

    // Rebuild the local->global column of the id map; the global->local
    // direction is validated against it below.
    shard.global_of_local.assign(total_records, kInvalidObject);
  }

  // ----------------------------------------------- cross-shard wiring
  {
    std::lock_guard<std::mutex> loc_lock(locations_mutex_);
    locations_ = std::move(locations);
    group_shard_ = std::move(group_shard);
    group_members_.clear();
    group_alive_.clear();
    for (size_t global = 0; global < locations_.size(); ++global) {
      const ObjectLocation& loc = locations_[global];
      // locations_ is ordered by admission, so appending here rebuilds
      // each group's admission-ordered member list exactly.
      group_members_[loc.group].push_back(static_cast<ObjectId>(global));
      if (loc.local == kInvalidObject) continue;  // annihilated in a queue
      Shard& shard = *shards_[loc.shard];
      if (loc.local >= shard.global_of_local.size()) {
        return Status::InvalidArgument("location points past its shard");
      }
      if (shard.global_of_local[loc.local] != kInvalidObject) {
        return Status::InvalidArgument("two globals share one local id");
      }
      shard.global_of_local[loc.local] = static_cast<ObjectId>(global);
      if (shard.dataset.IsAlive(loc.local)) {
        group_alive_[loc.group] += 1;
      }
    }
    // Local ids never mapped by any location are slots whose object
    // migrated away (the tombstone stays, the identity moved): legal,
    // and never dereferenced again.
  }

  placement_.Restore(placement_version, std::move(placement_overrides));
  rejected_batches_.store(rejected_batches);
  rejected_ops_.store(rejected_ops);
  migrations_.store(migrations);
  rounds_since_rebalance_.store(rounds_since_rebalance);
  open_epoch_.store(open_epoch);
  for (const auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> queue_lock(shard_ptr->queue_mutex);
    // Every epoch the saved service sealed was applied before the save.
    shard_ptr->applied_epoch = open_epoch - 1;
  }
  serving_.store(serving, std::memory_order_release);
  if (metrics_) {
    // Manifest entry sizes are checksum-verified against what was read.
    uint64_t total_bytes = manifest_bytes.size();
    for (const ManifestEntry& entry : manifest.files) {
      total_bytes += entry.size;
    }
    metrics_->snapshot_load_bytes->Add(total_bytes);
  }
  return Status::Ok();
}

}  // namespace dynamicc
