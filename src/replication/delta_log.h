#ifndef DYNAMICC_REPLICATION_DELTA_LOG_H_
#define DYNAMICC_REPLICATION_DELTA_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/operations.h"
#include "data/types.h"
#include "service/sharded_service.h"
#include "util/status.h"

namespace dynamicc {

/// On-disk replication journal: one directory holding
///
///   base-<E>/        full service snapshots (service/snapshot.h format,
///                    crash-atomic) cut at sealed epoch E — what a fresh
///                    follower restores.
///   delta-<E>.dat    one file per sealed epoch: every event the primary
///                    processed while epoch E was open, in serialization
///                    order. Checksummed and published atomically
///                    (written to "*.tmp", renamed), so a reader never
///                    sees a torn delta; truncation and corruption are
///                    rejected via the header's size + FNV-1a-64.
///
/// A delta carries the *admitted* stream verbatim — batches exactly as
/// the primary's ingest boundary accepted them, adds stamped with their
/// assigned global ids — rather than a pre-coalesced form: replaying it
/// through a follower's own ingest boundary then reproduces not just the
/// clustering but the admission-side counters and dense id assignment
/// byte for byte (coalescing, where wanted, happens in the follower's
/// own queues). Base + deltas together are the ROADMAP's incremental
/// snapshot: the pair materializes "the service at epoch E" for any
/// sealed E without the primary rewriting its full state per epoch.
struct ReplicationEvent {
  enum class Kind { kBatch, kMigration, kBarrier };
  Kind kind = Kind::kBatch;

  /// kBatch: one admitted batch in admission order (global-id targets).
  OperationBatch ops;

  /// kMigration: MigrateGroup(group, to_shard) — replayed to keep
  /// placement versions and group ownership in lockstep.
  uint64_t group = 0;
  uint32_t to_shard = 0;

  /// kBarrier: which barrier ran and the changed-object hints (global
  /// ids) its rounds were seeded with. Replaying barriers in stream
  /// order reproduces the primary's round/retrain schedule — models
  /// included — instead of approximating it with a follower-side cadence.
  StreamObserver::Barrier barrier = StreamObserver::Barrier::kDynamic;
  std::vector<ObjectId> hints;
};

/// Bumped whenever the delta layout changes incompatibly; ReadDelta
/// rejects other versions.
inline constexpr uint64_t kDeltaFormatVersion = 1;

/// Header of one delta file, readable without parsing its events.
struct DeltaInfo {
  uint64_t format_version = 0;
  uint64_t epoch = 0;
  uint64_t event_count = 0;
  /// Operations of epochs <= this one still queued (unapplied) on the
  /// primary when the epoch sealed — the primary's replication lag at
  /// the boundary (OperationLog::LogicalInRange at the seal).
  uint64_t pending_at_seal = 0;
};

/// Reader/writer for one replication directory. Stateless apart from
/// the path: the primary's ReplicationSession writes through one
/// instance while any number of follower processes read through their
/// own. Not thread-safe per instance; concurrent *processes* are safe
/// because every publication is an atomic rename.
class DeltaLog {
 public:
  explicit DeltaLog(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Creates the directory (parents included) if needed.
  Status Init() const;

  std::string DeltaPathFor(uint64_t epoch) const;
  /// Where a base snapshot for sealed epoch `epoch` lives.
  std::string BaseDirFor(uint64_t epoch) const;

  /// Journals sealed epoch `epoch` crash-atomically. When `bytes_out`
  /// is non-null it receives the published file's size (header +
  /// payload) — the wire cost of shipping this delta.
  Status WriteDelta(uint64_t epoch, uint64_t pending_at_seal,
                    const std::vector<ReplicationEvent>& events,
                    uint64_t* bytes_out = nullptr) const;

  /// Reads, verifies (size + checksum + version) and parses one delta.
  /// `info` is optional.
  Status ReadDelta(uint64_t epoch, std::vector<ReplicationEvent>* events,
                   DeltaInfo* info = nullptr) const;

  /// What the directory currently holds, epochs ascending. In-flight
  /// "*.tmp" files and "*.saving" scratch directories are ignored.
  struct State {
    std::vector<uint64_t> bases;
    std::vector<uint64_t> deltas;
  };
  Status List(State* state) const;

  /// Compaction after a base snapshot at sealed epoch `new_base_epoch`
  /// was published: deletes every older base and every delta at or below
  /// the *previous* base's epoch. Deltas between the two bases are
  /// retained so a follower tailing live keeps advancing by replay (it
  /// already consumed everything older); a follower further behind than
  /// one base interval rebuilds from the new base instead. The log is
  /// therefore bounded by one base plus one compaction interval of
  /// deltas, regardless of stream length.
  Status Compact(uint64_t new_base_epoch) const;

 private:
  std::string dir_;
};

}  // namespace dynamicc

#endif  // DYNAMICC_REPLICATION_DELTA_LOG_H_
