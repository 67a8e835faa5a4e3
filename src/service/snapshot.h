#ifndef DYNAMICC_SERVICE_SNAPSHOT_H_
#define DYNAMICC_SERVICE_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace dynamicc {

/// On-disk format of the durable service snapshots written by
/// ShardedDynamicCService::SaveSnapshot (implemented in snapshot.cc):
/// one directory holding
///
///   MANIFEST       format version, epoch, shard count, placement
///                  version, and a (name, size, FNV-1a-64) line per
///                  payload file — the integrity root. LoadSnapshot
///                  re-hashes every payload against it, so corruption
///                  and truncation anywhere are detected before any
///                  state is touched.
///   service.dat    the cross-shard state: placement table (version +
///                  overrides), global id -> (shard, local, group) map,
///                  group ownership, cumulative service counters, the
///                  open epoch and serving flag.
///   shard-<i>.dat  one per shard: dataset records (tombstones
///                  included — id assignment must continue unchanged),
///                  the id-exact clustering, session cadence state,
///                  trainer sample sets, and the fitted models.
///
/// Everything is line-oriented text; doubles are written with 17
/// significant digits (exact round trip) and strings length-prefixed
/// (arbitrary bytes survive; wire conventions in util/wire.h).
/// Similarity graphs and cluster aggregates are *not* stored: both
/// re-derive deterministically from the dataset (the same property live
/// group migration already relies on).
///
/// Writes are crash-atomic: SaveSnapshot stages the whole directory in
/// a "<dir>.saving" scratch (manifest last) and publishes by
/// rename-aside (previous snapshot to "<dir>.old", scratch into place,
/// backup dropped last), so a kill at any point leaves at least one
/// complete snapshot on disk — and a half-written directory, should
/// one ever be pointed at, is missing its manifest or fails its
/// checksums and is rejected on load.

/// Bumped whenever the layout changes incompatibly; LoadSnapshot
/// rejects other versions.
inline constexpr uint64_t kSnapshotFormatVersion = 2;

/// Header of a snapshot directory, readable without loading it.
struct SnapshotInfo {
  uint64_t format_version = 0;
  /// The flush epoch the snapshot was sealed at: every operation of
  /// epochs <= this is reflected, none later.
  uint64_t epoch = 0;
  uint32_t num_shards = 0;
  uint64_t placement_version = 0;
};

/// FNV-1a 64 over a byte string — the per-file checksum in MANIFEST
/// (same stable hash family as BlockingKeyHash, no std::hash).
uint64_t SnapshotChecksum(const std::string& bytes);

/// Reads and validates `dir`/MANIFEST's header fields (format version
/// check included; per-file checksums are verified by LoadSnapshot).
Status ReadSnapshotInfo(const std::string& dir, SnapshotInfo* info);

}  // namespace dynamicc

#endif  // DYNAMICC_SERVICE_SNAPSHOT_H_
