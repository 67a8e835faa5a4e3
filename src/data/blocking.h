#ifndef DYNAMICC_DATA_BLOCKING_H_
#define DYNAMICC_DATA_BLOCKING_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "data/dataset.h"
#include "data/record.h"
#include "data/types.h"

namespace dynamicc {

/// Produces, for a given record, the set of existing objects that could be
/// similar to it (candidate pairs). The similarity graph only scores
/// candidate pairs, which is what makes the system scale past quadratic
/// pair enumeration — the standard blocking technique from record linkage.
///
/// Implementations maintain their own index and are informed of object
/// lifecycle through Add/Remove/Update.
class CandidateProvider {
 public:
  virtual ~CandidateProvider() = default;

  /// Candidates among currently indexed objects for `record` (which may or
  /// may not itself be indexed; it is excluded from the result if it is).
  virtual std::vector<ObjectId> Candidates(const Record& record) const = 0;

  virtual void Add(const Record& record) = 0;
  virtual void Remove(const Record& record) = 0;

  /// Replaces the indexed representation of record.id.
  virtual void Update(const Record& old_record, const Record& new_record) = 0;
};

/// Trivial quadratic blocker: every indexed object is a candidate. Intended
/// for small datasets and for tests that need exhaustive pair coverage.
class AllPairsBlocker final : public CandidateProvider {
 public:
  std::vector<ObjectId> Candidates(const Record& record) const override;
  void Add(const Record& record) override;
  void Remove(const Record& record) override;
  void Update(const Record& old_record, const Record& new_record) override;

 private:
  std::unordered_set<ObjectId> objects_;
};

/// Inverted-index blocker over textual keys. The key set of a record is its
/// lowercase tokens plus (optionally) the first `prefix_len` characters of
/// each token — two records are candidates if they share at least one key.
class TokenBlocker final : public CandidateProvider {
 public:
  /// `prefix_len` == 0 disables prefix keys. `max_bucket` bounds the size of
  /// one posting list; oversized buckets (stop-word-like keys) are skipped
  /// during candidate lookup to bound cost.
  explicit TokenBlocker(int prefix_len = 0, size_t max_bucket = 512);

  std::vector<ObjectId> Candidates(const Record& record) const override;
  void Add(const Record& record) override;
  void Remove(const Record& record) override;
  void Update(const Record& old_record, const Record& new_record) override;

 private:
  std::vector<std::string> KeysFor(const Record& record) const;

  int prefix_len_;
  size_t max_bucket_;
  std::unordered_map<std::string, std::unordered_set<ObjectId>> index_;
};

/// Stable shard key of a record — the content-derived key that
/// hash-of-blocking-key routing (see service/shard_router.h) partitions
/// on. Deterministic across processes and ingest order (no std::hash):
///  - token records : the lexicographically smallest lowercase token of
///    length >= 2 (the same filter TokenBlocker applies to its keys, so
///    routing never disagrees with blocking),
///  - text records  : likewise over the whitespace tokens of `text`,
///  - numeric records: the floor cell of numeric[0] with side
///    `numeric_cell`. Unlike the token branch this does NOT mirror the
///    blocker: GridBlocker treats adjacent cells as candidates, so a
///    similar pair straddling a cell boundary can land on different
///    shards. Numeric routing is an approximation — align the cell
///    with the workload's cluster separation to bound the error, or
///    supply a custom KeyExtractor for exactness.
///  - empty records : "".
/// Two records that can be similar end up on the same shard exactly when
/// they share this key, so the guarantee is workload-dependent: it holds
/// for blocking-disjoint streams (each entity's records share their first
/// key and no key crosses entities), which is the partitioning regime the
/// sharded service is designed for.
std::string StableShardKey(const Record& record, double numeric_cell = 8.0);

/// Stable 64-bit FNV-1a hash of a blocking-group key. This is the
/// *identity of a blocking group* throughout the serving stack: the hash
/// router reduces it modulo the shard count, the placement table keys
/// its overrides on it, and migrations name the group they move by it.
/// Deterministic across processes and standard libraries (no std::hash),
/// so persisted placements never reshuffle.
uint64_t BlockingKeyHash(const std::string& key);

/// BlockingKeyHash of a record's StableShardKey — the group a record
/// belongs to under default content-addressed routing.
uint64_t StableShardKeyHash(const Record& record, double numeric_cell = 8.0);

/// Spatial grid blocker for numeric records. Cells have side `cell_size`;
/// candidates are all objects in the record's cell and the 3^d adjacent
/// cells (d capped at 3 dimensions; extra dimensions are ignored for
/// blocking but still participate in similarity).
class GridBlocker final : public CandidateProvider {
 public:
  explicit GridBlocker(double cell_size);

  std::vector<ObjectId> Candidates(const Record& record) const override;
  void Add(const Record& record) override;
  void Remove(const Record& record) override;
  void Update(const Record& old_record, const Record& new_record) override;

 private:
  using CellKey = uint64_t;
  CellKey KeyFor(const Record& record) const;
  void CellCoords(const Record& record, int64_t coords[3]) const;
  static CellKey PackCoords(const int64_t coords[3]);

  double cell_size_;
  std::unordered_map<CellKey, std::unordered_set<ObjectId>> cells_;
};

}  // namespace dynamicc

#endif  // DYNAMICC_DATA_BLOCKING_H_
