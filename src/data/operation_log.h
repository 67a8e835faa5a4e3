#ifndef DYNAMICC_DATA_OPERATION_LOG_H_
#define DYNAMICC_DATA_OPERATION_LOG_H_

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "data/operations.h"
#include "data/types.h"

namespace dynamicc {

/// Append-only, sequence-numbered operation buffer with per-key
/// coalescing: operations queued behind an ingestion boundary shrink
/// before they are paid for. The folds mirror §6.1 composition on a
/// single object, so draining the log and applying the survivors leaves
/// a dataset in exactly the state the raw stream would have:
///
///   add(x)    then update(x)  ->  add(x) with the updated record
///   update(x) then update(x)  ->  the later update wins
///   update(x) then remove(x)  ->  remove(x)
///   add(x)    then remove(x)  ->  both vanish (x never materializes)
///
/// Identity: removes and updates name their target via `op.target`. An
/// add has no id yet, so the *producer* stamps `op.target` with the id
/// the add will materialize as (the service uses its pre-assigned
/// global id); later operations on that id then fold into the pending
/// add. Adds appended with `target == kInvalidObject` are opaque and
/// never coalesce.
///
/// Ordering: surviving entries drain in arrival order, and a fold keeps
/// its host entry's position. Reordering an operation relative to
/// operations on *other* objects is safe — within a batch, operations
/// on distinct objects commute except for add-id assignment, and folds
/// never reorder adds.
///
/// Not thread-safe; callers (the service's per-shard queues) hold their
/// own lock.
class OperationLog {
 public:
  /// One drained batch: the surviving operations plus how many appended
  /// (logical) operations they represent — a fold counts toward the
  /// batch that drains its host entry. Operations annihilated in place
  /// (add+remove pairs and the add's riders) belong to no drain; they
  /// are tracked by vanished(). The books always balance:
  ///   appended() == Σ logical_ops + vanished() + pending_logical().
  struct Drained {
    OperationBatch ops;
    uint64_t logical_ops = 0;
    /// Value of `appended()` when the drain happened: everything with a
    /// sequence number below this is reflected once the batch applies.
    uint64_t end_sequence = 0;
  };

  /// Appends one operation, coalescing against pending entries on the
  /// same target. Returns the operation's sequence number (the arrival
  /// index, dense from 0 even for operations that fold away).
  uint64_t Append(DataOperation op);

  /// Drains up to `max_ops` surviving operations (0 = all) in arrival
  /// order. Pending operations on drained targets no longer coalesce.
  Drained Take(size_t max_ops = 0);

  /// The logical operations carried by surviving pending entries with
  /// sequence in [begin, end), counted without copying; folds count
  /// toward their host entry's sequence, annihilated entries not at all.
  /// What the service's epoch-seal hook reports as the sealed epochs'
  /// pending tail (replication lag) — cheap enough to sit under the seal
  /// path's locks.
  uint64_t LogicalInRange(uint64_t begin_sequence,
                          uint64_t end_sequence) const {
    uint64_t logical = 0;
    for (const Entry& entry : entries_) {
      if (entry.dead || entry.sequence < begin_sequence) continue;
      if (entry.sequence >= end_sequence) break;  // entries are in order
      logical += entry.logical;
    }
    return logical;
  }

  /// Sequence number of the oldest surviving pending entry, or
  /// `appended()` when nothing is pending. Every appended operation with
  /// a sequence number below this is *reflected*: drained (its effect is
  /// applied once the drained batch is), folded into a later-drained
  /// host, or annihilated in place. The epoch watermark the service's
  /// flush-epoch machinery advances on — conservative for folds (a fold
  /// into a still-pending host keeps the host's earlier sequence as the
  /// floor, never the fold's own).
  uint64_t first_pending_sequence() const {
    for (const Entry& entry : entries_) {
      if (!entry.dead) return entry.sequence;
    }
    return appended_;
  }

  /// Surviving entries waiting to be drained (what a bounded queue
  /// meters) — annihilated pairs do not count.
  size_t pending() const { return pending_; }
  bool empty() const { return pending_ == 0; }
  /// Appended operations whose effect is still in the log (surviving
  /// entries plus everything folded into them).
  uint64_t pending_logical() const { return pending_logical_; }
  /// Total Append() calls — the next sequence number.
  uint64_t appended() const { return appended_; }
  /// Operations absorbed before application (folded or annihilated),
  /// cumulative over the log's lifetime.
  uint64_t coalesced() const { return coalesced_; }
  /// Operations that vanished through add+remove annihilation (the add,
  /// its folded riders, and the remove), cumulative. Their effect is a
  /// no-op, reflected the moment they annihilate.
  uint64_t vanished() const { return vanished_; }

 private:
  struct Entry {
    uint64_t sequence = 0;
    DataOperation op;
    /// Appended operations this entry carries (1 + folds into it).
    uint64_t logical = 1;
    /// Set when an add was cancelled by a remove; skipped on drain.
    bool dead = false;
  };

  Entry& EntryAt(size_t index) { return entries_[index - base_]; }

  std::deque<Entry> entries_;
  /// Target id -> absolute index (base_ + offset) of the pending add or
  /// update a later operation on that id folds into.
  std::unordered_map<ObjectId, size_t> open_;
  size_t base_ = 0;
  size_t pending_ = 0;
  uint64_t pending_logical_ = 0;
  uint64_t appended_ = 0;
  uint64_t coalesced_ = 0;
  uint64_t vanished_ = 0;
};

}  // namespace dynamicc

#endif  // DYNAMICC_DATA_OPERATION_LOG_H_
