#include "data/operation_log.h"

#include <utility>

namespace dynamicc {

uint64_t OperationLog::Append(DataOperation op) {
  uint64_t sequence = appended_++;
  ++pending_logical_;
  switch (op.kind) {
    case DataOperation::Kind::kAdd: {
      size_t index = base_ + entries_.size();
      if (op.target != kInvalidObject) open_[op.target] = index;
      entries_.push_back(Entry{sequence, std::move(op), 1, false});
      ++pending_;
      break;
    }
    case DataOperation::Kind::kUpdate: {
      auto it = open_.find(op.target);
      if (it != open_.end()) {
        // add+update -> add with the new record; update+update -> the
        // later update wins. The host entry keeps its position, so add
        // order (and with it id assignment) is preserved.
        Entry& entry = EntryAt(it->second);
        entry.op.record = std::move(op.record);
        entry.logical += 1;
        ++coalesced_;
      } else {
        size_t index = base_ + entries_.size();
        open_[op.target] = index;
        entries_.push_back(Entry{sequence, std::move(op), 1, false});
        ++pending_;
      }
      break;
    }
    case DataOperation::Kind::kRemove: {
      auto it = open_.find(op.target);
      if (it != open_.end()) {
        Entry& entry = EntryAt(it->second);
        if (entry.op.kind == DataOperation::Kind::kAdd) {
          // add+remove annihilate: the object never materializes. The
          // add's folded riders were already counted as coalesced when
          // they folded; the add and this remove vanish now.
          entry.dead = true;
          pending_ -= 1;
          pending_logical_ -= entry.logical + 1;
          vanished_ += entry.logical + 1;
          coalesced_ += 2;
        } else {
          // update+remove -> remove; whatever content the update wrote
          // dies with the object.
          entry.op = std::move(op);
          entry.logical += 1;
          ++coalesced_;
        }
        open_.erase(it);
      } else {
        entries_.push_back(Entry{sequence, std::move(op), 1, false});
        ++pending_;
      }
      break;
    }
  }
  return sequence;
}

OperationLog::Drained OperationLog::Take(size_t max_ops) {
  Drained drained;
  drained.end_sequence = appended_;
  size_t budget = max_ops == 0 ? pending_ : max_ops;
  while (!entries_.empty() && (entries_.front().dead || budget > 0)) {
    Entry entry = std::move(entries_.front());
    entries_.pop_front();
    ++base_;
    if (entry.dead) continue;  // annihilated add: already accounted
    // The drained target no longer coalesces: its effect is being paid
    // for, so later operations must apply individually. Each target has
    // at most one open entry (later ops fold into it), so erasing by
    // the popped key is exact and keeps a partial drain O(taken), not
    // O(pending).
    if (entry.op.kind != DataOperation::Kind::kRemove &&
        entry.op.target != kInvalidObject) {
      open_.erase(entry.op.target);
    }
    drained.ops.push_back(std::move(entry.op));
    drained.logical_ops += entry.logical;
    pending_ -= 1;
    pending_logical_ -= entry.logical;
    budget -= 1;
  }
  if (entries_.empty()) open_.clear();
  return drained;
}

}  // namespace dynamicc
