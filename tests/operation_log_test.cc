#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/operation_log.h"
#include "data/operations.h"
#include "util/rng.h"

namespace dynamicc {
namespace {

DataOperation Add(ObjectId handle, std::string token) {
  DataOperation op;
  op.kind = DataOperation::Kind::kAdd;
  op.target = handle;  // the id this add will materialize as
  op.record.tokens = {std::move(token)};
  return op;
}

DataOperation Update(ObjectId target, std::string token) {
  DataOperation op;
  op.kind = DataOperation::Kind::kUpdate;
  op.target = target;
  op.record.tokens = {std::move(token)};
  return op;
}

DataOperation Remove(ObjectId target) {
  DataOperation op;
  op.kind = DataOperation::Kind::kRemove;
  op.target = target;
  return op;
}

TEST(OperationLog, SequencesAreDenseAndOrderIsPreserved) {
  OperationLog log;
  EXPECT_EQ(log.Append(Add(0, "a")), 0u);
  EXPECT_EQ(log.Append(Add(1, "b")), 1u);
  EXPECT_EQ(log.Append(Remove(7)), 2u);  // remove of an applied object
  EXPECT_EQ(log.pending(), 3u);
  EXPECT_EQ(log.appended(), 3u);

  OperationLog::Drained drained = log.Take();
  ASSERT_EQ(drained.ops.size(), 3u);
  EXPECT_EQ(drained.logical_ops, 3u);
  EXPECT_EQ(drained.end_sequence, 3u);
  EXPECT_EQ(drained.ops[0].kind, DataOperation::Kind::kAdd);
  EXPECT_EQ(drained.ops[0].record.tokens[0], "a");
  EXPECT_EQ(drained.ops[1].record.tokens[0], "b");
  EXPECT_EQ(drained.ops[2].kind, DataOperation::Kind::kRemove);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.pending_logical(), 0u);
  // Sequences keep counting across drains.
  EXPECT_EQ(log.Append(Add(2, "c")), 3u);
}

TEST(OperationLog, FirstPendingSequenceTracksTheReflectedPrefix) {
  OperationLog log;
  EXPECT_EQ(log.first_pending_sequence(), 0u);  // empty: everything done
  log.Append(Add(0, "a"));                      // seq 0
  log.Append(Add(1, "b"));                      // seq 1
  EXPECT_EQ(log.first_pending_sequence(), 0u);

  OperationLog::Drained drained = log.Take(1);  // drains seq 0
  ASSERT_EQ(drained.ops.size(), 1u);
  EXPECT_EQ(log.first_pending_sequence(), 1u);

  // A fold into a pending host keeps the host's earlier sequence as the
  // floor — the fold's own effect is pending until the host drains.
  log.Append(Update(1, "b2"));  // seq 2, folds into seq 1
  EXPECT_EQ(log.first_pending_sequence(), 1u);

  // Annihilated entries do not hold the watermark back.
  log.Take(0);
  log.Append(Add(5, "x"));  // seq 3
  log.Append(Remove(5));    // seq 4: annihilates seq 3 in place
  log.Append(Add(6, "y"));  // seq 5
  EXPECT_EQ(log.first_pending_sequence(), 5u);
  log.Take(0);
  EXPECT_EQ(log.first_pending_sequence(), log.appended());
}

TEST(OperationLog, AddThenUpdateFoldsIntoTheAdd) {
  OperationLog log;
  log.Append(Add(0, "old"));
  log.Append(Add(1, "other"));
  log.Append(Update(0, "new"));
  // The fold keeps the add's position, so id-assignment order holds.
  EXPECT_EQ(log.pending(), 2u);
  EXPECT_EQ(log.coalesced(), 1u);
  EXPECT_EQ(log.pending_logical(), 3u);

  OperationLog::Drained drained = log.Take();
  ASSERT_EQ(drained.ops.size(), 2u);
  EXPECT_EQ(drained.logical_ops, 3u);
  EXPECT_EQ(drained.ops[0].kind, DataOperation::Kind::kAdd);
  EXPECT_EQ(drained.ops[0].target, 0u);
  EXPECT_EQ(drained.ops[0].record.tokens[0], "new");
  EXPECT_EQ(drained.ops[1].target, 1u);
}

TEST(OperationLog, UpdateChainsKeepOnlyTheLastContent) {
  OperationLog log;
  log.Append(Update(5, "v1"));
  log.Append(Update(5, "v2"));
  log.Append(Update(5, "v3"));
  EXPECT_EQ(log.pending(), 1u);
  EXPECT_EQ(log.coalesced(), 2u);
  OperationLog::Drained drained = log.Take();
  ASSERT_EQ(drained.ops.size(), 1u);
  EXPECT_EQ(drained.logical_ops, 3u);
  EXPECT_EQ(drained.ops[0].kind, DataOperation::Kind::kUpdate);
  EXPECT_EQ(drained.ops[0].record.tokens[0], "v3");
}

TEST(OperationLog, AddThenRemoveAnnihilates) {
  OperationLog log;
  log.Append(Add(0, "a"));
  log.Append(Add(1, "doomed"));
  log.Append(Update(1, "still doomed"));
  log.Append(Remove(1));
  // Object 1 never materializes: the add (with its folded update) and
  // the remove all vanish.
  EXPECT_EQ(log.pending(), 1u);
  EXPECT_EQ(log.pending_logical(), 1u);
  EXPECT_EQ(log.coalesced(), 3u);

  OperationLog::Drained drained = log.Take();
  ASSERT_EQ(drained.ops.size(), 1u);
  EXPECT_EQ(drained.ops[0].target, 0u);
  EXPECT_TRUE(log.empty());
}

TEST(OperationLog, UpdateThenRemoveBecomesRemove) {
  OperationLog log;
  log.Append(Update(3, "overwritten"));
  log.Append(Remove(3));
  EXPECT_EQ(log.pending(), 1u);
  EXPECT_EQ(log.coalesced(), 1u);
  OperationLog::Drained drained = log.Take();
  ASSERT_EQ(drained.ops.size(), 1u);
  EXPECT_EQ(drained.ops[0].kind, DataOperation::Kind::kRemove);
  EXPECT_EQ(drained.ops[0].target, 3u);
  EXPECT_EQ(drained.logical_ops, 2u);
}

TEST(OperationLog, DrainedTargetsNoLongerCoalesce) {
  OperationLog log;
  log.Append(Add(0, "a"));
  OperationLog::Drained first = log.Take();
  ASSERT_EQ(first.ops.size(), 1u);
  // The add has been paid for; a later remove must survive on its own.
  log.Append(Remove(0));
  EXPECT_EQ(log.pending(), 1u);
  OperationLog::Drained second = log.Take();
  ASSERT_EQ(second.ops.size(), 1u);
  EXPECT_EQ(second.ops[0].kind, DataOperation::Kind::kRemove);
}

TEST(OperationLog, BoundedTakeRespectsArrivalOrderAndPurgesHandles) {
  OperationLog log;
  for (ObjectId i = 0; i < 6; ++i) {
    log.Append(Add(i, "t" + std::to_string(i)));
  }
  OperationLog::Drained first = log.Take(2);
  ASSERT_EQ(first.ops.size(), 2u);
  EXPECT_EQ(first.ops[0].target, 0u);
  EXPECT_EQ(first.ops[1].target, 1u);
  EXPECT_EQ(log.pending(), 4u);
  // Updates to a drained target append standalone; updates to a still
  // queued target fold.
  log.Append(Update(0, "late"));
  log.Append(Update(4, "folded"));
  EXPECT_EQ(log.pending(), 5u);
  EXPECT_EQ(log.coalesced(), 1u);
  OperationLog::Drained rest = log.Take();
  ASSERT_EQ(rest.ops.size(), 5u);
  EXPECT_EQ(rest.ops[2].target, 4u);
  EXPECT_EQ(rest.ops[2].record.tokens[0], "folded");
  EXPECT_EQ(rest.ops[4].kind, DataOperation::Kind::kUpdate);
  EXPECT_EQ(rest.ops[4].target, 0u);
}

TEST(OperationLog, LogicalInRangeCountsFoldsOnTheirHostAndSkipsAnnihilated) {
  OperationLog log;
  log.Append(Add(0, "a"));   // seq 0
  log.Append(Add(1, "b"));   // seq 1
  log.Append(Update(0, "a2"));  // folds into seq 0's add
  log.Append(Add(2, "c"));   // seq 3
  log.Append(Remove(2));     // annihilates seq 3
  log.Append(Add(3, "d"));   // seq 5

  // Survivors in [0, 4): the fold counts toward its host's sequence and
  // the annihilated pair is invisible.
  EXPECT_EQ(log.LogicalInRange(0, 4), 3u);
  EXPECT_EQ(log.LogicalInRange(2, 4), 0u);  // the fold is not at seq 2
  EXPECT_EQ(log.LogicalInRange(4, log.appended()), 1u);

  // Counting leaves the log as it was.
  EXPECT_EQ(log.pending(), 3u);
  EXPECT_EQ(log.pending_logical(), 4u);

  // An empty window, and a window past the tail, both count nothing.
  EXPECT_EQ(log.LogicalInRange(0, 0), 0u);
  EXPECT_EQ(log.LogicalInRange(100, 200), 0u);
}

TEST(OperationLog, LogicalInRangeBoundsMatchEpochBoundaries) {
  OperationLog log;
  log.Append(Add(0, "a"));  // epoch 1: seq 0
  log.Append(Add(1, "b"));  // epoch 1: seq 1
  const uint64_t boundary = log.appended();
  log.Append(Add(2, "c"));  // epoch 2: seq 2

  // Everything below the seal boundary is the sealed epochs' pending
  // tail — what the service reports to the replication feed at a seal.
  EXPECT_EQ(log.LogicalInRange(0, boundary), 2u);
  EXPECT_EQ(log.LogicalInRange(boundary, log.appended()), 1u);

  // Draining the first entry shrinks the sealed tail to seq 1 alone.
  log.Take(1);
  EXPECT_EQ(log.LogicalInRange(0, boundary), 1u);
  EXPECT_EQ(log.LogicalInRange(0, 1), 0u);
  EXPECT_EQ(log.LogicalInRange(1, boundary), 1u);
  EXPECT_EQ(log.first_pending_sequence(), 1u);
}

TEST(OperationLog, AddsWithoutHandlesNeverCoalesce) {
  OperationLog log;
  log.Append(Add(kInvalidObject, "opaque"));
  log.Append(Remove(kInvalidObject));  // remove of some other object
  EXPECT_EQ(log.pending(), 2u);
  EXPECT_EQ(log.coalesced(), 0u);
}

/// Ground truth: applying the coalesced drain to a Dataset must leave
/// exactly the state the raw operation stream would have. Handles are
/// the ids the dataset will assign (dense add order), so the fold rules
/// are exercised against real id assignment.
TEST(OperationLog, CoalescedDrainPreservesFinalDatasetState) {
  Rng rng(29);
  for (int trial = 0; trial < 20; ++trial) {
    // Build a random stream over future ids 0..N-1.
    OperationBatch raw;
    std::vector<ObjectId> added;   // handles of adds so far
    std::vector<bool> removed;     // per handle
    int next_handle = 0;
    for (int step = 0; step < 60; ++step) {
      double dice = rng.Uniform();
      if (dice < 0.5 || added.empty()) {
        ObjectId handle = static_cast<ObjectId>(next_handle++);
        raw.push_back(Add(handle, "v" + std::to_string(rng.Index(1000))));
        added.push_back(handle);
        removed.push_back(false);
      } else {
        ObjectId handle = added[rng.Index(added.size())];
        if (removed[handle]) continue;
        if (dice < 0.8) {
          raw.push_back(Update(handle, "u" + std::to_string(rng.Index(1000))));
        } else {
          raw.push_back(Remove(handle));
          removed[handle] = true;
        }
      }
    }

    // Reference: apply the raw stream directly (handle == dataset id
    // because adds arrive in handle order).
    Dataset reference;
    for (const DataOperation& op : raw) {
      switch (op.kind) {
        case DataOperation::Kind::kAdd: {
          Record record = op.record;
          ObjectId id = reference.Add(record);
          ASSERT_EQ(id, op.target);
          break;
        }
        case DataOperation::Kind::kUpdate:
          reference.Update(op.target, op.record);
          break;
        case DataOperation::Kind::kRemove:
          reference.Remove(op.target);
          break;
      }
    }

    // Candidate: run the stream through the log in random-size chunks,
    // draining between chunks, and apply the drains. Annihilated adds
    // never reach the dataset, so dataset ids diverge from handles —
    // track the mapping like the service does.
    Dataset candidate;
    std::unordered_map<ObjectId, ObjectId> local_of_handle;
    OperationLog log;
    size_t cursor = 0;
    uint64_t reflected = 0;
    while (cursor < raw.size() || !log.empty()) {
      size_t chunk = 1 + rng.Index(8);
      for (size_t i = 0; i < chunk && cursor < raw.size(); ++i) {
        log.Append(raw[cursor++]);
      }
      OperationLog::Drained drained = log.Take(1 + rng.Index(6));
      reflected += drained.logical_ops;
      for (const DataOperation& op : drained.ops) {
        switch (op.kind) {
          case DataOperation::Kind::kAdd: {
            Record record = op.record;
            local_of_handle[op.target] = candidate.Add(record);
            break;
          }
          case DataOperation::Kind::kUpdate:
            candidate.Update(local_of_handle.at(op.target), op.record);
            break;
          case DataOperation::Kind::kRemove:
            candidate.Remove(local_of_handle.at(op.target));
            break;
        }
      }
    }
    // The books balance: every appended operation is either represented
    // by a drained batch or vanished through annihilation.
    EXPECT_EQ(reflected + log.vanished(), log.appended());

    // Alive handles carry identical content on both sides.
    EXPECT_EQ(candidate.alive_count(), reference.alive_count());
    for (ObjectId handle = 0;
         handle < static_cast<ObjectId>(reference.total_count()); ++handle) {
      if (!reference.IsAlive(handle)) continue;
      auto it = local_of_handle.find(handle);
      ASSERT_NE(it, local_of_handle.end()) << "handle " << handle;
      ASSERT_TRUE(candidate.IsAlive(it->second));
      EXPECT_EQ(candidate.Get(it->second).tokens,
                reference.Get(handle).tokens);
    }
  }
}

}  // namespace
}  // namespace dynamicc
