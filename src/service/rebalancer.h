#ifndef DYNAMICC_SERVICE_REBALANCER_H_
#define DYNAMICC_SERVICE_REBALANCER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dynamicc {

/// Load-aware placement policy: given each blocking group's alive record
/// count and owning shard, picks group moves that relieve the straggler
/// shard. Pure decision logic — it never touches the service;
/// ShardedDynamicCService feeds it GroupLoads() and executes the
/// returned moves via MigrateGroup.
///
/// Load is alive records, nothing else: a placement balanced in records
/// stays balanced while traffic grows every group alike, so repeated
/// passes move nothing. A timed signal such as per-window round cost
/// would re-trigger moves on timing noise alone.
///
/// The policy is greedy max-straggler-relief: while the most loaded
/// shard exceeds the mean by the hysteresis factor, move its heaviest
/// movable group to the least loaded shard, provided the move strictly
/// relieves the straggler (the destination stays below the straggler's
/// pre-move load). Hysteresis keeps the placement from oscillating:
/// mild imbalance — inevitable with group-granular placement — is
/// tolerated, only a real straggler triggers surgery.
class Rebalancer {
 public:
  /// Groups smaller than this never move (surgery has fixed overhead).
  static constexpr size_t kMinGroupRecords = 2;

  struct Options {
    /// Act only when max shard load > hysteresis * mean shard load.
    double hysteresis = 1.2;
    /// Most moves per PickMoves invocation (one migration each).
    size_t max_moves = 4;
  };

  struct GroupLoad {
    uint64_t group = 0;
    uint32_t shard = 0;
    /// Alive records in the group.
    size_t records = 0;
  };

  struct Move {
    uint64_t group = 0;
    uint32_t from = 0;
    uint32_t to = 0;
  };

  explicit Rebalancer(Options options) : options_(options) {}

  /// A shard's load is the sum of its groups' records. Deterministic in
  /// its inputs: ties break on shard index and group hash, so identical
  /// loads always produce identical plans.
  std::vector<Move> PickMoves(size_t num_shards,
                              const std::vector<GroupLoad>& groups) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace dynamicc

#endif  // DYNAMICC_SERVICE_REBALANCER_H_
