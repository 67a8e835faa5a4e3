#include "service/rebalancer.h"

#include <algorithm>

namespace dynamicc {

std::vector<Rebalancer::Move> Rebalancer::PickMoves(
    size_t num_shards, const std::vector<GroupLoad>& groups) const {
  std::vector<Move> moves;
  if (num_shards < 2) return moves;

  // Shard loads, and the movable groups per shard.
  std::vector<size_t> load(num_shards, 0);
  std::vector<std::vector<GroupLoad>> per_shard(num_shards);
  size_t total = 0;
  for (const GroupLoad& group : groups) {
    if (group.shard >= num_shards) continue;
    load[group.shard] += group.records;
    total += group.records;
    if (group.records >= kMinGroupRecords) {
      per_shard[group.shard].push_back(group);
    }
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(num_shards);

  // Candidates heaviest first (ties on group hash so the plan is
  // deterministic).
  auto heavier = [](const GroupLoad& a, const GroupLoad& b) {
    if (a.records != b.records) return a.records > b.records;
    return a.group < b.group;
  };
  for (auto& candidates : per_shard) {
    std::sort(candidates.begin(), candidates.end(), heavier);
  }

  while (moves.size() < options_.max_moves) {
    size_t straggler = 0, coolest = 0;
    for (size_t s = 1; s < load.size(); ++s) {
      if (load[s] > load[straggler]) straggler = s;
      if (load[s] < load[coolest]) coolest = s;
    }
    if (static_cast<double>(load[straggler]) <= options_.hysteresis * mean) {
      break;
    }

    // Heaviest group on the straggler whose move strictly relieves it:
    // the destination must stay below the straggler's pre-move load,
    // otherwise the move just renames the straggler.
    bool moved = false;
    auto& candidates = per_shard[straggler];
    for (size_t i = 0; i < candidates.size(); ++i) {
      const size_t weight = candidates[i].records;
      if (load[coolest] + weight >= load[straggler]) continue;
      Move move;
      move.group = candidates[i].group;
      move.from = static_cast<uint32_t>(straggler);
      move.to = static_cast<uint32_t>(coolest);
      moves.push_back(move);
      load[straggler] -= weight;
      load[coolest] += weight;
      GroupLoad relocated = candidates[i];
      relocated.shard = move.to;
      candidates.erase(candidates.begin() + static_cast<long>(i));
      // Keep the destination's candidate list ordered for later rounds.
      auto& dest = per_shard[coolest];
      dest.insert(std::upper_bound(dest.begin(), dest.end(), relocated,
                                   heavier),
                  relocated);
      moved = true;
      break;
    }
    if (!moved) break;
  }
  return moves;
}

}  // namespace dynamicc
