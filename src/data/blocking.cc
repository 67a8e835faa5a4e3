#include "data/blocking.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/string_utils.h"

namespace dynamicc {

// ---------------------------------------------------------------- AllPairs

std::vector<ObjectId> AllPairsBlocker::Candidates(const Record& record) const {
  std::vector<ObjectId> out;
  out.reserve(objects_.size());
  for (ObjectId id : objects_) {
    if (id != record.id) out.push_back(id);
  }
  return out;
}

void AllPairsBlocker::Add(const Record& record) { objects_.insert(record.id); }

void AllPairsBlocker::Remove(const Record& record) {
  objects_.erase(record.id);
}

void AllPairsBlocker::Update(const Record& old_record,
                             const Record& new_record) {
  (void)old_record;
  objects_.insert(new_record.id);
}

// ------------------------------------------------------------ TokenBlocker

TokenBlocker::TokenBlocker(int prefix_len, size_t max_bucket)
    : prefix_len_(prefix_len), max_bucket_(max_bucket) {}

std::vector<std::string> TokenBlocker::KeysFor(const Record& record) const {
  std::vector<std::string> keys;
  auto add_token = [&keys, this](const std::string& raw) {
    std::string token = ToLowerAscii(raw);
    if (token.size() < 2) return;
    keys.push_back(token);
    if (prefix_len_ > 0 && static_cast<int>(token.size()) > prefix_len_) {
      keys.push_back("p:" + token.substr(0, prefix_len_));
    }
  };
  for (const auto& token : record.tokens) add_token(token);
  if (record.tokens.empty() && !record.text.empty()) {
    for (const auto& token : SplitTokens(record.text)) add_token(token);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

std::vector<ObjectId> TokenBlocker::Candidates(const Record& record) const {
  std::unordered_set<ObjectId> seen;
  for (const auto& key : KeysFor(record)) {
    auto it = index_.find(key);
    if (it == index_.end()) continue;
    if (it->second.size() > max_bucket_) continue;  // stop-word-like key
    for (ObjectId id : it->second) {
      if (id != record.id) seen.insert(id);
    }
  }
  return {seen.begin(), seen.end()};
}

void TokenBlocker::Add(const Record& record) {
  for (const auto& key : KeysFor(record)) index_[key].insert(record.id);
}

void TokenBlocker::Remove(const Record& record) {
  for (const auto& key : KeysFor(record)) {
    auto it = index_.find(key);
    if (it == index_.end()) continue;
    it->second.erase(record.id);
    if (it->second.empty()) index_.erase(it);
  }
}

void TokenBlocker::Update(const Record& old_record, const Record& new_record) {
  Remove(old_record);
  Add(new_record);
}

// ---------------------------------------------------------- StableShardKey

std::string StableShardKey(const Record& record, double numeric_cell) {
  auto smallest_lowercase = [](const std::vector<std::string>& tokens) {
    std::string best;
    for (const auto& raw : tokens) {
      std::string token = ToLowerAscii(raw);
      // Same filter as TokenBlocker::KeysFor: 1-character tokens are not
      // blocking keys, so they must not influence routing either (two
      // records with identical blocking keys have to co-locate).
      if (token.size() < 2) continue;
      if (best.empty() || token < best) best = token;
    }
    return best;
  };
  if (!record.tokens.empty()) {
    std::string key = smallest_lowercase(record.tokens);
    if (!key.empty()) return key;
  }
  if (!record.text.empty()) {
    std::string key = smallest_lowercase(SplitTokens(record.text));
    if (!key.empty()) return key;
  }
  if (!record.numeric.empty()) {
    DYNAMICC_CHECK_GT(numeric_cell, 0.0);
    int64_t cell =
        static_cast<int64_t>(std::floor(record.numeric[0] / numeric_cell));
    return "n:" + std::to_string(cell);
  }
  return "";
}

uint64_t BlockingKeyHash(const std::string& key) {
  // FNV-1a, 64-bit. Chosen over std::hash for a stable value across
  // standard libraries and process runs (HashShardRouter::HashKey pins
  // the same constants in its tests).
  uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : key) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t StableShardKeyHash(const Record& record, double numeric_cell) {
  return BlockingKeyHash(StableShardKey(record, numeric_cell));
}

// ------------------------------------------------------------- GridBlocker

GridBlocker::GridBlocker(double cell_size) : cell_size_(cell_size) {
  DYNAMICC_CHECK_GT(cell_size, 0.0);
}

void GridBlocker::CellCoords(const Record& record, int64_t coords[3]) const {
  for (int d = 0; d < 3; ++d) {
    double v = d < static_cast<int>(record.numeric.size()) ? record.numeric[d]
                                                           : 0.0;
    coords[d] = static_cast<int64_t>(std::floor(v / cell_size_));
  }
}

GridBlocker::CellKey GridBlocker::PackCoords(const int64_t coords[3]) {
  // 21 bits per signed coordinate; plenty for our synthetic extents.
  auto pack = [](int64_t c) -> uint64_t {
    return static_cast<uint64_t>(c + (1 << 20)) & ((1 << 21) - 1);
  };
  return (pack(coords[0]) << 42) | (pack(coords[1]) << 21) | pack(coords[2]);
}

GridBlocker::CellKey GridBlocker::KeyFor(const Record& record) const {
  int64_t coords[3];
  CellCoords(record, coords);
  return PackCoords(coords);
}

std::vector<ObjectId> GridBlocker::Candidates(const Record& record) const {
  int64_t base[3];
  CellCoords(record, base);
  std::vector<ObjectId> out;
  int dims = std::min<int>(3, static_cast<int>(record.numeric.size()));
  int64_t probe[3];
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dz = -1; dz <= 1; ++dz) {
        if (dims < 2 && dy != 0) continue;
        if (dims < 3 && dz != 0) continue;
        probe[0] = base[0] + dx;
        probe[1] = base[1] + dy;
        probe[2] = base[2] + dz;
        auto it = cells_.find(PackCoords(probe));
        if (it == cells_.end()) continue;
        for (ObjectId id : it->second) {
          if (id != record.id) out.push_back(id);
        }
      }
    }
  }
  return out;
}

void GridBlocker::Add(const Record& record) {
  cells_[KeyFor(record)].insert(record.id);
}

void GridBlocker::Remove(const Record& record) {
  auto it = cells_.find(KeyFor(record));
  if (it == cells_.end()) return;
  it->second.erase(record.id);
  if (it->second.empty()) cells_.erase(it);
}

void GridBlocker::Update(const Record& old_record, const Record& new_record) {
  Remove(old_record);
  Add(new_record);
}

}  // namespace dynamicc
