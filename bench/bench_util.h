#ifndef DYNAMICC_BENCH_BENCH_UTIL_H_
#define DYNAMICC_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment-reproduction binaries. Each binary
// prints (a) a banner naming the paper artifact it regenerates, (b) the
// table/series in the same orientation the paper uses, (c) a short
// "paper-reported vs measured" note where applicable.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "util/csv.h"

namespace dynamicc {
namespace bench {

inline void Banner(const std::string& artifact, const std::string& what) {
  std::printf("=====================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), what.c_str());
  std::printf("=====================================================\n");
}

/// Default experiment scale per workload: small enough that the whole
/// bench suite runs in minutes, large enough that the paper's shapes
/// (who wins, by what factor) are visible. EXPERIMENTS.md documents the
/// scale-down relative to the paper.
inline size_t DefaultScale(WorkloadKind workload) {
  switch (workload) {
    case WorkloadKind::kCora:
      return 200;
    case WorkloadKind::kMusic:
      return 400;
    case WorkloadKind::kSynthetic:
      return 300;
    case WorkloadKind::kAccess:
      return 400;
    case WorkloadKind::kRoad:
      return 800;
  }
  return 200;
}

inline ExperimentConfig StandardConfig(WorkloadKind workload, TaskKind task) {
  ExperimentConfig config;
  config.workload = workload;
  config.task = task;
  config.scale = DefaultScale(workload);
  config.training_rounds = 2;
  return config;
}

/// Prints one latency/quality row per snapshot for a set of method series
/// (all series must cover the same snapshots).
inline void PrintLatencyTable(const std::vector<Series>& series_list) {
  std::vector<std::string> headers{"snapshot", "objects"};
  for (const auto& series : series_list) {
    headers.push_back(series.method + "_ms");
  }
  TableWriter table(headers);
  size_t rows = series_list.front().points.size();
  for (size_t i = 0; i < rows; ++i) {
    std::vector<std::string> row{
        std::to_string(series_list.front().points[i].snapshot),
        std::to_string(series_list.front().points[i].num_objects)};
    for (const auto& series : series_list) {
      row.push_back(TableWriter::Num(series.points[i].latency_ms, 1));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
}

/// Prints one objective-score row per snapshot.
inline void PrintObjectiveTable(const std::vector<Series>& series_list,
                                bool sqrt_scores = false) {
  std::vector<std::string> headers{"snapshot", "objects"};
  for (const auto& series : series_list) {
    headers.push_back(series.method + (sqrt_scores ? "_sqrt" : "_score"));
  }
  TableWriter table(headers);
  size_t rows = series_list.front().points.size();
  for (size_t i = 0; i < rows; ++i) {
    std::vector<std::string> row{
        std::to_string(series_list.front().points[i].snapshot),
        std::to_string(series_list.front().points[i].num_objects)};
    for (const auto& series : series_list) {
      double score = series.points[i].objective;
      row.push_back(TableWriter::Num(sqrt_scores ? std::sqrt(score) : score,
                                     2));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
}

/// Prints one F1 row per snapshot.
inline void PrintF1Table(const std::vector<Series>& series_list) {
  std::vector<std::string> headers{"snapshot"};
  for (const auto& series : series_list) {
    headers.push_back(series.method + "_F1");
  }
  TableWriter table(headers);
  size_t rows = series_list.front().points.size();
  for (size_t i = 0; i < rows; ++i) {
    std::vector<std::string> row{
        std::to_string(series_list.front().points[i].snapshot)};
    for (const auto& series : series_list) {
      row.push_back(TableWriter::Num(series.points[i].quality.f1));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
}

inline void Note(const std::string& text) {
  std::printf("note: %s\n", text.c_str());
}

/// Nearest-rank percentile (p in [0, 1]) of `values`, which it sorts in
/// place; 0 when empty.
inline double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  size_t index = static_cast<size_t>(p * (values->size() - 1) + 0.5);
  return (*values)[std::min(index, values->size() - 1)];
}

/// Minimal JSON emitter for benches whose output is consumed by plotting
/// or CI scripts (throughput sweeps). Handles comma placement; callers
/// keep Begin/End calls balanced. Only the types the benches need.
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Key(const std::string& name) {
    MaybeComma();
    Append(name);
    out_ += ':';
    need_comma_ = false;
    return *this;
  }

  JsonWriter& Value(const std::string& text) {
    MaybeComma();
    Append(text);
    need_comma_ = true;
    return *this;
  }
  JsonWriter& Value(const char* text) { return Value(std::string(text)); }
  JsonWriter& Value(double number) {
    MaybeComma();
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.6g", number);
    out_ += buffer;
    need_comma_ = true;
    return *this;
  }
  JsonWriter& Value(size_t number) {
    MaybeComma();
    out_ += std::to_string(number);
    need_comma_ = true;
    return *this;
  }
  JsonWriter& Value(int number) {
    MaybeComma();
    out_ += std::to_string(number);
    need_comma_ = true;
    return *this;
  }
  JsonWriter& Value(bool flag) {
    MaybeComma();
    out_ += flag ? "true" : "false";
    need_comma_ = true;
    return *this;
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char bracket) {
    MaybeComma();
    out_ += bracket;
    need_comma_ = false;
    return *this;
  }
  JsonWriter& Close(char bracket) {
    out_ += bracket;
    need_comma_ = true;
    return *this;
  }
  void MaybeComma() {
    if (need_comma_) out_ += ',';
  }
  void Append(const std::string& text) {
    out_ += '"';
    for (char c : text) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
  }

  std::string out_;
  bool need_comma_ = false;
};

}  // namespace bench
}  // namespace dynamicc

#endif  // DYNAMICC_BENCH_BENCH_UTIL_H_
