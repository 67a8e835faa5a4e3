#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <unordered_map>

#include "cluster/engine.h"
#include "data/similarity_graph.h"
#include "ml/logistic_regression.h"

namespace perfbench {

double NowUs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

namespace {

/// Fields of /proc/self/status in kB ("VmHWM:", "VmRSS:"), as MiB.
double ProcStatusMb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t length = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, length, field) == 0) {
      std::istringstream fields(line.substr(length));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

constexpr size_t kProbeEntries = 400000;
constexpr size_t kProbeLookups = 20000;

struct SpeedProbeTable {
  std::unordered_map<uint64_t, uint64_t> map;
  std::vector<uint64_t> keys;
};
std::unique_ptr<SpeedProbeTable> probe_table;
volatile uint64_t probe_sink = 0;

}  // namespace

double InitSpeedProbe() {
  const double before = ProcStatusMb("VmRSS:");
  probe_table = std::make_unique<SpeedProbeTable>();
  std::mt19937_64 rng(0x5eedu);
  probe_table->map.reserve(kProbeEntries);
  for (size_t i = 0; i < kProbeEntries; ++i) {
    const uint64_t key = rng();
    probe_table->map[key] = i;
    probe_table->keys.push_back(key);
  }
  std::shuffle(probe_table->keys.begin(), probe_table->keys.end(), rng);
  return ProcStatusMb("VmRSS:") - before;
}

double SpeedProbeUs() {
  const auto& keys = probe_table->keys;
  const double start = NowUs();
  uint64_t sum = 0;
  for (size_t i = 0; i < kProbeLookups; ++i) {
    sum += probe_table->map.find(keys[(i * 7919u) % keys.size()])->second;
  }
  probe_sink = probe_sink + sum;
  return NowUs() - start;
}

void ProbeSpeed(int count, PassResult* pass) {
  for (int i = 0; i < count; ++i) pass->probe_us.push_back(SpeedProbeUs());
}

void SpanLog::Add(const char* name, double start_us, double end_us,
                  uint64_t trace) {
  Span span;
  span.name = name;
  span.start_us = start_us;
  span.end_us = end_us;
  span.id = ++next_id_;
  span.parent = current_;
  span.trace = trace;
  spans_.push_back(span);
}

Scope::Scope(SpanLog* log, const char* name, uint64_t trace) : log_(log) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.trace = trace;
  span_.id = ++log_->next_id_;
  span_.parent = log_->current_;
  log_->current_ = span_.id;
  span_.start_us = NowUs();
}

Scope::~Scope() {
  if (log_ == nullptr) return;
  span_.end_us = NowUs();
  log_->current_ = span_.parent;
  log_->spans_.push_back(span_);
}

dynamicc::ExperimentConfig CorrelationConfig(dynamicc::WorkloadKind kind) {
  dynamicc::ExperimentConfig config;
  config.workload = kind;
  config.task = dynamicc::TaskKind::kCorrelation;
  return config;
}

Clusters BatchFromScratch(const dynamicc::Dataset& dataset,
                          dynamicc::WorkloadKind kind) {
  dynamicc::DatasetProfile profile = dynamicc::MakeProfile(kind);
  dynamicc::SimilarityGraph graph(&dataset, profile.measure.get(),
                                  std::move(profile.blocker),
                                  profile.min_similarity);
  for (ObjectId id : dataset.AliveIds()) graph.AddObject(id);
  dynamicc::ClusteringEngine engine(&graph);
  dynamicc::TaskPipeline pipeline =
      dynamicc::MakeTaskPipeline(CorrelationConfig(kind));
  pipeline.batch->Run(&engine, nullptr);
  return engine.clustering().CanonicalClusters();
}

dynamicc::ShardEnvironmentFactory CorrelationShards(
    dynamicc::WorkloadKind kind) {
  return [kind] {
    dynamicc::ShardEnvironment env;
    dynamicc::DatasetProfile profile = dynamicc::MakeProfile(kind);
    env.measure = std::move(profile.measure);
    env.blocker = std::move(profile.blocker);
    env.min_similarity = profile.min_similarity;
    dynamicc::TaskPipeline pipeline =
        dynamicc::MakeTaskPipeline(CorrelationConfig(kind));
    env.objective = std::move(pipeline.objective);
    env.bootstrap_objective = std::move(pipeline.bootstrap_objective);
    env.validator = std::move(pipeline.validator);
    env.batch_stages = std::move(pipeline.stages);
    env.batch = std::move(pipeline.batch);
    env.merge_model = std::make_unique<dynamicc::LogisticRegression>();
    env.split_model = std::make_unique<dynamicc::LogisticRegression>();
    return env;
  };
}

void StreamReference(const dynamicc::WorkloadStream& stream,
                     dynamicc::WorkloadKind kind,
                     std::vector<ObjectId>* live, Clusters* batch) {
  dynamicc::Dataset dataset;
  auto apply = [&dataset](const dynamicc::OperationBatch& ops) {
    for (const dynamicc::DataOperation& op : ops) {
      switch (op.kind) {
        case dynamicc::DataOperation::Kind::kAdd:
          dataset.Add(op.record);
          break;
        case dynamicc::DataOperation::Kind::kRemove:
          dataset.Remove(op.target);
          break;
        case dynamicc::DataOperation::Kind::kUpdate:
          dataset.Update(op.target, op.record);
          break;
      }
    }
  };
  apply(stream.initial);
  for (const auto& snapshot : stream.snapshots) apply(snapshot);
  *live = dataset.AliveIds();
  *batch = BatchFromScratch(dataset, kind);
}

std::vector<dynamicc::OperationBatch> SplitBatches(
    const dynamicc::OperationBatch& snapshot, size_t size) {
  std::vector<dynamicc::OperationBatch> batches;
  for (size_t begin = 0; begin < snapshot.size(); begin += size) {
    size_t end = std::min(snapshot.size(), begin + size);
    batches.emplace_back(snapshot.begin() + begin, snapshot.begin() + end);
  }
  return batches;
}

void AddCoreCounters(const dynamicc::ReclusterReport& report,
                     PassResult* pass) {
  pass->counters["core.prob_evals"] =
      static_cast<double>(report.probability_evaluations);
  pass->counters["core.predicted"] =
      static_cast<double>(report.merge_predicted + report.split_predicted);
  pass->counters["core.applied"] =
      static_cast<double>(report.merges_applied + report.splits_applied);
  pass->counters["core.rejected"] = static_cast<double>(report.rejected);
}

void AddIngestCounters(const dynamicc::IngestStats& before,
                       const dynamicc::IngestStats& after, int rounds,
                       PassResult* pass) {
  auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a);
  };
  pass->counters["service.worker_apply_ms"] =
      (after.worker_apply_ms - before.worker_apply_ms) / rounds;
  pass->counters["service.worker_round_ms"] =
      (after.worker_round_ms - before.worker_round_ms) / rounds;
  pass->counters["service.accepted_ops"] =
      delta(before.accepted_ops, after.accepted_ops);
  pass->counters["service.coalesced_ops"] =
      delta(before.coalesced_ops, after.coalesced_ops);
  pass->counters["service.producer_waits"] =
      delta(before.producer_waits, after.producer_waits);
}

double ServiceEdges(const dynamicc::ShardedDynamicCService& service) {
  double edges = 0.0;
  for (uint32_t s = 0; s < service.num_shards(); ++s) {
    edges += static_cast<double>(service.session(s).graph().num_edges());
  }
  return edges;
}

double PeakRssMb() { return ProcStatusMb("VmHWM:"); }

void Json::Separate() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

Json& Json::Open(char bracket) {
  Separate();
  out_ += bracket;
  return *this;
}

Json& Json::Close(char bracket) {
  out_ += bracket;
  need_comma_ = true;
  return *this;
}

Json& Json::Key(const std::string& key) {
  Str(key);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

Json& Json::Num(double value) {
  Separate();
  if (std::isfinite(value)) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    out_ += buffer;
  } else {
    out_ += "null";
  }
  need_comma_ = true;
  return *this;
}

Json& Json::Str(const std::string& value) {
  Separate();
  out_ += '"';
  for (char c : value) {
    if (c == '"' || c == '\\') out_ += '\\';
    out_ += c;
  }
  out_ += '"';
  need_comma_ = true;
  return *this;
}

Json& Json::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
  need_comma_ = true;
  return *this;
}

Json& Json::Nums(const std::vector<double>& values) {
  Open('[');
  for (double v : values) Num(v);
  return Close(']');
}

}  // namespace perfbench
