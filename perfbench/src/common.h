// Shared pieces of perfbench_runner: the clock, the bench-side span
// log, per-pass results, the from-scratch batch reference and a small
// JSON writer.
//
// Every timing here is taken from the benchmark's own code around calls
// into the library's public entry points; nothing measures inside the
// program.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/operations.h"
#include "harness/experiment.h"
#include "workload/schedule.h"
#include "service/sharded_service.h"

namespace perfbench {

using dynamicc::ObjectId;
using Clusters = std::vector<std::vector<ObjectId>>;

/// Steady-clock microseconds since the first call in this process.
double NowUs();

/// One timed interval around a call into a layer. Spans of one round or
/// request share `trace`; `parent` is the enclosing span (0 = root).
struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trace = 0;
};

/// The spans of one thread, kept in memory until the run ends. Passing a
/// null SpanLog* to Scope/Add is the untraced mode: nothing is recorded.
class SpanLog {
 public:
  /// `thread_tag` keeps span ids unique across the logs of one run.
  explicit SpanLog(uint64_t thread_tag) : next_id_(thread_tag << 40) {}

  /// Records a finished span whose endpoints were taken elsewhere (a
  /// round that starts on one thread and ends on another).
  void Add(const char* name, double start_us, double end_us, uint64_t trace);

  /// Appends another thread's spans (after that thread has joined).
  void Merge(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  friend class Scope;
  std::vector<Span> spans_;
  uint64_t next_id_;
  uint64_t current_ = 0;
};

/// RAII span: opens at construction, closes at destruction, and is the
/// parent of every span opened on the same log while it is open.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, uint64_t trace);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  Span span_;
};

/// The machine-speed probe. On a shared VM the memory latency the
/// workloads depend on drifts by up to ~1.7x over minutes with the
/// neighbours' load, and every workload's time drifts with it. A probe is
/// a fixed number of random lookups in a hash table of ~20 MiB, built
/// once per process and independent of the library; its time tracks the
/// workloads' (interleaved with recluster-cora rounds: correlation 0.91,
/// log-log slope 0.9), so run.py divides each pass's timings by its
/// probes' median over a fixed reference probe time.
///
/// Builds the table (untimed); returns the resident MiB it took.
double InitSpeedProbe();

/// One probe: the time of the fixed lookups, in µs.
double SpeedProbeUs();

/// What one pass (a fresh set-up plus the workload's fixed serving
/// schedule) measured. Sample vectors and counters are keyed by the names
/// summary.py expects.
struct PassResult {
  bool traced = false;
  double setup_s = 0.0;
  /// Wall time of the serving phase and the data operations it completed.
  double serve_s = 0.0;
  uint64_t ops = 0;
  /// Operations plus queries attempted, and those that failed (errors,
  /// refusals and stale rejections).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> round_ms;
  /// Speed probes taken around this pass's set-up and serving (µs).
  std::vector<double> probe_us;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> counters;
  /// The final clustering at the workload's read target, canonical form.
  Clusters served;
  /// Workload-specific pass checks (name -> passed).
  std::map<std::string, bool> checks;
};

/// A workload: inputs generated once from the seed (untimed), then any
/// number of identical passes.
class Workload {
 public:
  virtual ~Workload() = default;
  /// One fresh set-up plus the serving schedule. `spans` is null for an
  /// untraced pass.
  virtual PassResult RunPass(SpanLog* spans) = 0;
  /// The live ids after the serving schedule and the from-scratch batch
  /// clustering of those records (untimed; same for every pass).
  virtual void Reference(std::vector<ObjectId>* live, Clusters* batch) = 0;
  /// An untimed pass without the workarounds the measured passes apply
  /// for known library defects; records counts of what they hide.
  /// Default none.
  virtual void Probe(std::map<std::string, double>* /*counters*/) {}
  /// Checks across passes (e.g. exact reproduction); default none.
  virtual void CheckRun(const std::vector<PassResult>& /*passes*/,
                        std::map<std::string, bool>* /*checks*/) {}
};

std::unique_ptr<Workload> MakeReclusterCora(uint64_t seed);
std::unique_ptr<Workload> MakeChurnFebrl(uint64_t seed);
/// `scratch_dir` holds the replication and mirror directories.
std::unique_ptr<Workload> MakeServeReplicated(uint64_t seed,
                                              const std::string& scratch_dir);

/// The correlation task's pipeline (agglomerative + hill climbing), the
/// one every workload clusters with.
dynamicc::ExperimentConfig CorrelationConfig(dynamicc::WorkloadKind kind);

/// Per-shard environments of the correlation task on `kind`'s profile.
dynamicc::ShardEnvironmentFactory CorrelationShards(
    dynamicc::WorkloadKind kind);

/// From scratch means everything: rebuilds the similarity graph over the
/// dataset's live records on a scratch engine, then runs the batch
/// algorithm. Returns the canonical clustering.
Clusters BatchFromScratch(const dynamicc::Dataset& dataset,
                          dynamicc::WorkloadKind kind);

/// Workload::Reference for a whole generated stream: applies it to a
/// fresh dataset (adds get the dense ids the generator assigned) and
/// clusters the survivors from scratch.
void StreamReference(const dynamicc::WorkloadStream& stream,
                     dynamicc::WorkloadKind kind,
                     std::vector<ObjectId>* live, Clusters* batch);

/// Splits a snapshot into consecutive batches of at most `size` ops.
std::vector<dynamicc::OperationBatch> SplitBatches(
    const dynamicc::OperationBatch& snapshot, size_t size);

/// Records a ReclusterReport's counts as core.* counters.
void AddCoreCounters(const dynamicc::ReclusterReport& report,
                     PassResult* pass);

/// Serving-phase deltas of a service's IngestStats as service.*
/// counters; worker times are per round.
void AddIngestCounters(const dynamicc::IngestStats& before,
                       const dynamicc::IngestStats& after, int rounds,
                       PassResult* pass);

/// Similarity-graph edges summed over a service's shards.
double ServiceEdges(const dynamicc::ShardedDynamicCService& service);

/// Appends `count` speed probes to pass->probe_us.
void ProbeSpeed(int count, PassResult* pass);

/// Speed probes taken at each pass boundary (before set-up, after
/// set-up, after serving).
constexpr int kBoundaryProbes = 10;

/// Peak resident set size of this process so far (VmHWM), in MiB.
double PeakRssMb();

/// Minimal streaming JSON writer (objects, arrays, numbers, strings).
class Json {
 public:
  Json& Open(char bracket);
  Json& Close(char bracket);
  Json& Key(const std::string& key);
  Json& Num(double value);
  Json& Str(const std::string& value);
  Json& Bool(bool value);
  Json& Nums(const std::vector<double>& values);
  const std::string& str() const { return out_; }

 private:
  void Separate();
  std::string out_;
  bool need_comma_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
