#ifndef DYNAMICC_HARNESS_EXPERIMENT_H_
#define DYNAMICC_HARNESS_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "batch/batch_algorithm.h"
#include "batch/dbscan.h"
#include "cluster/engine.h"
#include "core/dynamicc.h"
#include "core/session.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "data/operations.h"
#include "data/similarity_graph.h"
#include "eval/report.h"
#include "objective/objective.h"
#include "workload/profile.h"
#include "workload/schedule.h"

namespace dynamicc {

/// Which dataset simulator drives the experiment.
enum class WorkloadKind { kCora, kMusic, kSynthetic, kAccess, kRoad };

/// Which clustering problem is solved (§7.1's three tasks + correlation,
/// which the paper uses for exposition).
enum class TaskKind { kDbIndex, kKMeans, kCorrelation, kDbscan };

const char* WorkloadName(WorkloadKind workload);
const char* TaskName(TaskKind task);

/// Full configuration of one experiment (one dataset x one task).
struct ExperimentConfig {
  WorkloadKind workload = WorkloadKind::kCora;
  TaskKind task = TaskKind::kDbIndex;

  /// 0 keeps the generator's default initial size; otherwise overrides it
  /// (used to scale experiments up/down).
  size_t scale = 0;
  /// 0 keeps the generator's default seed.
  uint64_t seed = 0;

  /// Snapshots served by the batch algorithm while DynamicC observes
  /// (the training phase).
  int training_rounds = 2;

  int kmeans_k = 24;
  Dbscan::Options dbscan;
  /// DB-index shape parameters (see DbIndexObjective).
  double db_separation_floor = 0.05;
  double db_singleton_scatter = 0.5;

  /// Slightly relaxed from the paper's strict minimum rule: tolerating the
  /// 5% oddest positive training samples keeps θ meaningful when classes
  /// overlap (the strict rule degenerates to "flag everything").
  ThresholdPolicy threshold{/*positive_quantile=*/0.05, /*floor=*/0.05,
                            /*ceiling=*/0.95};
  DynamicCOptions dynamicc;
  /// Trainer configuration (negative sampling weights, sample cap).
  EvolutionTrainer::Options trainer;
  /// Refit cadence of the dynamic phase (see DynamicCSession::Options).
  int retrain_every = 1;
  /// Periodic batch re-observation cadence (0 = pure dynamic mode, what
  /// the paper's latency figures measure; see DynamicCSession::Options).
  int observe_every = 0;
  /// When >= 0, overrides both decision thresholds after training — the
  /// §5.4 accuracy/efficiency trade-off knob (ablation A1).
  double theta_override = -1.0;
};

/// One method's measurement at one snapshot.
struct SeriesPoint {
  size_t snapshot = 0;
  size_t num_objects = 0;
  size_t num_clusters = 0;
  double latency_ms = 0.0;
  /// Objective score after re-clustering (raw SSE for k-means; NaN for
  /// DBSCAN, which has no objective).
  double objective = 0.0;
  /// Quality vs the batch reference (only once RunBatch() built it).
  QualityReport quality;
  /// DynamicC-only counters (zeros for other methods).
  ReclusterReport dynamicc;
};

/// A labelled series of snapshot measurements (one curve in a figure).
struct Series {
  std::string method;
  std::vector<SeriesPoint> points;
  double total_latency_ms = 0.0;
};

/// Runs the paper's methods over one workload stream with identical object
/// ids, so results are directly comparable. Typical use:
///
///   ExperimentHarness harness(config);
///   Series batch  = harness.RunBatch();      // also builds references
///   Series naive  = harness.RunNaive();
///   Series greedy = harness.RunGreedy();     // also caches GreedySet states
///   Series dyn    = harness.RunDynamicC(/*greedy_set=*/false);
class ExperimentHarness {
 public:
  explicit ExperimentHarness(ExperimentConfig config);

  /// The underlying batch algorithm re-run from scratch every snapshot
  /// (the paper's quality ground truth; its clusterings become the
  /// references for every other method's F1).
  Series RunBatch();

  Series RunNaive();

  /// The Greedy incremental baseline; its per-snapshot clusterings are
  /// cached for the GreedySet scenario.
  Series RunGreedy();

  /// DynamicC. `greedy_set` selects the §7.1 GreedySet scenario (each
  /// round starts from Greedy's previous result; requires RunGreedy
  /// first); otherwise DynamicSet (own previous clustering).
  Series RunDynamicC(bool greedy_set);

  /// Training material harvested from observed batch rounds — the §5.2
  /// merge/split sample sets. Used by the ML-model experiments (Fig. 3,
  /// Tables 4 and 5) and the sampling/feature ablations.
  struct SampleHarvest {
    SampleSet merge;
    SampleSet split;
  };

  /// Runs the initial load plus `observed_rounds` snapshots with the batch
  /// algorithm under observation and returns the accumulated samples.
  SampleHarvest HarvestSamples(int observed_rounds);

  /// Per-snapshot batch reference clusterings (canonical member lists).
  const std::vector<std::vector<std::vector<ObjectId>>>& references() const {
    return references_;
  }

  const ExperimentConfig& config() const { return config_; }
  const WorkloadStream& stream() const { return stream_; }

  /// Objects alive after the initial load (before snapshot 1).
  size_t initial_size() const { return stream_.initial.size(); }

 private:
  /// Everything one method run needs, built fresh per run so methods can't
  /// interfere with each other.
  struct RunEnv {
    Dataset dataset;
    DatasetProfile profile;
    std::unique_ptr<SimilarityGraph> graph;
    std::unique_ptr<ClusteringEngine> engine;
    std::unique_ptr<ObjectiveFunction> objective;  // null for DBSCAN
    /// Cheap objective used only to seed from-scratch agglomeration when
    /// the task objective has expensive deltas (DB-index).
    std::unique_ptr<ObjectiveFunction> bootstrap_objective;
    std::unique_ptr<Dbscan> dbscan;                // set for DBSCAN task
    std::unique_ptr<ChangeValidator> validator;
    std::vector<std::unique_ptr<BatchAlgorithm>> batch_stages;
    std::unique_ptr<BatchAlgorithm> batch;

    /// Applies ops (§6.1 semantics); returns added/updated ids.
    std::vector<ObjectId> Apply(const OperationBatch& ops);
  };

  std::unique_ptr<RunEnv> MakeEnv();
  double ObjectiveOf(RunEnv& env) const;
  void FillQuality(size_t snapshot, RunEnv& env, SeriesPoint* point) const;

  ExperimentConfig config_;
  WorkloadStream stream_;
  std::vector<std::vector<std::vector<ObjectId>>> references_;
  std::vector<std::vector<std::vector<ObjectId>>> greedy_results_;
};

/// Enforces the fixed-k constraint after incremental re-clustering on the
/// k-means task: while the partition has more than `target_k` clusters,
/// the smallest cluster is merged into the one with the nearest centroid.
/// Blocking-based similarity graphs cannot express merges between distant
/// clusters (no edges), so graph-driven algorithms need this repair to
/// stay comparable with the batch k-means — see DESIGN.md note 4.
void RepairClusterCount(ClusteringEngine* engine, size_t target_k);

/// Generates the workload stream for `workload` with optional scale/seed
/// overrides (0 = generator defaults).
WorkloadStream MakeStream(WorkloadKind workload, size_t scale, uint64_t seed);

/// The owned objective/validator/batch pipeline of one graph-driven task
/// (correlation or db-index). One builder serves both serving paths —
/// the harness's single-engine RunEnv and the sharded service's
/// per-shard environments — so the batch stages and their tuning
/// constants cannot drift apart between `--shards N` and the
/// single-engine run they are compared against.
struct TaskPipeline {
  std::unique_ptr<ObjectiveFunction> objective;
  /// db-index only: the O(1)-delta objective its agglomeration
  /// bootstrap runs on (the task objective's deltas are O(k+E)).
  std::unique_ptr<ObjectiveFunction> bootstrap_objective;
  std::unique_ptr<ChangeValidator> validator;
  /// Stages referenced by `batch` when it is a CompositeBatch.
  std::vector<std::unique_ptr<BatchAlgorithm>> stages;
  std::unique_ptr<BatchAlgorithm> batch;
};

/// Builds the pipeline for TaskKind::kCorrelation or kDbIndex (the
/// tasks that need neither the dataset nor the graph to construct);
/// other tasks are a caller error.
TaskPipeline MakeTaskPipeline(const ExperimentConfig& config);

/// The Table-1 profile (measure/blocker/threshold) for `workload`.
DatasetProfile MakeProfile(WorkloadKind workload);

}  // namespace dynamicc

#endif  // DYNAMICC_HARNESS_EXPERIMENT_H_
