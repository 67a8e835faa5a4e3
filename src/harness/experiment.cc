#include "harness/experiment.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "baseline/greedy.h"
#include "baseline/naive.h"
#include "batch/agglomerative.h"
#include "batch/hill_climbing.h"
#include "batch/kmeans_lloyd.h"
#include "core/trainer.h"
#include "ml/logistic_regression.h"
#include "objective/correlation.h"
#include "objective/db_index.h"
#include "objective/kmeans.h"
#include "util/logging.h"
#include "util/timer.h"
#include "workload/access_like.h"
#include "workload/cora_like.h"
#include "workload/febrl.h"
#include "workload/musicbrainz_like.h"
#include "workload/road_like.h"

namespace dynamicc {

const char* WorkloadName(WorkloadKind workload) {
  switch (workload) {
    case WorkloadKind::kCora:
      return "cora";
    case WorkloadKind::kMusic:
      return "music";
    case WorkloadKind::kSynthetic:
      return "synthetic";
    case WorkloadKind::kAccess:
      return "access";
    case WorkloadKind::kRoad:
      return "road";
  }
  return "?";
}

const char* TaskName(TaskKind task) {
  switch (task) {
    case TaskKind::kDbIndex:
      return "db-index";
    case TaskKind::kKMeans:
      return "k-means";
    case TaskKind::kCorrelation:
      return "correlation";
    case TaskKind::kDbscan:
      return "dbscan";
  }
  return "?";
}

WorkloadStream MakeStream(WorkloadKind workload, size_t scale,
                          uint64_t seed) {
  switch (workload) {
    case WorkloadKind::kCora: {
      CoraLikeGenerator::Options options;
      if (scale > 0) options.initial_count = scale;
      if (seed > 0) options.seed = seed;
      return CoraLikeGenerator(options).Generate();
    }
    case WorkloadKind::kMusic: {
      MusicBrainzLikeGenerator::Options options;
      if (scale > 0) options.initial_count = scale;
      if (seed > 0) options.seed = seed;
      return MusicBrainzLikeGenerator(options).Generate();
    }
    case WorkloadKind::kSynthetic: {
      FebrlGenerator::Options options;
      if (scale > 0) options.initial_count = scale;
      if (seed > 0) options.seed = seed;
      return FebrlGenerator(options).Generate();
    }
    case WorkloadKind::kAccess: {
      AccessLikeGenerator::Options options;
      if (scale > 0) options.initial_count = scale;
      if (seed > 0) options.seed = seed;
      return AccessLikeGenerator(options).Generate();
    }
    case WorkloadKind::kRoad: {
      RoadLikeGenerator::Options options;
      if (scale > 0) options.initial_count = scale;
      if (seed > 0) options.seed = seed;
      return RoadLikeGenerator(options).Generate();
    }
  }
  DYNAMICC_LOG(Fatal) << "unreachable workload kind";
  return {};
}

DatasetProfile MakeProfile(WorkloadKind workload) {
  switch (workload) {
    case WorkloadKind::kCora:
      return CoraLikeGenerator::Profile();
    case WorkloadKind::kMusic:
      return MusicBrainzLikeGenerator::Profile();
    case WorkloadKind::kSynthetic:
      return FebrlGenerator::Profile();
    case WorkloadKind::kAccess:
      return AccessLikeGenerator::Profile();
    case WorkloadKind::kRoad:
      return RoadLikeGenerator::Profile();
  }
  DYNAMICC_LOG(Fatal) << "unreachable workload kind";
  return {};
}

TaskPipeline MakeTaskPipeline(const ExperimentConfig& config) {
  TaskPipeline pipeline;
  HillClimbing::Options refine;
  refine.from_current = true;
  switch (config.task) {
    case TaskKind::kDbIndex: {
      pipeline.objective = std::make_unique<DbIndexObjective>(
          config.db_separation_floor, config.db_singleton_scatter);
      // Bootstrap with the O(1)-delta correlation objective; DB-index
      // deltas are O(k+E) and would make from-scratch agglomeration
      // quadratic (the hill-climbing stage then refines on DB-index).
      pipeline.bootstrap_objective = std::make_unique<CorrelationObjective>();
      pipeline.stages.push_back(std::make_unique<GreedyAgglomerative>(
          pipeline.bootstrap_objective.get()));
      refine.prune_top = 16;
      refine.max_steps = 400;
      break;
    }
    case TaskKind::kCorrelation: {
      pipeline.objective = std::make_unique<CorrelationObjective>();
      pipeline.stages.push_back(
          std::make_unique<GreedyAgglomerative>(pipeline.objective.get()));
      refine.prune_top = 32;
      refine.max_steps = 2000;
      break;
    }
    default:
      DYNAMICC_LOG(Fatal)
          << "MakeTaskPipeline supports correlation and db-index only";
  }
  pipeline.validator =
      std::make_unique<ObjectiveValidator>(pipeline.objective.get());
  pipeline.stages.push_back(
      std::make_unique<HillClimbing>(pipeline.objective.get(), refine));
  pipeline.batch = std::make_unique<CompositeBatch>(
      std::vector<BatchAlgorithm*>{pipeline.stages[0].get(),
                                   pipeline.stages[1].get()},
      "hill-climbing");
  return pipeline;
}

void RepairClusterCount(ClusteringEngine* engine, size_t target_k) {
  const Dataset& dataset = engine->graph().dataset();
  while (engine->clustering().num_clusters() > target_k) {
    // Centroids of all clusters (recomputed per merge; the repair loop is
    // short in practice — a handful of stragglers per snapshot).
    std::unordered_map<ClusterId, std::vector<double>> centroids;
    ClusterId smallest = kInvalidCluster;
    size_t smallest_size = 0;
    for (ClusterId cluster : engine->clustering().ClusterIds()) {
      const auto& members = engine->clustering().Members(cluster);
      std::vector<double> sum;
      for (ObjectId member : members) {
        const auto& point = dataset.Get(member).numeric;
        if (sum.empty()) sum.assign(point.size(), 0.0);
        for (size_t d = 0; d < point.size(); ++d) sum[d] += point[d];
      }
      for (double& v : sum) v /= static_cast<double>(members.size());
      centroids[cluster] = std::move(sum);
      if (smallest == kInvalidCluster || members.size() < smallest_size) {
        smallest = cluster;
        smallest_size = members.size();
      }
    }
    const auto& own = centroids.at(smallest);
    ClusterId best = kInvalidCluster;
    double best_distance = std::numeric_limits<double>::infinity();
    for (const auto& [cluster, centroid] : centroids) {
      if (cluster == smallest) continue;
      double d = 0.0;
      for (size_t i = 0; i < centroid.size(); ++i) {
        double diff = centroid[i] - own[i];
        d += diff * diff;
      }
      if (d < best_distance) {
        best_distance = d;
        best = cluster;
      }
    }
    if (best == kInvalidCluster) break;
    engine->Merge(best, smallest);
  }
}

ExperimentHarness::ExperimentHarness(ExperimentConfig config)
    : config_(config),
      stream_(MakeStream(config.workload, config.scale, config.seed)) {}

std::vector<ObjectId> ExperimentHarness::RunEnv::Apply(
    const OperationBatch& ops) {
  std::vector<ObjectId> changed;
  for (const DataOperation& op : ops) {
    switch (op.kind) {
      case DataOperation::Kind::kAdd: {
        ObjectId id = dataset.Add(op.record);
        graph->AddObject(id);
        engine->AddObjectAsSingleton(id);
        changed.push_back(id);
        break;
      }
      case DataOperation::Kind::kRemove:
        engine->RemoveObject(op.target);
        graph->RemoveObject(op.target);
        dataset.Remove(op.target);
        break;
      case DataOperation::Kind::kUpdate: {
        Record old_record = dataset.Get(op.target);
        engine->RemoveObject(op.target);
        dataset.Update(op.target, op.record);
        graph->UpdateObject(op.target, old_record);
        engine->AddObjectAsSingleton(op.target);
        changed.push_back(op.target);
        break;
      }
    }
  }
  return changed;
}

std::unique_ptr<ExperimentHarness::RunEnv> ExperimentHarness::MakeEnv() {
  auto env = std::make_unique<RunEnv>();
  DatasetProfile profile = MakeProfile(config_.workload);
  env->graph = std::make_unique<SimilarityGraph>(
      &env->dataset, profile.measure.get(), std::move(profile.blocker),
      profile.min_similarity);
  env->profile = std::move(profile);  // keeps the measure alive
  env->engine = std::make_unique<ClusteringEngine>(env->graph.get());

  switch (config_.task) {
    case TaskKind::kDbIndex:
    case TaskKind::kCorrelation: {
      TaskPipeline pipeline = MakeTaskPipeline(config_);
      env->objective = std::move(pipeline.objective);
      env->bootstrap_objective = std::move(pipeline.bootstrap_objective);
      env->validator = std::move(pipeline.validator);
      env->batch_stages = std::move(pipeline.stages);
      env->batch = std::move(pipeline.batch);
      break;
    }
    case TaskKind::kKMeans: {
      env->objective = std::make_unique<KMeansObjective>(
          &env->dataset, config_.kmeans_k);
      env->validator =
          std::make_unique<ObjectiveValidator>(env->objective.get());
      KMeansLloyd::Options lloyd;
      lloyd.k = config_.kmeans_k;
      auto seed_stage = std::make_unique<KMeansLloyd>(lloyd);
      HillClimbing::Options refine;
      refine.from_current = true;
      refine.prune_top = 16;
      refine.max_steps = 200;
      refine.allow_split = false;  // k stays fixed: moves and merges only
      auto climb =
          std::make_unique<HillClimbing>(env->objective.get(), refine);
      env->batch_stages.push_back(std::move(seed_stage));
      env->batch_stages.push_back(std::move(climb));
      env->batch = std::make_unique<CompositeBatch>(
          std::vector<BatchAlgorithm*>{env->batch_stages[0].get(),
                                       env->batch_stages[1].get()},
          "kmeans-batch");
      break;
    }
    case TaskKind::kDbscan: {
      env->dbscan = std::make_unique<Dbscan>(config_.dbscan);
      env->validator = std::make_unique<DbscanValidator>(env->dbscan.get(),
                                                         env->graph.get());
      env->batch = std::make_unique<Dbscan>(config_.dbscan);
      break;
    }
  }
  return env;
}

double ExperimentHarness::ObjectiveOf(RunEnv& env) const {
  if (config_.task == TaskKind::kDbscan) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (config_.task == TaskKind::kKMeans) {
    return static_cast<const KMeansObjective*>(env.objective.get())
        ->Sse(*env.engine);
  }
  return env.objective->Evaluate(*env.engine);
}

void ExperimentHarness::FillQuality(size_t snapshot, RunEnv& env,
                                    SeriesPoint* point) const {
  if (snapshot >= references_.size()) return;
  point->quality = EvaluateQuality(env.engine->clustering().CanonicalClusters(),
                                   references_[snapshot]);
}

Series ExperimentHarness::RunBatch() {
  Series series;
  series.method = "batch";
  auto env = MakeEnv();
  references_.clear();

  env->Apply(stream_.initial);
  for (size_t snapshot = 0; snapshot < stream_.snapshots.size(); ++snapshot) {
    env->Apply(stream_.snapshots[snapshot]);
    // From scratch means *everything*: the batch approach re-derives the
    // pairwise similarity structure as well, so the timed region rebuilds
    // the graph over the alive objects before clustering. (Incremental
    // methods amortize exactly this work — it is their whole advantage.)
    Timer timer;
    DatasetProfile profile = MakeProfile(config_.workload);
    SimilarityGraph scratch_graph(&env->dataset, profile.measure.get(),
                                  std::move(profile.blocker),
                                  profile.min_similarity);
    for (ObjectId id : env->graph->Objects()) scratch_graph.AddObject(id);
    ClusteringEngine scratch_engine(&scratch_graph);
    env->batch->Run(&scratch_engine, nullptr);
    SeriesPoint point;
    point.snapshot = snapshot + 1;
    point.num_objects = env->dataset.alive_count();
    point.num_clusters = scratch_engine.clustering().num_clusters();
    point.latency_ms = timer.ElapsedMillis();
    // Score on the main engine after adopting the scratch result, so the
    // objective sees the same (incrementally maintained) graph the other
    // methods use.
    env->engine->SetClustering(scratch_engine.clustering());
    point.objective = ObjectiveOf(*env);
    point.quality = QualityReport{1.0, 1.0, 1.0, 1.0, 1.0};  // self-reference
    series.total_latency_ms += point.latency_ms;
    references_.push_back(env->engine->clustering().CanonicalClusters());
    series.points.push_back(point);
  }
  return series;
}

Series ExperimentHarness::RunNaive() {
  Series series;
  series.method = "naive";
  auto env = MakeEnv();
  NaiveIncremental::Options naive_options;
  // Fixed-k task: new objects must join one of the k clusters (or raw SSE
  // comparisons are meaningless), and "closest" means nearest centroid.
  naive_options.always_join = (config_.task == TaskKind::kKMeans);
  naive_options.nearest_centroid = (config_.task == TaskKind::kKMeans);
  NaiveIncremental naive(naive_options);

  env->Apply(stream_.initial);
  // Incremental methods start from the batch clustering of the initial
  // dataset (§7.2: snapshot-1 quality close to 1 for every method) —
  // untimed initialization, like DynamicC's round-0 observation.
  env->batch->Run(env->engine.get(), nullptr);
  for (size_t snapshot = 0; snapshot < stream_.snapshots.size(); ++snapshot) {
    auto changed = env->Apply(stream_.snapshots[snapshot]);
    Timer timer;
    naive.Process(env->engine.get(), changed);
    SeriesPoint point;
    point.snapshot = snapshot + 1;
    point.num_objects = env->dataset.alive_count();
    point.num_clusters = env->engine->clustering().num_clusters();
    point.latency_ms = timer.ElapsedMillis();
    point.objective = ObjectiveOf(*env);
    FillQuality(snapshot, *env, &point);
    series.total_latency_ms += point.latency_ms;
    series.points.push_back(point);
  }
  return series;
}

Series ExperimentHarness::RunGreedy() {
  Series series;
  series.method = "greedy";
  auto env = MakeEnv();
  greedy_results_.clear();

  // DBSCAN has no objective for Greedy to optimize; fall back to
  // correlation (a density-friendly default) for its decisions.
  std::unique_ptr<ObjectiveFunction> fallback;
  const ObjectiveFunction* objective = env->objective.get();
  if (objective == nullptr) {
    fallback = std::make_unique<CorrelationObjective>();
    objective = fallback.get();
  }
  GreedyIncremental greedy(objective);

  env->Apply(stream_.initial);
  // Same initialization as the other incremental methods: the batch
  // clustering of the initial dataset (untimed).
  env->batch->Run(env->engine.get(), nullptr);
  for (size_t snapshot = 0; snapshot < stream_.snapshots.size(); ++snapshot) {
    auto changed = env->Apply(stream_.snapshots[snapshot]);
    Timer timer;
    greedy.Process(env->engine.get(), changed);
    if (config_.task == TaskKind::kKMeans) {
      RepairClusterCount(env->engine.get(),
                         static_cast<size_t>(config_.kmeans_k));
    }
    SeriesPoint point;
    point.snapshot = snapshot + 1;
    point.num_objects = env->dataset.alive_count();
    point.num_clusters = env->engine->clustering().num_clusters();
    point.latency_ms = timer.ElapsedMillis();
    point.objective = ObjectiveOf(*env);
    FillQuality(snapshot, *env, &point);
    series.total_latency_ms += point.latency_ms;
    greedy_results_.push_back(env->engine->clustering().CanonicalClusters());
    series.points.push_back(point);
  }
  return series;
}

ExperimentHarness::SampleHarvest ExperimentHarness::HarvestSamples(
    int observed_rounds) {
  auto env = MakeEnv();
  DynamicCSession::Options session_options;
  session_options.threshold = config_.threshold;
  session_options.trainer = config_.trainer;
  DynamicCSession session(&env->dataset, env->graph.get(), env->batch.get(),
                          env->validator.get(),
                          std::make_unique<LogisticRegression>(),
                          std::make_unique<LogisticRegression>(),
                          session_options);
  session.ApplyOperations(stream_.initial);
  session.ObserveBatchRound({});
  int rounds = std::min<int>(observed_rounds,
                             static_cast<int>(stream_.snapshots.size()));
  for (int snapshot = 0; snapshot < rounds; ++snapshot) {
    auto changed = session.ApplyOperations(stream_.snapshots[snapshot]);
    session.ObserveBatchRound(changed);
  }
  SampleHarvest harvest;
  harvest.merge = session.trainer().merge_samples();
  harvest.split = session.trainer().split_samples();
  return harvest;
}

Series ExperimentHarness::RunDynamicC(bool greedy_set) {
  Series series;
  series.method = greedy_set ? "dynamicc-greedyset" : "dynamicc-dynamicset";
  if (greedy_set) {
    DYNAMICC_CHECK(!greedy_results_.empty())
        << "GreedySet scenario requires RunGreedy() first";
  }
  auto env = MakeEnv();

  DynamicCOptions dyn_options = config_.dynamicc;
  if (config_.task == TaskKind::kKMeans) {
    dyn_options.split.split_as_move = true;  // keep k fixed (DESIGN note 4)
    // Partner choice is geometric for k-means; SSE deltas are cheap.
    dyn_options.merge.partner_ranking_objective = env->objective.get();
  }
  DynamicCSession::Options session_options;
  session_options.threshold = config_.threshold;
  session_options.dynamicc = dyn_options;
  session_options.trainer = config_.trainer;
  session_options.retrain_every = config_.retrain_every;
  session_options.observe_every = config_.observe_every;
  DynamicCSession session(&env->dataset, env->graph.get(), env->batch.get(),
                          env->validator.get(),
                          std::make_unique<LogisticRegression>(),
                          std::make_unique<LogisticRegression>(),
                          session_options);

  // The session owns its engine; the env engine stays unused here.
  session.ApplyOperations(stream_.initial);
  // Initial clustering via one observed batch round (round 0, §4.2).
  session.ObserveBatchRound(/*changed=*/{});

  for (size_t snapshot = 0; snapshot < stream_.snapshots.size(); ++snapshot) {
    if (greedy_set && snapshot > 0) {
      // GreedySet: start from Greedy's previous-round clustering.
      Clustering start;
      for (const auto& members : greedy_results_[snapshot - 1]) {
        ClusterId cluster = start.CreateCluster();
        for (ObjectId object : members) start.Assign(object, cluster);
      }
      session.engine().SetClustering(start);
    }

    auto changed = session.ApplyOperations(stream_.snapshots[snapshot]);
    SeriesPoint point;
    point.snapshot = snapshot + 1;
    point.num_objects = env->dataset.alive_count();

    if (static_cast<int>(snapshot) < config_.training_rounds) {
      // Training phase: the batch algorithm serves while DynamicC observes.
      Timer timer;
      auto report = session.ObserveBatchRound(changed);
      point.latency_ms = timer.ElapsedMillis();
      (void)report;
      if (config_.theta_override >= 0.0) {
        session.dynamicc().SetThetas(config_.theta_override,
                                     config_.theta_override);
      }
    } else {
      Timer timer;
      auto report = session.DynamicRound(changed);
      if (config_.task == TaskKind::kKMeans) {
        RepairClusterCount(&session.engine(),
                           static_cast<size_t>(config_.kmeans_k));
      }
      point.latency_ms = timer.ElapsedMillis();
      point.dynamicc = report.detail;
    }

    point.num_clusters = session.engine().clustering().num_clusters();
    // Score on the session engine.
    if (config_.task == TaskKind::kKMeans) {
      point.objective =
          static_cast<const KMeansObjective*>(env->objective.get())
              ->Sse(session.engine());
    } else if (config_.task == TaskKind::kDbscan) {
      point.objective = std::numeric_limits<double>::quiet_NaN();
    } else {
      point.objective = env->objective->Evaluate(session.engine());
    }
    if (snapshot < references_.size()) {
      point.quality =
          EvaluateQuality(session.engine().clustering().CanonicalClusters(),
                          references_[snapshot]);
    }
    series.total_latency_ms += point.latency_ms;
    series.points.push_back(point);
  }
  return series;
}

}  // namespace dynamicc
