// recluster-cora: the paper's own loop in one thread. A DynamicCSession
// serves Cora-like Jaccard records on the correlation task at a steady
// size (1% adds and 1% removes per snapshot). Set-up loads the records
// and observes two batch snapshots; every serving round is
// ApplyOperations followed by DynamicRound. Service, replication and
// network layers are absent. This is the one deterministic workload:
// every pass must reproduce the first pass's counts and clustering.
#include <string>

#include "common.h"
#include "cluster/engine.h"
#include "core/session.h"
#include "data/similarity_graph.h"
#include "ml/logistic_regression.h"
#include "service/service_report.h"
#include "workload/cora_like.h"

namespace perfbench {
namespace {

using dynamicc::WorkloadKind;

constexpr size_t kInitialRecords = 2000;
constexpr int kObservedSnapshots = 2;
constexpr int kRounds = 120;
constexpr double kChurn = 0.01;
/// Rounds after which a traced pass runs the batch algorithm from
/// scratch on the current records (batch.run_ms).
constexpr int kCheckpoints[] = {kRounds / 2, kRounds};

class ReclusterCora : public Workload {
 public:
  explicit ReclusterCora(uint64_t seed) {
    dynamicc::CoraLikeGenerator::Options options;
    options.initial_count = kInitialRecords;
    options.seed = seed;
    options.schedule.assign(kObservedSnapshots + kRounds,
                            dynamicc::SnapshotSpec{kChurn, kChurn, 0.0});
    stream_ = dynamicc::CoraLikeGenerator(options).Generate();
  }

  PassResult RunPass(SpanLog* spans) override {
    PassResult pass;
    pass.traced = spans != nullptr;
    const dynamicc::ExperimentConfig config =
        CorrelationConfig(WorkloadKind::kCora);

    ProbeSpeed(kBoundaryProbes, &pass);
    const double setup_start = NowUs();
    dynamicc::Dataset dataset;
    dynamicc::DatasetProfile profile =
        dynamicc::MakeProfile(WorkloadKind::kCora);
    dynamicc::SimilarityGraph graph(&dataset, profile.measure.get(),
                                    std::move(profile.blocker),
                                    profile.min_similarity);
    dynamicc::TaskPipeline pipeline = dynamicc::MakeTaskPipeline(config);
    dynamicc::DynamicCSession::Options options;
    options.threshold = config.threshold;
    dynamicc::DynamicCSession session(
        &dataset, &graph, pipeline.batch.get(), pipeline.validator.get(),
        std::make_unique<dynamicc::LogisticRegression>(),
        std::make_unique<dynamicc::LogisticRegression>(), options);
    {
      Scope setup(spans, "setup", 0);
      {
        Scope load(spans, "data.load", 0);
        session.ApplyOperations(stream_.initial);
      }
      {
        Scope observe(spans, "ml.observe", 0);
        session.ObserveBatchRound({});
      }
      for (int s = 0; s < kObservedSnapshots; ++s) {
        std::vector<ObjectId> changed;
        {
          Scope apply(spans, "data.apply", 0);
          changed = session.ApplyOperations(stream_.snapshots[s]);
        }
        Scope observe(spans, "ml.observe", 0);
        session.ObserveBatchRound(changed);
      }
    }
    pass.setup_s = (NowUs() - setup_start) / 1e6;
    ProbeSpeed(kBoundaryProbes, &pass);

    dynamicc::ReclusterReport total;
    double serving_us = 0.0;
    size_t next_checkpoint = 0;
    for (int r = 0; r < kRounds; ++r) {
      const dynamicc::OperationBatch& snapshot =
          stream_.snapshots[kObservedSnapshots + r];
      const uint64_t trace = static_cast<uint64_t>(r) + 1;
      const double start = NowUs();
      dynamicc::DynamicCSession::DynamicReport report;
      {
        Scope round(spans, "round", trace);
        std::vector<ObjectId> changed;
        {
          Scope apply(spans, "data.apply", trace);
          changed = session.ApplyOperations(snapshot);
        }
        Scope recluster(spans, "core.round", trace);
        report = session.DynamicRound(changed);
      }
      const double elapsed = NowUs() - start;
      serving_us += elapsed;
      pass.round_ms.push_back(elapsed / 1e3);
      ProbeSpeed(1, &pass);  // untimed, between rounds
      pass.ops += snapshot.size();
      dynamicc::AccumulateRecluster(&total, report.detail);
      // Per-round counts, compared across passes by CheckRun.
      pass.samples["core.evals_per_round"].push_back(
          static_cast<double>(report.detail.probability_evaluations));
      pass.samples["core.applied_per_round"].push_back(static_cast<double>(
          report.detail.merges_applied + report.detail.splits_applied));

      if (spans != nullptr && next_checkpoint < std::size(kCheckpoints) &&
          r + 1 == kCheckpoints[next_checkpoint]) {
        ++next_checkpoint;
        Scope batch(spans, "batch.run", 0);
        BatchFromScratch(dataset, WorkloadKind::kCora);
      }
    }
    pass.serve_s = serving_us / 1e6;
    ProbeSpeed(kBoundaryProbes, &pass);
    pass.attempted = pass.ops;
    AddCoreCounters(total, &pass);
    pass.counters["data.edges"] = static_cast<double>(graph.num_edges());
    pass.served = session.clustering().CanonicalClusters();
    return pass;
  }

  void Reference(std::vector<ObjectId>* live, Clusters* batch) override {
    StreamReference(stream_, WorkloadKind::kCora, live, batch);
  }

  void CheckRun(const std::vector<PassResult>& passes,
                std::map<std::string, bool>* checks) override {
    bool same = true;
    for (const PassResult& pass : passes) {
      same = same && pass.counters == passes[0].counters &&
             pass.samples.at("core.evals_per_round") ==
                 passes[0].samples.at("core.evals_per_round") &&
             pass.samples.at("core.applied_per_round") ==
                 passes[0].samples.at("core.applied_per_round") &&
             pass.served == passes[0].served;
    }
    (*checks)["core_counts_reproduce"] = same;
  }

 private:
  dynamicc::WorkloadStream stream_;
};

}  // namespace

std::unique_ptr<Workload> MakeReclusterCora(uint64_t seed) {
  return std::make_unique<ReclusterCora>(seed);
}

}  // namespace perfbench
