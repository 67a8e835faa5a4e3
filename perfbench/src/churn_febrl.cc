// churn-febrl: Febrl person records (Levenshtein + Jaccard) with 2%
// updates, 1% adds and 1% removes per snapshot, streamed as small
// batches into the async ShardedDynamicCService (2 shards, 2 worker
// threads, set explicitly). One epoch is closed per snapshot and the
// producer keeps at most two closed epochs un-waited: closing a second
// one waits for the older. A round is one snapshot, from its first
// Ingest until WaitEpoch reports its epoch applied (the background
// workers round every trained shard as part of applying it).
#include <algorithm>
#include <deque>
#include <string>

#include "common.h"
#include "service/sharded_service.h"
#include "workload/febrl.h"

namespace perfbench {
namespace {

using dynamicc::ShardedDynamicCService;
using dynamicc::WorkloadKind;

constexpr size_t kInitialRecords = 2000;
constexpr int kObservedSnapshots = 2;
constexpr int kRounds = 150;
constexpr size_t kBatchOps = 16;
constexpr uint32_t kShards = 2;
constexpr uint32_t kThreads = 2;
constexpr size_t kMaxEpochsInFlight = 2;
/// Fresh set-ups per pass (odd, for a median).
constexpr int kSetups = 3;

class ChurnFebrl : public Workload {
 public:
  explicit ChurnFebrl(uint64_t seed) {
    dynamicc::FebrlGenerator::Options options;
    options.initial_count = kInitialRecords;
    options.seed = seed;
    options.schedule.assign(kObservedSnapshots + kRounds,
                            dynamicc::SnapshotSpec{0.01, 0.01, 0.02});
    stream_ = dynamicc::FebrlGenerator(options).Generate();
    for (int r = 0; r < kRounds; ++r) {
      batches_.push_back(
          SplitBatches(stream_.snapshots[kObservedSnapshots + r], kBatchOps));
    }
  }

  PassResult RunPass(SpanLog* spans) override {
    PassResult pass;
    pass.traced = spans != nullptr;
    ShardedDynamicCService::Options options;
    options.num_shards = kShards;
    options.num_threads = kThreads;
    options.async.enabled = true;
    options.session.threshold =
        CorrelationConfig(WorkloadKind::kSynthetic).threshold;

    ProbeSpeed(kBoundaryProbes, &pass);
    // A set-up takes ~0.5 s, too short for one to be a steady figure:
    // the pass sets up kSetups times, keeps the last service and reports
    // the median set-up.
    std::unique_ptr<ShardedDynamicCService> service;
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      service.reset();
      const double setup_start = NowUs();
      service = std::make_unique<ShardedDynamicCService>(
          options, nullptr, CorrelationShards(WorkloadKind::kSynthetic));
      {
        Scope setup(spans, "setup", 0);
        std::vector<ObjectId> changed;
        {
          Scope load(spans, "data.load", 0);
          changed = service->ApplyOperations(stream_.initial);
        }
        {
          Scope observe(spans, "ml.observe", 0);
          service->ObserveBatchRound(changed);
        }
        for (int s = 0; s < kObservedSnapshots; ++s) {
          {
            Scope apply(spans, "data.apply", 0);
            changed = service->ApplyOperations(stream_.snapshots[s]);
          }
          Scope observe(spans, "ml.observe", 0);
          service->ObserveBatchRound(changed);
        }
        Scope flush(spans, "service.flush", 0);
        service->Flush();
      }
      setups.push_back((NowUs() - setup_start) / 1e6);
    }
    std::sort(setups.begin(), setups.end());
    pass.setup_s = setups[setups.size() / 2];
    ProbeSpeed(kBoundaryProbes, &pass);

    const dynamicc::ReclusterReport rounds_before =
        service->Snapshot().report.combined;
    const dynamicc::IngestStats before = service->ingest_stats();
    struct InFlight {
      uint64_t epoch;
      double start_us;
      uint64_t trace;
    };
    std::deque<InFlight> in_flight;
    double high_water = 0.0;
    auto wait_oldest = [&] {
      const InFlight oldest = in_flight.front();
      in_flight.pop_front();
      {
        Scope wait(spans, "service.wait", oldest.trace);
        service->WaitEpoch(oldest.epoch);
      }
      const double end = NowUs();
      if (spans != nullptr) {
        spans->Add("round", oldest.start_us, end, oldest.trace);
      }
      pass.round_ms.push_back((end - oldest.start_us) / 1e3);
    };

    const double serve_start = NowUs();
    for (int r = 0; r < kRounds; ++r) {
      const uint64_t trace = static_cast<uint64_t>(r) + 1;
      const double start = NowUs();
      for (const dynamicc::OperationBatch& batch : batches_[r]) {
        bool accepted;
        {
          Scope ingest(spans, "service.ingest", trace);
          accepted = service->Ingest(batch).accepted;
        }
        pass.attempted += batch.size();
        if (accepted) {
          pass.ops += batch.size();
        } else {
          pass.failed += batch.size();
        }
        if (spans != nullptr) {
          high_water = std::max(
              high_water,
              static_cast<double>(service->ingest_stats().pending_ops));
        }
      }
      uint64_t epoch;
      {
        Scope close(spans, "service.close", trace);
        epoch = service->CloseEpoch();
      }
      in_flight.push_back({epoch, start, trace});
      if (in_flight.size() >= kMaxEpochsInFlight) wait_oldest();
    }
    while (!in_flight.empty()) wait_oldest();
    pass.serve_s = (NowUs() - serve_start) / 1e6;
    ProbeSpeed(kBoundaryProbes, &pass);
    const dynamicc::IngestStats after = service->ingest_stats();
    // The workers' cumulative Recluster counts, as a serving-phase delta.
    dynamicc::ReclusterReport recluster = service->Snapshot().report.combined;
    recluster.probability_evaluations -= rounds_before.probability_evaluations;
    recluster.merge_predicted -= rounds_before.merge_predicted;
    recluster.split_predicted -= rounds_before.split_predicted;
    recluster.merges_applied -= rounds_before.merges_applied;
    recluster.splits_applied -= rounds_before.splits_applied;
    recluster.rejected -= rounds_before.rejected;
    AddCoreCounters(recluster, &pass);

    // Untimed: the final barrier and the pipeline's own books.
    const dynamicc::ServiceReport final_report = service->Flush();
    const dynamicc::IngestStats& books = final_report.ingest;
    pass.checks["pending_ops_zero"] = books.pending_ops == 0;
    pass.checks["accepted_eq_applied_plus_coalesced"] =
        books.accepted_ops == books.applied_ops + books.coalesced_ops;
    AddIngestCounters(before, after, kRounds, &pass);
    // The final Flush finds every shard clean (the workers already
    // rounded), so its cost_imbalance is 0; record skew is what it has.
    pass.counters["service.record_imbalance"] = final_report.record_imbalance;
    pass.counters["data.edges"] = ServiceEdges(*service);
    if (spans != nullptr) {
      pass.counters["service.queue_high_water"] = high_water;
    }
    pass.served = service->GlobalClusters();
    return pass;
  }

  void Reference(std::vector<ObjectId>* live, Clusters* batch) override {
    StreamReference(stream_, WorkloadKind::kSynthetic, live, batch);
  }

 private:
  dynamicc::WorkloadStream stream_;
  std::vector<std::vector<dynamicc::OperationBatch>> batches_;
};

}  // namespace

std::unique_ptr<Workload> MakeChurnFebrl(uint64_t seed) {
  return std::make_unique<ChurnFebrl>(seed);
}

}  // namespace perfbench
