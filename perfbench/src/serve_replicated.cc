// serve-replicated: a primary (async, 1 shard, read serving) behind a
// ServerFrontEnd on loopback, replicating through a ReplicationSession.
// A Follower fed over TCP by DeltaStreamClient::SyncOnce is registered
// with the ReadRouter as a second read target.
//
// One open-loop client thread sends small Cora-like ingest batches mixed
// with ClusterOf/KNearest reads under a staleness bound, on a fixed
// schedule (a constant of the workload, never derived from measured
// capacity). The main thread replicates: when the client has sent an
// epoch's last batch it seals the epoch, syncs the mirror and replays it
// on the follower. A round is the time from the scheduled send of an
// epoch's last batch until the follower has replayed that epoch; a
// read's latency runs from its scheduled send.
//
// The measured passes work around two known library defects (see
// Run()); an untimed probe pass without the workarounds counts what
// they hide, so a fix shows as the probe counts dropping to zero. A
// third defect, a replayed round that diverges, is counted in every pass.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>

#include "checks.h"
#include "common.h"
#include "net/client.h"
#include "net/delta_stream.h"
#include "net/front_end.h"
#include "replication/follower.h"
#include "replication/replication_session.h"
#include "service/query_api.h"
#include "service/sharded_service.h"
#include "util/rng.h"
#include "workload/cora_like.h"

namespace perfbench {
namespace {

using dynamicc::ShardedDynamicCService;
using dynamicc::WorkloadKind;

constexpr size_t kInitialRecords = 2000;
constexpr int kObservedSnapshots = 2;
constexpr int kEpochs = 100;
/// Per epoch: 0.5% adds and 0.5% removes, sent as batches of kBatchOps.
constexpr double kChurn = 0.005;
constexpr size_t kBatchOps = 2;
/// Reads sent after every ingest batch, alternating ClusterOf/KNearest:
/// a read-mostly serving mix (310 requests per epoch).
constexpr int kReadsPerBatch = 30;
/// The offered load: one request every kSlotUs, whatever the server does.
/// With this mix the client connection's closed-loop capacity measured
/// about 12,700 requests/s (median of 9 passes with no pacing, 4-vCPU
/// Xeon VM); the offered rate is a quarter of that, ~3,175/s, which
/// makes an epoch ~98 ms. A constant: never re-derived at run time.
constexpr double kSlotUs = 315.0;
constexpr uint64_t kMaxStalenessEpochs = 2;
constexpr uint64_t kNearestK = 3;

ShardedDynamicCService::Options ServiceOptions(bool primary) {
  ShardedDynamicCService::Options options;
  options.num_shards = 1;
  options.num_threads = 1;
  options.async.enabled = primary;
  options.read.serve = true;
  options.session.threshold = CorrelationConfig(WorkloadKind::kCora).threshold;
  return options;
}

/// One request of the open-loop schedule.
struct Request {
  enum class Kind { kIngest, kClusterOf, kKNearest } kind = Kind::kIngest;
  const dynamicc::OperationBatch* batch = nullptr;
  /// Index of the epoch this ingest batch closes, or -1.
  int closes_epoch = -1;
  ObjectId id = 0;
  const dynamicc::Record* probe = nullptr;
};

/// Epochs whose last batch the client has sent, handed to the replicating thread.
class EpochQueue {
 public:
  void Push(int epoch, double scheduled_us) {
    std::lock_guard<std::mutex> lock(mu_);
    ready_.push_back({epoch, scheduled_us});
    cv_.notify_one();
  }
  void Finish() {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
    cv_.notify_one();
  }
  /// Takes every ready epoch; empty once the client finished.
  std::vector<std::pair<int, double>> TakeAll() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_ || !ready_.empty(); });
    std::vector<std::pair<int, double>> out(ready_.begin(), ready_.end());
    ready_.clear();
    return out;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<int, double>> ready_;
  bool done_ = false;
};

class ServeReplicated : public Workload {
 public:
  ServeReplicated(uint64_t seed, std::string scratch_dir)
      : scratch_dir_(std::move(scratch_dir)) {
    dynamicc::CoraLikeGenerator::Options options;
    options.initial_count = kInitialRecords;
    options.seed = seed;
    options.schedule.assign(kObservedSnapshots + kEpochs,
                            dynamicc::SnapshotSpec{kChurn, kChurn, 0.0});
    stream_ = dynamicc::CoraLikeGenerator(options).Generate();

    for (int e = 0; e < kEpochs; ++e) {
      epoch_batches_.push_back(
          SplitBatches(stream_.snapshots[kObservedSnapshots + e], kBatchOps));
    }
    std::vector<const dynamicc::Record*> probes;
    for (const auto& snapshot : stream_.snapshots) {
      for (const auto& op : snapshot) {
        if (op.kind == dynamicc::DataOperation::Kind::kAdd) {
          probes.push_back(&op.record);
        }
      }
    }
    dynamicc::Rng rng(seed ^ 0x5EEDu);
    int reads = 0;
    for (int e = 0; e < kEpochs; ++e) {
      const auto& batches = epoch_batches_[e];
      for (size_t b = 0; b < batches.size(); ++b) {
        Request ingest;
        ingest.batch = &batches[b];
        if (b + 1 == batches.size()) ingest.closes_epoch = e;
        schedule_.push_back(ingest);
        for (int q = 0; q < kReadsPerBatch; ++q, ++reads) {
          Request read;
          if (reads % 2 == 0) {
            read.kind = Request::Kind::kClusterOf;
            read.id = rng.Index(kInitialRecords);
          } else {
            read.kind = Request::Kind::kKNearest;
            read.probe = probes[rng.Index(probes.size())];
          }
          schedule_.push_back(read);
        }
      }
    }
  }

  PassResult RunPass(SpanLog* spans) override {
    return Run(spans, /*patched=*/true);
  }

  void Probe(std::map<std::string, double>* counters) override {
    const PassResult pass = Run(nullptr, /*patched=*/false);
    (*counters)["probe.unserved_reads"] = pass.counters.at("probe.unserved");
    (*counters)["probe.divergent_records"] =
        pass.counters.at("repl.replay_divergent");
  }

  void Reference(std::vector<ObjectId>* live, Clusters* batch) override {
    StreamReference(stream_, WorkloadKind::kCora, live, batch);
  }

 private:
  /// One pass. `patched` applies the two workarounds: set-up ends with
  /// Drain rather than Flush, and the restored follower publishes a read
  /// view before it joins the router. The probe pass runs unpatched.
  PassResult Run(SpanLog* spans, bool patched) {
    PassResult pass;
    pass.traced = spans != nullptr;
    namespace fs = std::filesystem;
    const std::string dir = scratch_dir_ + "/pass" + std::to_string(passes_++);
    const std::string repl_dir = dir + "/repl";
    const std::string mirror_dir = dir + "/mirror";
    fs::remove_all(dir);
    fs::create_directories(dir);

    // Declared in teardown order (reverse): client and stream close
    // first, then the front end, router, follower, replication, primary.
    std::unique_ptr<ShardedDynamicCService> primary;
    std::unique_ptr<dynamicc::ReplicationSession> repl;
    std::unique_ptr<dynamicc::Follower> follower;
    std::unique_ptr<dynamicc::ReadRouter> router;
    std::unique_ptr<dynamicc::net::ServerFrontEnd> front_end;
    std::unique_ptr<dynamicc::net::DeltaStreamClient> stream;
    std::unique_ptr<dynamicc::net::NetClient> client;
    bool setup_ok = true;

    ProbeSpeed(kBoundaryProbes, &pass);
    const double setup_start = NowUs();
    {
      Scope setup(spans, "setup", 0);
      primary = std::make_unique<ShardedDynamicCService>(
          ServiceOptions(true), nullptr,
          CorrelationShards(WorkloadKind::kCora));
      std::vector<ObjectId> changed;
      {
        Scope load(spans, "data.load", 0);
        changed = primary->ApplyOperations(stream_.initial);
      }
      {
        Scope observe(spans, "ml.observe", 0);
        primary->ObserveBatchRound(changed);
      }
      for (int s = 0; s < kObservedSnapshots; ++s) {
        changed = primary->ApplyOperations(stream_.snapshots[s]);
        Scope observe(spans, "ml.observe", 0);
        primary->ObserveBatchRound(changed);
      }
      // Patched: Drain, not Flush. A dynamic barrier would switch the
      // primary's worker to background rounds, which ReplicationSession
      // does not journal, so the follower would diverge. The patched
      // primary applies and publishes in the background and reclusters
      // only at journaled barriers; the final (untimed) Flush below is
      // the one barrier.
      if (patched) {
        primary->Drain();
      } else {
        primary->Flush();
      }
      {
        Scope start(spans, "repl.start", 0);
        repl = std::make_unique<dynamicc::ReplicationSession>(
            primary.get(), repl_dir, dynamicc::ReplicationSession::Options{});
        setup_ok = setup_ok && repl->Start().ok();
      }
      dynamicc::ReadRouter::Options router_options;
      router_options.max_staleness_epochs = kMaxStalenessEpochs;
      router = std::make_unique<dynamicc::ReadRouter>(primary.get(),
                                                      router_options);
      {
        Scope up(spans, "net.start", 0);
        dynamicc::net::ServerFrontEnd::Options fe_options;
        fe_options.replication_dir = repl_dir;
        front_end = std::make_unique<dynamicc::net::ServerFrontEnd>(
            primary.get(), router.get(), fe_options);
        setup_ok = setup_ok && front_end->Start().ok();
      }
      {
        Scope restore(spans, "repl.restore", 0);
        dynamicc::net::DeltaStreamClient::Options stream_options;
        stream_options.port = front_end->port();
        stream_options.mirror_dir = mirror_dir;
        stream = std::make_unique<dynamicc::net::DeltaStreamClient>(
            stream_options);
        dynamicc::net::DeltaStreamClient::SyncResult sync;
        setup_ok = setup_ok && stream->Connect().ok() &&
                   stream->SyncOnce(&sync).ok();
        follower = std::make_unique<dynamicc::Follower>(
            mirror_dir, ServiceOptions(false),
            CorrelationShards(WorkloadKind::kCora));
        setup_ok = setup_ok && follower->Restore().ok() &&
                   follower->CatchUp().ok();
        // Patched: Restore publishes no read view, and the router would
        // admit the viewless follower and answer "not served" until the
        // first replayed epoch.
        if (patched) follower->service().PublishReadView();
        router->AddFollower(&follower->service(), "follower");
      }
      dynamicc::net::NetClient::Options client_options;
      client_options.port = front_end->port();
      client = std::make_unique<dynamicc::net::NetClient>(client_options);
      setup_ok = setup_ok && client->Connect().ok();
    }
    pass.setup_s = (NowUs() - setup_start) / 1e6;
    pass.checks["setup_ok"] = setup_ok;
    if (!setup_ok) return pass;
    ProbeSpeed(kBoundaryProbes, &pass);

    // ---- Serving: the client thread follows the schedule; this thread
    // seals, syncs and replays each epoch the client completed.
    const dynamicc::IngestStats before = primary->ingest_stats();
    EpochQueue queue;
    SpanLog client_spans(/*thread_tag=*/2);
    ClientTally tally;
    const double serve_start = NowUs() + 1000.0;
    std::thread client_thread([&] {
      RunClient(client.get(), serve_start, spans ? &client_spans : nullptr,
                *router, *follower, &queue, &tally);
      queue.Finish();
    });

    bool replication_ok = true;
    for (auto ready = queue.TakeAll(); !ready.empty();
         ready = queue.TakeAll()) {
      const uint64_t trace = static_cast<uint64_t>(ready.back().first) + 1;
      {
        Scope seal(spans, "repl.seal", trace);
        repl->SealEpoch();
      }
      {
        Scope sync(spans, "repl.sync", trace);
        dynamicc::net::DeltaStreamClient::SyncResult sync_result;
        replication_ok = replication_ok && stream->SyncOnce(&sync_result).ok();
      }
      {
        Scope catch_up(spans, "repl.catchup", trace);
        replication_ok = replication_ok && follower->CatchUp().ok();
      }
      const double end = NowUs();
      for (const auto& [epoch, scheduled_us] : ready) {
        pass.round_ms.push_back((end - scheduled_us) / 1e3);
        if (spans != nullptr) {
          spans->Add("round", scheduled_us, end,
                     static_cast<uint64_t>(epoch) + 1);
        }
      }
    }
    client_thread.join();
    pass.serve_s = (NowUs() - serve_start) / 1e6;
    ProbeSpeed(kBoundaryProbes, &pass);
    if (spans != nullptr) spans->Merge(client_spans);

    AddIngestCounters(before, primary->ingest_stats(), kEpochs, &pass);
    pass.ops = tally.ops;
    pass.attempted = tally.attempted;
    pass.failed = tally.failed;
    pass.samples = std::move(tally.samples);
    pass.checks["read_answers_valid"] = tally.invalid_answers == 0;
    pass.counters["net.bytes"] =
        static_cast<double>(client->bytes_sent() + client->bytes_received());
    pass.counters["net.requests"] = static_cast<double>(schedule_.size());
    pass.counters["repl.delta_bytes"] =
        static_cast<double>(repl->delta_bytes_total()) /
        static_cast<double>(std::max<uint64_t>(1, repl->deltas_shipped()));
    pass.counters["read.queries"] = static_cast<double>(router->queries());
    pass.counters["read.rejected_stale"] =
        static_cast<double>(router->rejected_stale());

    // Untimed: ship the tail; the follower must now serve exactly what
    // the primary serves.
    auto ship = [&] {
      repl->SealEpoch();
      dynamicc::net::DeltaStreamClient::SyncResult sync_result;
      return stream->SyncOnce(&sync_result).ok() && follower->CatchUp().ok();
    };
    replication_ok = replication_ok && ship();
    pass.checks["follower_matches_primary"] =
        replication_ok &&
        follower->service().GlobalClusters() == primary->GlobalClusters();
    // The final barrier: the primary reclusters and the follower replays
    // the journaled round. Patched, no other round has run since set-up.
    // The replayed round still diverges on some inputs (a library
    // defect: 31 records at seed 602, 0 at most seeds), so the
    // divergence is counted, not checked; a fix shows as the count
    // dropping to 0.
    primary->Flush();
    replication_ok = replication_ok && ship();
    pass.checks["replication_ok"] = replication_ok && repl->status().ok();
    pass.served = follower->service().GlobalClusters();
    pass.counters["data.edges"] = ServiceEdges(*primary);
    pass.counters["repl.replay_divergent"] = static_cast<double>(
        DivergentRecords(pass.served, primary->GlobalClusters()));
    pass.counters["probe.unserved"] = static_cast<double>(tally.unserved);

    client->Close();
    stream->Close();
    front_end->Stop();
    repl->Stop();
    client.reset();
    stream.reset();
    front_end.reset();
    router.reset();
    follower.reset();
    repl.reset();
    primary.reset();
    fs::remove_all(dir);
    return pass;
  }

  struct ClientTally {
    uint64_t ops = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t invalid_answers = 0;
    /// Reads that came back Ok but not served.
    uint64_t unserved = 0;
    std::map<std::string, std::vector<double>> samples;
  };

  /// The open-loop client: request i is due at start + i * kSlotUs and is
  /// sent then or, if the previous reply came late, as soon as possible.
  void RunClient(dynamicc::net::NetClient* client, double start_us,
                 SpanLog* spans, const dynamicc::ReadRouter& router,
                 const dynamicc::Follower& follower, EpochQueue* queue,
                 ClientTally* tally) const {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point clock_origin = Clock::now();
    const double origin_us = NowUs();
    std::vector<double>& read_us = tally->samples["read_us"];
    std::vector<double>& late_ms = tally->samples["gen.late_ms"];
    std::vector<double>& lag = tally->samples["repl.lag_epochs"];
    for (size_t i = 0; i < schedule_.size(); ++i) {
      const Request& request = schedule_[i];
      const double due_us = start_us + static_cast<double>(i) * kSlotUs;
      std::this_thread::sleep_until(
          clock_origin + std::chrono::microseconds(
                             static_cast<int64_t>(due_us - origin_us)));
      const double sent_us = NowUs();
      const uint64_t trace = i + 1;
      bool ok = false;
      if (request.kind == Request::Kind::kIngest) {
        dynamicc::net::IngestResponse response;
        {
          Scope rpc(spans, "net.ingest_rpc", trace);
          ok = client->Ingest(*request.batch, &response).ok() &&
               response.accepted;
        }
        tally->attempted += request.batch->size();
        if (ok) {
          tally->ops += request.batch->size();
        } else {
          tally->failed += request.batch->size();
        }
        if (request.closes_epoch >= 0) {
          queue->Push(request.closes_epoch, due_us);
        }
      } else {
        bool valid = true;
        bool status_ok = false;
        {
          Scope rpc(spans, "net.read_rpc", trace);
          if (request.kind == Request::Kind::kClusterOf) {
            dynamicc::net::ClusterOfResponse response;
            status_ok =
                client->ClusterOf(request.id, kMaxStalenessEpochs, &response)
                    .ok();
            ok = status_ok && response.info.served;
            // A non-empty answer must contain the id it was asked about.
            valid = !ok || response.members.empty() ||
                    std::find(response.members.begin(),
                              response.members.end(),
                              request.id) != response.members.end();
          } else {
            dynamicc::net::KNearestResponse response;
            status_ok = client->KNearest(*request.probe, kNearestK,
                                         kMaxStalenessEpochs, &response)
                            .ok();
            ok = status_ok && response.info.served;
            valid = !ok || response.hits.size() <= kNearestK;
            for (const auto& hit : response.hits) {
              valid = valid && !hit.members.empty();
            }
          }
        }
        read_us.push_back(NowUs() - due_us);
        if (!ok && status_ok) tally->unserved += 1;
        tally->attempted += 1;
        if (!ok || !valid) tally->failed += 1;
        if (!valid) tally->invalid_answers += 1;
        const dynamicc::ReadViewRegistry* views =
            follower.service().read_views();
        const uint64_t follower_epoch = views ? views->current_epoch() : 0;
        const uint64_t frontier = router.Frontier();
        lag.push_back(frontier > follower_epoch
                          ? static_cast<double>(frontier - follower_epoch)
                          : 0.0);
      }
      late_ms.push_back((sent_us - due_us) / 1e3);
    }
  }

  std::string scratch_dir_;
  int passes_ = 0;
  dynamicc::WorkloadStream stream_;
  std::vector<std::vector<dynamicc::OperationBatch>> epoch_batches_;
  std::vector<Request> schedule_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeReplicated(uint64_t seed,
                                              const std::string& scratch_dir) {
  return std::make_unique<ServeReplicated>(seed, scratch_dir);
}

}  // namespace perfbench
