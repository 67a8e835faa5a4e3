// Command-line experiment driver: run any method on any workload/task
// combination and print per-snapshot latency + quality, or emit CSV for
// plotting. A thin veneer over the harness in src/harness.
//
//   dynamicc_cli --workload cora --task db-index --method dynamicc
//   dynamicc_cli --workload road --task kmeans --method all --scale 1500
//   dynamicc_cli --workload music --task db-index --method greedy --csv
//
// Flags:
//   --workload  cora | music | synthetic | access | road   (default cora)
//   --task      db-index | kmeans | correlation | dbscan   (default db-index)
//   --method    batch | naive | greedy | dynamicc | greedyset | all
//   --scale     initial object count override (0 = generator default)
//   --seed      stream seed override (0 = generator default)
//   --kmeans-k  cluster count for the kmeans task
//   --csv       emit CSV instead of aligned tables
//
// Sharded serving (src/service/): --shards N partitions the stream over
// N concurrent engines instead of the single-engine harness path
// (correlation or db-index task, dynamicc method); -j N sets the worker
// thread count (0 = one per shard, capped at the hardware):
//
//   dynamicc_cli --workload cora --task correlation --shards 4 -j 2
//   dynamicc_cli --workload cora --task db-index --shards 4
//
// Durability: --save-snapshot DIR persists the full serving state
// (engines, models, id maps, placement) after serving snapshot
// --snapshot-at K; --load-snapshot DIR --resume-at K warm-restarts a
// fresh process from it and continues the same deterministic stream —
// the `final:` line on stdout is byte-equal to the never-restarted
// run's:
//
//   dynamicc_cli --task correlation --shards 2 --save-snapshot s
//                --snapshot-at 4                             (one line)
//   dynamicc_cli --task correlation --shards 2 --load-snapshot s
//                --resume-at 4                               (one line)
//
// Async pipelined ingestion: --async puts a bounded queue in front of
// every shard and snapshots are served by background round workers;
// --queue-depth N bounds each queue (pending coalesced operations) and
// --backpressure block|reject picks what a full queue does to the
// producer. Serving snapshots are enqueued and the stream ends with a
// Flush() barrier:
//
//   dynamicc_cli --workload cora --task correlation --shards 4 --async
//                --queue-depth 512 --backpressure block      (one line)
//
// Replication & failover (src/replication/): --replicate-to DIR turns
// the run into a replicated primary — after training it publishes a
// base snapshot into DIR and ships one epoch-tagged delta per serving
// snapshot (--replicate-snapshot-every K compacts the log behind a
// fresh base every K epochs). A second process tails DIR with --follow:
// it restores the base, replays the deltas, and its `final:` line is
// byte-equal to the primary's; --promote-at K instead promotes the
// follower after serving snapshot K (zero retraining) and serves the
// remaining deterministic stream itself — still byte-equal:
//
//   dynamicc_cli --task correlation --shards 2 --replicate-to R (one line)
//   dynamicc_cli --task correlation --shards 2 --follow R       (same line)
//   dynamicc_cli --task correlation --shards 2 --follow R
//                --promote-at 4                               (same line)
//
// Sharded DBSCAN: --task dbscan now serves through --shards N too (a
// validator-only environment: no objective; the DBSCAN core-stability
// validator binds to each shard's similarity graph).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "batch/agglomerative.h"
#include "batch/dbscan.h"
#include "batch/hill_climbing.h"
#include "harness/experiment.h"
#include "ml/logistic_regression.h"
#include "net/client.h"
#include "net/delta_stream.h"
#include "net/front_end.h"
#include "net/socket.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "objective/correlation.h"
#include "objective/db_index.h"
#include "replication/follower.h"
#include "replication/replication_session.h"
#include "service/query_api.h"
#include "service/service_report.h"
#include "service/sharded_service.h"
#include "service/snapshot.h"
#include "util/csv.h"
#include "util/timer.h"
#include "util/wire.h"

using namespace dynamicc;

namespace {

struct CliArgs {
  std::string workload = "cora";
  std::string task = "db-index";
  std::string method = "dynamicc";
  size_t scale = 0;
  uint64_t seed = 0;
  int kmeans_k = 24;
  bool csv = false;
  uint32_t shards = 1;
  uint32_t threads = 0;
  bool async = false;
  size_t queue_depth = 4096;
  std::string backpressure = "block";
  uint32_t rebalance_every = 0;
  bool adaptive_batch = false;
  /// Durable snapshots: --save-snapshot DIR writes one after serving
  /// snapshot --snapshot-at K (0 = after the final barrier);
  /// --load-snapshot DIR warm-starts from one, skipping the first
  /// --resume-at K serving snapshots (the stream generator is
  /// deterministic, so the resumed run continues the exact stream).
  std::string save_snapshot;
  size_t snapshot_at = 0;
  std::string load_snapshot;
  size_t resume_at = 0;
  /// Replication: --replicate-to DIR makes this run a replicated
  /// primary (base snapshot + one delta per serving snapshot into DIR;
  /// --replicate-snapshot-every K compacts behind a fresh base every K
  /// epochs). --follow DIR makes it a follower of DIR; --promote-at K
  /// additionally promotes it after serving snapshot K and serves the
  /// rest of the deterministic stream itself.
  std::string replicate_to;
  uint32_t replicate_snapshot_every = 0;
  std::string follow;
  size_t promote_at = 0;
  /// Observability: --metrics-out FILE attaches the process-wide
  /// metrics registry to the service and exports a snapshot (JSON, or
  /// CSV when FILE ends in ".csv") at the end of the run —
  /// --metrics-every K additionally re-exports after every K stream
  /// snapshots, so a live run can be watched by tailing the file.
  /// --trace-out FILE attaches an epoch tracer and flushes its spans as
  /// Chrome-trace JSON (load in chrome://tracing or Perfetto).
  std::string metrics_out;
  uint32_t metrics_every = 0;
  std::string trace_out;
  /// Read path: --serve-reads publishes an epoch-pinned read view at
  /// every sealed epoch and runs --read-clients concurrent reader
  /// threads through a ReadRouter while the stream is being served
  /// (point lookups, k-nearest-cluster probes and partition stats);
  /// --max-staleness-epochs K is the router's per-query admission
  /// bound. Reads are side-effect-free: the `final:` line is unchanged,
  /// a `reads:` line reports what was served.
  bool serve_reads = false;
  int read_clients = 2;
  uint64_t max_staleness_epochs = 8;
  /// Networked serving (src/net/): --listen PORT|HOST:PORT starts a
  /// TCP front end on the primary (ingest + queries + the replication
  /// stream when --replicate-to is set; port 0 picks an ephemeral
  /// port, written to --port-file). --linger keeps the server up after
  /// the stream ends until a Shutdown RPC arrives. A follower started
  /// with --replicate-over tcp --connect HOST:PORT mirrors the
  /// primary's replication stream over the wire into its --follow
  /// directory (compressed deltas, byte-identical replay);
  /// --shutdown-server sends the Shutdown RPC when it is done.
  /// --replicate-resume makes a promoted follower resume the existing
  /// delta log at its sealed epoch (chained replication) instead of
  /// serving the tail unreplicated.
  std::string listen;
  std::string port_file;
  bool linger = false;
  std::string connect;
  std::string replicate_over = "shared";
  bool shutdown_server = false;
  bool replicate_resume = false;
  /// Remote introspection (client modes — dial, print, exit; no local
  /// serving): --scrape HOST:PORT prints the server's Prometheus
  /// metrics text to stdout, --health HOST:PORT its health and active
  /// alerts (exit 3 when degraded), --trace-dump-from HOST:PORT its
  /// Chrome-trace JSON, and --rpc-shutdown HOST:PORT sends the
  /// Shutdown RPC. --watchdog attaches an SLO watchdog (replica
  /// staleness, read-path rejections, queue depth, event-loop lag) to
  /// a serving run; the Health RPC reports its active alerts.
  std::string scrape;
  std::string health;
  std::string trace_dump_from;
  std::string rpc_shutdown;
  bool watchdog = false;
};

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--workload") {
      const char* v = next();
      if (v == nullptr) return false;
      args->workload = v;
    } else if (flag == "--task") {
      const char* v = next();
      if (v == nullptr) return false;
      args->task = v;
    } else if (flag == "--method") {
      const char* v = next();
      if (v == nullptr) return false;
      args->method = v;
    } else if (flag == "--scale") {
      const char* v = next();
      if (v == nullptr) return false;
      args->scale = static_cast<size_t>(std::stoul(v));
    } else if (flag == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      args->seed = static_cast<uint64_t>(std::stoull(v));
    } else if (flag == "--kmeans-k") {
      const char* v = next();
      if (v == nullptr) return false;
      args->kmeans_k = std::stoi(v);
    } else if (flag == "--csv") {
      args->csv = true;
    } else if (flag == "--shards") {
      const char* v = next();
      if (v == nullptr) return false;
      args->shards = static_cast<uint32_t>(std::stoul(v));
    } else if (flag == "-j" || flag == "--threads") {
      const char* v = next();
      if (v == nullptr) return false;
      args->threads = static_cast<uint32_t>(std::stoul(v));
    } else if (flag == "--async") {
      args->async = true;
    } else if (flag == "--adaptive-batch") {
      args->adaptive_batch = true;
    } else if (flag == "--rebalance-every") {
      const char* v = next();
      if (v == nullptr) return false;
      args->rebalance_every = static_cast<uint32_t>(std::stoul(v));
    } else if (flag == "--save-snapshot") {
      const char* v = next();
      if (v == nullptr) return false;
      args->save_snapshot = v;
    } else if (flag == "--snapshot-at") {
      const char* v = next();
      if (v == nullptr) return false;
      args->snapshot_at = static_cast<size_t>(std::stoul(v));
    } else if (flag == "--load-snapshot") {
      const char* v = next();
      if (v == nullptr) return false;
      args->load_snapshot = v;
    } else if (flag == "--resume-at") {
      const char* v = next();
      if (v == nullptr) return false;
      args->resume_at = static_cast<size_t>(std::stoul(v));
    } else if (flag == "--replicate-to") {
      const char* v = next();
      if (v == nullptr) return false;
      args->replicate_to = v;
    } else if (flag == "--replicate-snapshot-every") {
      const char* v = next();
      if (v == nullptr) return false;
      args->replicate_snapshot_every = static_cast<uint32_t>(std::stoul(v));
    } else if (flag == "--follow") {
      const char* v = next();
      if (v == nullptr) return false;
      args->follow = v;
    } else if (flag == "--promote-at") {
      const char* v = next();
      if (v == nullptr) return false;
      args->promote_at = static_cast<size_t>(std::stoul(v));
    } else if (flag == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return false;
      args->metrics_out = v;
    } else if (flag == "--metrics-every") {
      const char* v = next();
      if (v == nullptr) return false;
      args->metrics_every = static_cast<uint32_t>(std::stoul(v));
    } else if (flag == "--trace-out") {
      const char* v = next();
      if (v == nullptr) return false;
      args->trace_out = v;
    } else if (flag == "--serve-reads") {
      args->serve_reads = true;
    } else if (flag == "--read-clients") {
      const char* v = next();
      if (v == nullptr) return false;
      args->read_clients = std::stoi(v);
    } else if (flag == "--max-staleness-epochs") {
      const char* v = next();
      if (v == nullptr) return false;
      args->max_staleness_epochs = static_cast<uint64_t>(std::stoull(v));
    } else if (flag == "--listen") {
      const char* v = next();
      if (v == nullptr) return false;
      args->listen = v;
    } else if (flag == "--port-file") {
      const char* v = next();
      if (v == nullptr) return false;
      args->port_file = v;
    } else if (flag == "--linger") {
      args->linger = true;
    } else if (flag == "--connect") {
      const char* v = next();
      if (v == nullptr) return false;
      args->connect = v;
    } else if (flag == "--replicate-over") {
      const char* v = next();
      if (v == nullptr) return false;
      args->replicate_over = v;
      if (args->replicate_over != "shared" && args->replicate_over != "tcp") {
        std::fprintf(stderr, "--replicate-over must be shared or tcp\n");
        return false;
      }
    } else if (flag == "--shutdown-server") {
      args->shutdown_server = true;
    } else if (flag == "--replicate-resume") {
      args->replicate_resume = true;
    } else if (flag == "--scrape") {
      const char* v = next();
      if (v == nullptr) return false;
      args->scrape = v;
    } else if (flag == "--health") {
      const char* v = next();
      if (v == nullptr) return false;
      args->health = v;
    } else if (flag == "--trace-dump-from") {
      const char* v = next();
      if (v == nullptr) return false;
      args->trace_dump_from = v;
    } else if (flag == "--rpc-shutdown") {
      const char* v = next();
      if (v == nullptr) return false;
      args->rpc_shutdown = v;
    } else if (flag == "--watchdog") {
      args->watchdog = true;
    } else if (flag == "--queue-depth") {
      const char* v = next();
      if (v == nullptr) return false;
      args->queue_depth = static_cast<size_t>(std::stoul(v));
    } else if (flag == "--backpressure") {
      const char* v = next();
      if (v == nullptr) return false;
      args->backpressure = v;
      if (args->backpressure != "block" && args->backpressure != "reject") {
        std::fprintf(stderr, "--backpressure must be block or reject\n");
        return false;
      }
    } else if (flag == "--help" || flag == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: dynamicc_cli [--workload cora|music|synthetic|access|road]\n"
      "                    [--task db-index|kmeans|correlation|dbscan]\n"
      "                    [--method batch|naive|greedy|dynamicc|greedyset|"
      "all]\n"
      "                    [--scale N] [--seed N] [--kmeans-k N] [--csv]\n"
      "                    [--shards N] [-j N] [--async] [--queue-depth N]\n"
      "                    [--backpressure block|reject]\n"
      "                    [--rebalance-every K] [--adaptive-batch]\n"
      "                    [--save-snapshot DIR] [--snapshot-at K]\n"
      "                    [--load-snapshot DIR] [--resume-at K]\n"
      "  --shards N > 1 serves with the sharded service (correlation or\n"
      "  db-index task, dynamicc method); -j N sets its worker thread\n"
      "  count (0 = auto).\n"
      "  --async pipelines ingestion through bounded per-shard queues with\n"
      "  background round workers; --queue-depth bounds each queue and\n"
      "  --backpressure picks what a full queue does to the producer.\n"
      "  --rebalance-every K moves whole blocking groups off the shard\n"
      "  with the most alive records every K dynamic barriers;\n"
      "  --adaptive-batch lets each async worker size its drain bite by\n"
      "  AIMD.\n"
      "  --save-snapshot DIR persists the full serving state after\n"
      "  serving snapshot --snapshot-at K (0 = end of stream);\n"
      "  --load-snapshot DIR warm-restarts from it and --resume-at K\n"
      "  continues the deterministic stream after the first K snapshots.\n"
      "  --replicate-to DIR ships a base snapshot plus one epoch delta\n"
      "  per serving snapshot into DIR (--replicate-snapshot-every K\n"
      "  compacts behind a fresh base every K epochs); --follow DIR\n"
      "  replays DIR as a follower, and --promote-at K fails over after\n"
      "  serving snapshot K and serves the remaining stream itself.\n"
      "  --metrics-out FILE exports service metrics (JSON; CSV if FILE\n"
      "  ends in .csv) at the end of the run, --metrics-every K also\n"
      "  after every K stream snapshots; --trace-out FILE flushes epoch\n"
      "  trace spans as Chrome-trace JSON.\n"
      "  --serve-reads publishes an epoch-pinned read view per sealed\n"
      "  epoch and serves --read-clients N concurrent reader threads\n"
      "  through a ReadRouter while the stream runs (lock-free; the\n"
      "  final: line is unchanged); --max-staleness-epochs K bounds how\n"
      "  many epochs behind the frontier an answer may be.\n"
      "  --listen PORT|HOST:PORT serves ingest, queries and the\n"
      "  replication stream over TCP (port 0 = ephemeral; --port-file\n"
      "  FILE writes the bound port for scripts); --linger keeps the\n"
      "  server up after the stream ends until a Shutdown RPC arrives.\n"
      "  A follower with --replicate-over tcp --connect HOST:PORT\n"
      "  mirrors the primary's replication stream over the wire into\n"
      "  its --follow dir (compressed deltas, byte-identical replay);\n"
      "  --shutdown-server sends the Shutdown RPC when it is done.\n"
      "  --replicate-resume makes a promoted follower resume the\n"
      "  existing delta log at its sealed epoch (chained replication)\n"
      "  instead of serving the tail unreplicated.\n"
      "  Remote introspection (client modes, run and exit): --scrape\n"
      "  HOST:PORT prints the server's Prometheus metrics text to\n"
      "  stdout, --health HOST:PORT its health + active alerts (exit 3\n"
      "  when degraded), --trace-dump-from HOST:PORT its Chrome-trace\n"
      "  JSON, --rpc-shutdown HOST:PORT sends the Shutdown RPC.\n"
      "  --watchdog attaches an SLO watchdog (staleness, read\n"
      "  rejections, queue depth, event-loop lag) to a serving run;\n"
      "  Health reports its alerts. A caught-up follower may --listen\n"
      "  too: it serves its replica state, scrape and health over TCP\n"
      "  (with --linger, until a Shutdown RPC).\n");
}

bool ToWorkload(const std::string& name, WorkloadKind* out) {
  if (name == "cora") *out = WorkloadKind::kCora;
  else if (name == "music") *out = WorkloadKind::kMusic;
  else if (name == "synthetic") *out = WorkloadKind::kSynthetic;
  else if (name == "access") *out = WorkloadKind::kAccess;
  else if (name == "road") *out = WorkloadKind::kRoad;
  else return false;
  return true;
}

bool ToTask(const std::string& name, TaskKind* out) {
  if (name == "db-index") *out = TaskKind::kDbIndex;
  else if (name == "kmeans") *out = TaskKind::kKMeans;
  else if (name == "correlation") *out = TaskKind::kCorrelation;
  else if (name == "dbscan") *out = TaskKind::kDbscan;
  else return false;
  return true;
}

void PrintSeries(const std::vector<Series>& series_list, bool csv) {
  std::vector<std::string> headers{"snapshot", "objects"};
  for (const auto& series : series_list) {
    headers.push_back(series.method + "_ms");
    headers.push_back(series.method + "_F1");
    headers.push_back(series.method + "_score");
  }
  TableWriter table(headers);
  size_t rows = series_list.front().points.size();
  for (size_t i = 0; i < rows; ++i) {
    std::vector<std::string> row{
        std::to_string(series_list.front().points[i].snapshot),
        std::to_string(series_list.front().points[i].num_objects)};
    for (const auto& series : series_list) {
      row.push_back(TableWriter::Num(series.points[i].latency_ms, 1));
      row.push_back(TableWriter::Num(series.points[i].quality.f1));
      row.push_back(TableWriter::Num(series.points[i].objective, 2));
    }
    table.AddRow(row);
  }
  if (csv) {
    std::cout << table.ToCsv();
  } else {
    table.Print(std::cout);
  }
}

/// Per-shard environment factory for the tasks the sharded path serves:
/// every shard gets the workload's Table-1 profile plus its own copy of
/// the task objective/validator/batch pipeline. The pipeline comes from
/// the harness's MakeTaskPipeline — the *same* builder the single-engine
/// path uses — so `--shards N` is comparable with it by construction
/// (correlation: greedy agglomeration + hill climbing; db-index:
/// agglomeration bootstrapped on the O(1)-delta correlation objective,
/// then hill climbing on DB-index).
ShardEnvironmentFactory MakeShardFactory(const ExperimentConfig& config) {
  return [config] {
    ShardEnvironment env;
    DatasetProfile profile = MakeProfile(config.workload);
    env.measure = std::move(profile.measure);
    env.blocker = std::move(profile.blocker);
    env.min_similarity = profile.min_similarity;
    if (config.task == TaskKind::kDbscan) {
      // Validator-only environment: DBSCAN has no objective, and its
      // core-stability validator binds to the shard's similarity graph,
      // which the service creates after this factory returns — hence
      // the deferred validator_factory.
      auto dbscan = std::make_unique<Dbscan>(config.dbscan);
      const Dbscan* core = dbscan.get();
      env.batch = std::move(dbscan);
      env.validator_factory = [core](const SimilarityGraph* graph)
          -> std::unique_ptr<ChangeValidator> {
        return std::make_unique<DbscanValidator>(core, graph);
      };
    } else {
      TaskPipeline pipeline = MakeTaskPipeline(config);
      env.objective = std::move(pipeline.objective);
      env.bootstrap_objective = std::move(pipeline.bootstrap_objective);
      env.validator = std::move(pipeline.validator);
      env.batch_stages = std::move(pipeline.stages);
      env.batch = std::move(pipeline.batch);
    }
    env.merge_model = std::make_unique<LogisticRegression>();
    env.split_model = std::make_unique<LogisticRegression>();
    return env;
  };
}

/// Deterministic end-of-run state line (stdout): everything in it is
/// reproducible across processes on the same stream, so a warm-restarted
/// run is checked for equality against the never-restarted one by
/// comparing this single line (the CI persistence step does exactly
/// that). The hash covers the full canonical partition in global ids.
/// Deliberately excluded: applied/coalesced op counts — in async mode
/// queue coalescing depends on drain-worker timing, so those counters
/// legitimately vary between equivalent runs (the flush-barrier
/// equivalence guarantee covers the *clustering*, not how much work the
/// queues managed to fold away).
void PrintFinalState(ShardedDynamicCService& service) {
  ServiceSnapshot snap = service.Snapshot();
  std::string canonical;
  for (const auto& members : snap.clusters) {
    for (ObjectId id : members) {
      canonical += std::to_string(id);
      canonical += ' ';
    }
    canonical += '\n';
  }
  std::printf(
      "final: objects=%zu clusters=%zu placement_version=%llu "
      "migrations=%llu accepted=%llu epoch=%llu state_hash=%016llx\n",
      snap.total_objects, snap.total_clusters,
      static_cast<unsigned long long>(snap.report.placement_version),
      static_cast<unsigned long long>(snap.report.groups_migrated),
      static_cast<unsigned long long>(snap.report.ingest.accepted_ops),
      static_cast<unsigned long long>(snap.report.ingest.applied_epoch),
      static_cast<unsigned long long>(SnapshotChecksum(canonical)));
}

/// Exports metrics (refreshing the registry's IngestStats mirror gauges
/// first, so file and report agree) and, when a tracer is attached, its
/// spans as Chrome-trace JSON. Export failures are reported but never
/// fail the run — observability degrades, the experiment does not.
void ExportObservability(const CliArgs& args,
                         const ShardedDynamicCService& service,
                         const obs::Tracer* tracer) {
  if (!args.metrics_out.empty() && service.metrics_registry() != nullptr) {
    service.ingest_stats();  // refresh mirror gauges before the export
    Status status =
        obs::ExportMetrics(*service.metrics_registry(), args.metrics_out);
    if (!status.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   status.ToString().c_str());
    }
  }
  if (tracer != nullptr && !args.trace_out.empty()) {
    Status status = obs::ExportTrace(*tracer, args.trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   status.ToString().c_str());
    }
  }
}

/// Dials |target| and runs |body| on the connected client. Returns 2 on
/// a bad address, 1 on a failed dial, otherwise whatever |body| does.
int WithClient(const std::string& target,
               const std::function<int(net::NetClient&)>& body) {
  net::NetClient::Options copts;
  Status status = net::ParseHostPort(target, &copts.host, &copts.port);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", target.c_str(),
                 status.ToString().c_str());
    return 2;
  }
  net::NetClient client(copts);
  status = client.Connect();
  if (!status.ok()) {
    std::fprintf(stderr, "connect %s failed: %s\n", target.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  const int rc = body(client);
  client.Close();
  return rc;
}

/// Remote introspection client modes (--scrape / --health /
/// --trace-dump-from / --rpc-shutdown): independent of the workload
/// flags, so scripts can probe any serving process without re-stating
/// its stream configuration. Runs every requested probe in order and
/// stops at the first failure.
int RunIntrospection(const CliArgs& args) {
  if (!args.scrape.empty()) {
    const int rc = WithClient(args.scrape, [](net::NetClient& client) {
      std::string text;
      Status status = client.MetricsScrape(&text);
      if (!status.ok()) {
        std::fprintf(stderr, "scrape failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      std::fwrite(text.data(), 1, text.size(), stdout);
      return 0;
    });
    if (rc != 0) return rc;
  }
  if (!args.health.empty()) {
    const int rc = WithClient(args.health, [](net::NetClient& client) {
      net::HealthResponse health;
      Status status = client.Health(&health);
      if (!status.ok()) {
        std::fprintf(stderr, "health failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      std::printf("health: %s alerts_active=%llu\n",
                  health.ok ? "ok" : "degraded",
                  static_cast<unsigned long long>(health.alerts_active));
      for (const std::string& alert : health.alerts) {
        std::printf("alert: %s\n", alert.c_str());
      }
      return health.ok ? 0 : 3;
    });
    if (rc != 0) return rc;
  }
  if (!args.trace_dump_from.empty()) {
    const int rc =
        WithClient(args.trace_dump_from, [](net::NetClient& client) {
          std::string json;
          Status status = client.TraceDump(&json);
          if (!status.ok()) {
            std::fprintf(stderr, "trace dump failed: %s\n",
                         status.ToString().c_str());
            return 1;
          }
          std::fwrite(json.data(), 1, json.size(), stdout);
          return 0;
        });
    if (rc != 0) return rc;
  }
  if (!args.rpc_shutdown.empty()) {
    return WithClient(args.rpc_shutdown, [](net::NetClient& client) {
      Status status = client.Shutdown();
      if (!status.ok()) {
        std::fprintf(stderr, "rpc-shutdown failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "server shut down\n");
      return 0;
    });
  }
  return 0;
}

/// Default SLO rules for --watchdog: replica staleness, read-path
/// staleness rejections, ingest queue depth, and event-loop lag. The
/// thresholds are generous on purpose — the watchdog flags sustained
/// breaches, and each rule clears well below where it fires so a value
/// oscillating around the threshold produces one alert, not a storm.
void AddDefaultSloRules(obs::Watchdog* watchdog, const CliArgs& args) {
  obs::Watchdog::Rule rule;
  rule.name = "follower-staleness";
  rule.metric = "follower.epochs_behind";
  rule.fire_above = 8.0;
  rule.clear_below = 2.0;
  watchdog->AddRule(rule);

  rule = obs::Watchdog::Rule();
  rule.name = "read-stale-rejections";
  rule.metric = "read.rejected_stale";
  rule.kind = obs::Watchdog::Rule::Kind::kCounterDelta;
  rule.fire_above = 100.0;
  rule.clear_below = 1.0;
  watchdog->AddRule(rule);

  rule = obs::Watchdog::Rule();
  rule.name = "ingest-queue-depth";
  rule.metric = "ingest.pending_ops";
  rule.fire_above = 0.9 * static_cast<double>(args.queue_depth);
  rule.clear_below = 0.5 * static_cast<double>(args.queue_depth);
  watchdog->AddRule(rule);

  rule = obs::Watchdog::Rule();
  rule.name = "event-loop-lag";
  rule.metric = "net.loop_lag_ms";
  rule.fire_above = 250.0;
  rule.clear_below = 50.0;
  watchdog->AddRule(rule);
}

/// Serves the workload stream with the sharded service instead of the
/// single-engine harness: one environment per shard, the first
/// `training_rounds` snapshots observed, the rest served dynamically
/// (correlation and db-index tasks). With --load-snapshot the service
/// warm-restarts from a saved state and continues the deterministic
/// stream at --resume-at.
ShardedDynamicCService::Options MakeServiceOptions(
    const CliArgs& args, const ExperimentConfig& config) {
  ShardedDynamicCService::Options options;
  options.num_shards = args.shards;
  options.num_threads = args.threads;
  options.async.enabled = args.async;
  options.async.queue_depth = args.queue_depth;
  options.async.backpressure = args.backpressure == "reject"
                                   ? BackpressurePolicy::kReject
                                   : BackpressurePolicy::kBlock;
  options.async.adaptive_batch = args.adaptive_batch;
  options.read.serve = args.serve_reads;
  options.rebalance.every_rounds = args.rebalance_every;
  // Mirror the harness's session configuration so `--shards N` is
  // comparable with the single-engine path on the same stream.
  options.session.threshold = config.threshold;
  options.session.dynamicc = config.dynamicc;
  options.session.trainer = config.trainer;
  options.session.retrain_every = config.retrain_every;
  options.session.observe_every = config.observe_every;
  return options;
}

int RunSharded(const CliArgs& args, const ExperimentConfig& config) {
  WorkloadStream stream =
      MakeStream(config.workload, config.scale, config.seed);
  ShardedDynamicCService::Options options = MakeServiceOptions(args, config);
  std::unique_ptr<obs::Tracer> tracer;
  if (!args.trace_out.empty()) {
    tracer = std::make_unique<obs::Tracer>(args.shards);
    options.obs.tracer = tracer.get();
  }
  if (!args.metrics_out.empty()) {
    options.obs.metrics = &obs::MetricsRegistry::Default();
  }
  // --watchdog needs a registry to watch (and forces one on when no
  // export was requested — alerts are still scrapeable over TCP).
  std::unique_ptr<obs::Watchdog> watchdog;
  if (args.watchdog) {
    if (options.obs.metrics == nullptr) {
      options.obs.metrics = &obs::MetricsRegistry::Default();
    }
    watchdog =
        std::make_unique<obs::Watchdog>(options.obs.metrics,
                                        options.obs.tracer);
    AddDefaultSloRules(watchdog.get(), args);
    watchdog->Start(/*interval_ms=*/100);
  }
  // A --listen server is always scrapeable: MetricsScrape needs a
  // registry even when no local export was asked for.
  if (!args.listen.empty() && options.obs.metrics == nullptr) {
    options.obs.metrics = &obs::MetricsRegistry::Default();
  }
  ShardedDynamicCService service(options, /*router=*/nullptr,
                                 MakeShardFactory(config));

  // Replication: the primary publishes its base snapshot at the
  // training -> serving transition, then seals (and ships) one epoch
  // per serving snapshot.
  std::unique_ptr<ReplicationSession> repl;
  if (!args.replicate_to.empty()) {
    ReplicationSession::Options repl_options;
    repl_options.snapshot_every = args.replicate_snapshot_every;
    repl = std::make_unique<ReplicationSession>(&service, args.replicate_to,
                                                repl_options);
  }
  // Networked serving (--listen): ingest, queries and — when this run
  // replicates — the replication stream, all served over TCP while the
  // local stream runs. Started before the stream so followers and load
  // generators can dial in early (the replication RPCs answer "nothing
  // published yet" until the session starts at the serving transition).
  std::unique_ptr<net::ServerFrontEnd> front_end;
  if (!args.listen.empty()) {
    net::ServerFrontEnd::Options fe_options;
    Status status = net::ParseHostPort(args.listen, &fe_options.host,
                                       &fe_options.port);
    if (!status.ok()) {
      std::fprintf(stderr, "--listen: %s\n", status.ToString().c_str());
      return 2;
    }
    fe_options.replication_dir = args.replicate_to;
    fe_options.metrics = options.obs.metrics;
    // Share the service's tracer so one trace spans the RPC handler and
    // the shard-side work it triggered; Health reports the watchdog.
    fe_options.tracer = options.obs.tracer;
    fe_options.watchdog = watchdog.get();
    front_end = std::make_unique<net::ServerFrontEnd>(&service,
                                                      /*router=*/nullptr,
                                                      fe_options);
    status = front_end->Start();
    if (!status.ok()) {
      std::fprintf(stderr, "--listen failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "listening on %s:%u\n", fe_options.host.c_str(),
                 front_end->port());
    if (!args.port_file.empty()) {
      status = WriteFileAtomic(args.port_file,
                               std::to_string(front_end->port()) + "\n");
      if (!status.ok()) {
        std::fprintf(stderr, "--port-file failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
    }
  }

  bool repl_started = false;
  auto maybe_start_replication = [&args, &repl, &repl_started, &service] {
    if (repl == nullptr || repl_started) return;
    service.Flush();  // the trained state the base snapshot captures
    Status status = repl->Start();
    if (!status.ok()) {
      std::fprintf(stderr, "replicate-to failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
    repl_started = true;
    std::fprintf(stderr, "replicating to %s: base at epoch %llu\n",
                 args.replicate_to.c_str(),
                 static_cast<unsigned long long>(repl->last_base_epoch()));
  };
  auto report_replication = [&repl, &repl_started]() -> bool {
    if (!repl_started) return true;
    if (!repl->status().ok()) {
      std::fprintf(stderr, "replication error: %s\n",
                   repl->status().ToString().c_str());
      return false;
    }
    std::fprintf(stderr,
                 "replication: %llu deltas shipped, last base at epoch "
                 "%llu\n",
                 static_cast<unsigned long long>(repl->deltas_shipped()),
                 static_cast<unsigned long long>(repl->last_base_epoch()));
    return true;
  };

  // Read path (--serve-reads): concurrent reader threads over a
  // ReadRouter while the stream is being served — point lookups,
  // k-nearest probes and partition stats against epoch-pinned views,
  // lock-free against the ingest running on the same service. Readers
  // start at the serving transition (the first published view) and are
  // joined before the final state line; reads are side-effect-free, so
  // `final:` stays byte-identical to a run without them.
  std::unique_ptr<ReadRouter> router;
  std::vector<std::thread> reader_threads;
  std::atomic<bool> readers_stop{false};
  std::atomic<uint64_t> reads_served{0};
  std::atomic<uint64_t> reads_max_staleness{0};
  Record read_probe;
  for (const DataOperation& op : stream.initial) {
    if (op.kind == DataOperation::Kind::kAdd) {
      read_probe = op.record;
      break;
    }
  }
  auto maybe_start_readers = [&] {
    if (!args.serve_reads || router != nullptr) return;
    ReadRouter::Options router_options;
    router_options.max_staleness_epochs = args.max_staleness_epochs;
    if (!args.metrics_out.empty()) {
      router_options.metrics = &obs::MetricsRegistry::Default();
    }
    router = std::make_unique<ReadRouter>(&service, router_options);
    const size_t known_objects = std::max<size_t>(1, service.total_objects());
    for (int c = 0; c < std::max(1, args.read_clients); ++c) {
      reader_threads.emplace_back([&, known_objects, c] {
        uint64_t t = static_cast<uint64_t>(c) * 7919;
        while (!readers_stop.load(std::memory_order_relaxed)) {
          QueryClient::ResultInfo info;
          switch (t % 3) {
            case 0:
              info = router->Stats().info;
              break;
            case 1:
              info = router
                         ->ClusterOfRecord(static_cast<ObjectId>(
                             (t * 2654435761ull) % known_objects))
                         .info;
              break;
            default:
              info = router->KNearestClusters(read_probe, 4).info;
          }
          if (info.served) {
            reads_served.fetch_add(1, std::memory_order_relaxed);
            uint64_t seen =
                reads_max_staleness.load(std::memory_order_relaxed);
            while (info.staleness > seen &&
                   !reads_max_staleness.compare_exchange_weak(
                       seen, info.staleness, std::memory_order_relaxed)) {
            }
          }
          ++t;
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
    }
    std::fprintf(stderr,
                 "serving reads: %d clients, staleness bound %llu epochs\n",
                 std::max(1, args.read_clients),
                 static_cast<unsigned long long>(args.max_staleness_epochs));
  };
  // End of stream for the TCP front end: flip stream_done so tailing
  // followers drain and stop; with --linger hold the server (and the
  // fully-served state) up until a Shutdown RPC tears it down — the CI
  // smoke queries the finished primary and shuts it down explicitly.
  auto finish_front_end = [&args, &front_end] {
    if (front_end == nullptr) return;
    front_end->SetStreamDone(true);
    if (args.linger) {
      std::fprintf(stderr, "stream done; lingering until Shutdown RPC\n");
      front_end->Join();
    }
    front_end->Stop();
  };

  auto finish_readers = [&] {
    if (router == nullptr) return;
    readers_stop.store(true, std::memory_order_relaxed);
    for (std::thread& thread : reader_threads) thread.join();
    std::printf(
        "reads: routed=%llu served=%llu rejected_stale=%llu "
        "max_staleness=%llu bound=%llu frontier=%llu\n",
        static_cast<unsigned long long>(router->queries()),
        static_cast<unsigned long long>(
            reads_served.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(router->rejected_stale()),
        static_cast<unsigned long long>(
            reads_max_staleness.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(args.max_staleness_epochs),
        static_cast<unsigned long long>(router->Frontier()));
  };

  const bool resuming = !args.load_snapshot.empty();
  size_t resume_at = 0;
  if (resuming) {
    if (args.async && args.backpressure == "reject") {
      std::fprintf(stderr,
                   "--load-snapshot cannot replay a kReject id book; use "
                   "--backpressure block\n");
      return 2;
    }
    Status status = service.LoadSnapshot(args.load_snapshot);
    if (!status.ok()) {
      std::fprintf(stderr, "load-snapshot failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    resume_at = args.resume_at;
    SnapshotInfo info;
    if (ReadSnapshotInfo(args.load_snapshot, &info).ok()) {
      std::fprintf(stderr,
                   "warm restart: snapshot at epoch %llu, placement "
                   "version %llu; resuming at serving snapshot %zu\n",
                   static_cast<unsigned long long>(info.epoch),
                   static_cast<unsigned long long>(info.placement_version),
                   resume_at);
    }
  }

  auto maybe_save = [&args, &service](size_t completed_snapshot) {
    if (args.save_snapshot.empty()) return;
    if (args.snapshot_at != completed_snapshot) return;
    Timer timer;
    Status status = service.SaveSnapshot(args.save_snapshot);
    if (!status.ok()) {
      std::fprintf(stderr, "save-snapshot failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
    std::fprintf(stderr, "snapshot saved to %s after snapshot %zu "
                 "(%.1f ms)\n",
                 args.save_snapshot.c_str(), completed_snapshot,
                 timer.ElapsedMillis());
  };
  std::fprintf(stderr, "sharded service: %u shards on %zu threads%s\n",
               service.num_shards(), service.num_threads(),
               service.async() ? " (async pipelined ingestion)" : "");
  if (args.rebalance_every > 0) {
    std::fprintf(stderr, "rebalancing: every %u dynamic barriers\n",
                 args.rebalance_every);
  }

  // End-of-run placement health (printed by both serving paths): the
  // routing-table version, how many groups migrated, and where the
  // records ended up.
  auto print_placement = [&service] {
    ServiceSnapshot snap = service.Snapshot();
    std::string per_shard;
    for (const auto& stats : snap.report.dynamic_shards) {
      if (!per_shard.empty()) per_shard += ", ";
      per_shard += std::to_string(stats.objects);
    }
    std::fprintf(
        stderr,
        "placement: version %llu, %llu group migrations; record imbalance "
        "%.2fx max/mean; per-shard records [%s]\n",
        static_cast<unsigned long long>(snap.report.placement_version),
        static_cast<unsigned long long>(snap.report.groups_migrated),
        snap.report.record_imbalance, per_shard.c_str());
  };

  // Initial clustering via one observed batch round; like the harness,
  // round 0 derives its transformation without changed-object hints. A
  // warm restart skips this entirely — the snapshot carries the trained
  // state the initial load + observation produced.
  if (!resuming) {
    service.ApplyOperations(stream.initial);
    service.ObserveBatchRound({});
  }
  std::vector<ObjectId> changed;

  if (args.async) {
    // Pipelined serving: training snapshots still use explicit observe
    // barriers; afterwards every snapshot is only *enqueued* (the table
    // shows the producer-side cost — enqueue latency and backpressure),
    // the background workers apply + round it, and one Flush() barrier
    // ends the stream.
    //
    // The stream generator numbers adds in generation order; under the
    // kReject policy some batches are shed, so the client keeps its own
    // generator-id -> service-id book and drops operations whose target
    // never got admitted — exactly what a real load-shedding producer
    // does.
    std::vector<ObjectId> service_id_of;  // generator add idx -> service id
    size_t service_adds = 0;              // admitted adds == next service id
    auto translate = [&](const OperationBatch& ops) {
      OperationBatch out;
      const size_t gen_base = service_id_of.size();
      for (const DataOperation& op : ops) {
        if (op.kind == DataOperation::Kind::kAdd) {
          out.push_back(op);
          continue;
        }
        ObjectId sid;
        if (op.target < static_cast<ObjectId>(gen_base)) {
          sid = service_id_of[op.target];
        } else {
          // Intra-batch reference: adds of this batch are admitted (or
          // rejected) together, so the target's prospective service id
          // is the batch-relative add index past the admitted count.
          sid = static_cast<ObjectId>(service_adds + (op.target - gen_base));
        }
        if (sid == kInvalidObject) continue;  // target was shed earlier
        DataOperation translated = op;
        translated.target = sid;
        out.push_back(translated);
      }
      return out;
    };
    auto track = [&](const OperationBatch& ops, bool accepted) {
      for (const DataOperation& op : ops) {
        if (op.kind != DataOperation::Kind::kAdd) continue;
        service_id_of.push_back(accepted
                                    ? static_cast<ObjectId>(service_adds++)
                                    : kInvalidObject);
      }
    };
    track(stream.initial, true);  // applied (or restored), never rejected
    // A resumed run replays the id book for the snapshots the saved
    // service already served (kBlock admits everything, so "all
    // accepted" reconstructs the book exactly).
    for (size_t snapshot = 0; snapshot < resume_at; ++snapshot) {
      track(stream.snapshots[snapshot], true);
    }

    TableWriter table(
        {"snapshot", "ops", "enqueue_ms", "accepted", "queued"});
    for (size_t snapshot = resume_at; snapshot < stream.snapshots.size();
         ++snapshot) {
      OperationBatch batch = translate(stream.snapshots[snapshot]);
      bool observe = snapshot < static_cast<size_t>(config.training_rounds);
      if (!observe) {
        maybe_start_replication();
        maybe_start_readers();
      }
      Timer timer;
      bool accepted = true;
      if (observe) {
        changed = service.ApplyOperations(batch);
        service.ObserveBatchRound(changed);
        if (snapshot + 1 == static_cast<size_t>(config.training_rounds)) {
          service.Flush();  // enter the serving phase: workers round on
        }
      } else {
        accepted = service.Ingest(batch).accepted;
      }
      double ms = timer.ElapsedMillis();
      track(stream.snapshots[snapshot], accepted);
      table.AddRow({std::to_string(snapshot + 1),
                    std::to_string(batch.size()),
                    TableWriter::Num(ms, 2), accepted ? "yes" : "no",
                    std::to_string(service.ingest_stats().pending_ops)});
      // A durable snapshot is taken at a barrier: in the serving phase
      // flush the admitted prefix first so the saved state reflects
      // this snapshot (observe barriers above already flushed).
      if (!observe && !args.save_snapshot.empty() &&
          args.snapshot_at == snapshot + 1) {
        service.Flush();
      }
      maybe_save(snapshot + 1);
      if (args.metrics_every > 0 &&
          (snapshot + 1) % args.metrics_every == 0) {
        ExportObservability(args, service, /*tracer=*/nullptr);
      }
      // One sealed epoch per serving snapshot. A *replicated* async
      // primary barriers the epoch before sealing it: un-barriered
      // pipelining leaves the clustering dependent on where the drain
      // workers happened to cut their bites — schedule noise no log can
      // replay on workloads whose blocking groups interact. The barrier
      // makes the shipped stream fully determine the state, so the
      // follower's replay is byte-identical on every workload (and the
      // queues still pipeline within each snapshot).
      if (repl_started) {
        service.Flush();
        repl->SealEpoch();
      }
    }
    Timer flush_timer;
    service.Flush();
    double flush_ms = flush_timer.ElapsedMillis();
    maybe_save(0);
    if (args.csv) {
      std::cout << table.ToCsv();
    } else {
      table.Print(std::cout);
    }
    ServiceSnapshot snap = service.Snapshot();
    const IngestStats& ingest = snap.report.ingest;
    std::fprintf(stderr,
                 "flush: %.1f ms  sequence=%llu  objects=%zu clusters=%zu\n"
                 "pipeline: %llu ops accepted, %llu coalesced away, "
                 "%llu rejected batches, %llu worker rounds, "
                 "%llu producer waits, queue high-water %zu\n",
                 flush_ms, static_cast<unsigned long long>(snap.sequence),
                 snap.total_objects, snap.total_clusters,
                 static_cast<unsigned long long>(ingest.accepted_ops),
                 static_cast<unsigned long long>(ingest.coalesced_ops),
                 static_cast<unsigned long long>(ingest.rejected_batches),
                 static_cast<unsigned long long>(ingest.worker_rounds),
                 static_cast<unsigned long long>(ingest.producer_waits),
                 ingest.queue_high_water);
    if (args.adaptive_batch) {
      std::fprintf(stderr,
                   "adaptive batch: %llu grows, %llu shrinks, bites %zu-%zu\n",
                   static_cast<unsigned long long>(ingest.batch_grows),
                   static_cast<unsigned long long>(ingest.batch_shrinks),
                   ingest.adaptive_batch_min, ingest.adaptive_batch_max);
    }
    print_placement();
    if (!report_replication()) return 1;
    finish_readers();
    finish_front_end();
    ExportObservability(args, service, tracer.get());
    PrintFinalState(service);
    return 0;
  }

  TableWriter table({"snapshot", "objects", "ms", "clusters", "served",
                     "merges", "splits"});
  for (size_t snapshot = resume_at; snapshot < stream.snapshots.size();
       ++snapshot) {
    bool observe = snapshot < static_cast<size_t>(config.training_rounds);
    if (!observe) {
      maybe_start_replication();
      maybe_start_readers();
    }
    Timer timer;
    changed = service.ApplyOperations(stream.snapshots[snapshot]);
    ServiceReport report = observe ? service.ObserveBatchRound(changed)
                                   : service.DynamicRound(changed);
    double ms = timer.ElapsedMillis();
    size_t served = 0;
    for (const auto& stats : report.dynamic_shards) {
      if (stats.participated) ++served;
    }
    for (const auto& stats : report.train_shards) {
      if (stats.participated) ++served;
    }
    table.AddRow({std::to_string(snapshot + 1),
                  std::to_string(service.total_objects()),
                  TableWriter::Num(ms, 1),
                  std::to_string(service.total_clusters()),
                  std::to_string(served),
                  std::to_string(report.combined.merges_applied),
                  std::to_string(report.combined.splits_applied)});
    maybe_save(snapshot + 1);
    if (args.metrics_every > 0 && (snapshot + 1) % args.metrics_every == 0) {
      ExportObservability(args, service, /*tracer=*/nullptr);
    }
    if (repl_started) repl->SealEpoch();
  }
  maybe_save(0);
  if (args.csv) {
    std::cout << table.ToCsv();
  } else {
    table.Print(std::cout);
  }
  print_placement();
  if (!report_replication()) return 1;
  finish_readers();
  finish_front_end();
  ExportObservability(args, service, tracer.get());
  PrintFinalState(service);
  return 0;
}

/// Follower mode (--follow DIR): restores the primary's base snapshot,
/// replays the shipped epoch deltas, and either reports the replica's
/// state (byte-equal `final:` line to the primary's) or — with
/// --promote-at K — fails over after serving snapshot K and serves the
/// remaining deterministic stream itself, with zero retraining.
int RunFollower(const CliArgs& args, const ExperimentConfig& config) {
  const size_t training = static_cast<size_t>(config.training_rounds);
  if (args.promote_at > 0 && args.promote_at < training) {
    std::fprintf(stderr,
                 "--promote-at must be >= the training rounds (%zu): the "
                 "primary only seals epochs while serving\n",
                 training);
    return 2;
  }
  // --promote-at maps serving snapshot K to epoch base + (K - training),
  // which assumes one sealed epoch per serving snapshot — i.e. the
  // primary ran without --replicate-snapshot-every (each mid-stream base
  // seals an extra epoch, and compaction retires the deltas a fresh
  // process would need to stop *before* the newest base anyway). A
  // long-running tailer promotes wherever it stands instead.
  ShardedDynamicCService::Options options = MakeServiceOptions(args, config);
  options.async.enabled = false;       // replay is already batched
  options.rebalance.every_rounds = 0;  // placement arrives via the stream
  std::unique_ptr<obs::Tracer> tracer;
  if (!args.trace_out.empty()) {
    tracer = std::make_unique<obs::Tracer>(args.shards);
    options.obs.tracer = tracer.get();
  }
  if (!args.metrics_out.empty()) {
    options.obs.metrics = &obs::MetricsRegistry::Default();
  }
  std::unique_ptr<obs::Watchdog> watchdog;
  if (args.watchdog) {
    if (options.obs.metrics == nullptr) {
      options.obs.metrics = &obs::MetricsRegistry::Default();
    }
    watchdog =
        std::make_unique<obs::Watchdog>(options.obs.metrics,
                                        options.obs.tracer);
    AddDefaultSloRules(watchdog.get(), args);
  }
  if (!args.listen.empty() && options.obs.metrics == nullptr) {
    options.obs.metrics = &obs::MetricsRegistry::Default();
  }
  Follower follower(args.follow, options, MakeShardFactory(config));
  // The follower ticks the watchdog itself after every catch-up pass —
  // exactly when the staleness gauges move.
  if (watchdog != nullptr) follower.set_watchdog(watchdog.get());

  // --listen on a follower: once the replica has caught up, serve its
  // state over TCP — queries, metrics scrape, trace dump and health —
  // until (with --linger) a Shutdown RPC tears it down. Started after
  // the tail so a compaction-forced rebuild can never swap the service
  // out from under a live front end.
  auto serve_front_end = [&args, &follower, &options, &watchdog]() -> bool {
    if (args.listen.empty()) return true;
    net::ServerFrontEnd::Options fe_options;
    Status status = net::ParseHostPort(args.listen, &fe_options.host,
                                       &fe_options.port);
    if (!status.ok()) {
      std::fprintf(stderr, "--listen: %s\n", status.ToString().c_str());
      return false;
    }
    fe_options.metrics = options.obs.metrics;
    fe_options.tracer = options.obs.tracer;
    fe_options.watchdog = watchdog.get();
    net::ServerFrontEnd front_end(&follower.service(), /*router=*/nullptr,
                                  fe_options);
    status = front_end.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "--listen failed: %s\n",
                   status.ToString().c_str());
      return false;
    }
    front_end.SetStreamDone(true);  // the replica serves a finished tail
    std::fprintf(stderr, "follower listening on %s:%u\n",
                 fe_options.host.c_str(), front_end.port());
    if (!args.port_file.empty()) {
      status = WriteFileAtomic(args.port_file,
                               std::to_string(front_end.port()) + "\n");
      if (!status.ok()) {
        std::fprintf(stderr, "--port-file failed: %s\n",
                     status.ToString().c_str());
        return false;
      }
    }
    if (args.linger) {
      // Keep evaluating SLO rules on wall-clock cadence while lingering
      // (no catch-up passes tick the watchdog any more).
      if (watchdog != nullptr) watchdog->Start(/*interval_ms=*/100);
      std::fprintf(stderr, "caught up; lingering until Shutdown RPC\n");
      front_end.Join();
      if (watchdog != nullptr) watchdog->Stop();
    }
    front_end.Stop();
    return true;
  };

  // --replicate-over tcp: the --follow directory is a local mirror of
  // the primary's replication stream, filled over the wire by a
  // DeltaStreamClient instead of a shared filesystem. Replay pipelines
  // with transfer through the tail's progress hook.
  std::unique_ptr<net::DeltaStreamClient> stream_client;
  if (args.replicate_over == "tcp") {
    net::DeltaStreamClient::Options stream_options;
    Status st = net::ParseHostPort(args.connect, &stream_options.host,
                                   &stream_options.port);
    if (!st.ok()) {
      std::fprintf(stderr, "--connect: %s\n", st.ToString().c_str());
      return 2;
    }
    stream_options.mirror_dir = args.follow;
    // Start-order tolerance: the primary may still be coming up.
    stream_options.max_reconnect_attempts = 100;
    if (!args.metrics_out.empty()) {
      stream_options.metrics = &obs::MetricsRegistry::Default();
    }
    stream_client =
        std::make_unique<net::DeltaStreamClient>(std::move(stream_options));
  }

  if (stream_client != nullptr && args.promote_at == 0) {
    // Live tail over TCP: restore as soon as the first base lands in
    // the mirror, replay after every pass that mirrored something new,
    // and drain once the primary reports its stream done.
    bool restored = false;
    size_t replayed_total = 0;
    Status replay_status;
    auto replay = [&] {
      if (!replay_status.ok()) return;  // sticky: report after the tail
      if (!restored) {
        DeltaLog::State have;
        if (!DeltaLog(args.follow).List(&have).ok() || have.bases.empty()) {
          return;  // no base mirrored yet
        }
        replay_status = follower.Restore();
        if (!replay_status.ok()) return;
        restored = true;
        std::fprintf(stderr,
                     "following %s over tcp: base at epoch %llu\n",
                     args.connect.c_str(),
                     static_cast<unsigned long long>(follower.base_epoch()));
      }
      size_t replayed = 0;
      replay_status = follower.CatchUp(&replayed);
      replayed_total += replayed;
    };
    Status status = stream_client->TailUntilDone(replay);
    if (!status.ok()) {
      std::fprintf(stderr, "tcp tail failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    replay();  // the last pass may have mirrored without replaying
    if (!replay_status.ok()) {
      std::fprintf(stderr, "catch-up failed: %s\n",
                   replay_status.ToString().c_str());
      return 1;
    }
    if (!restored) {
      std::fprintf(stderr, "tcp stream ended without a base snapshot\n");
      return 1;
    }
    follower.Flush();
    std::fprintf(stderr,
                 "caught up over tcp: %zu deltas replayed, %llu reconnects, "
                 "at epoch %llu\n",
                 replayed_total,
                 static_cast<unsigned long long>(stream_client->reconnects()),
                 static_cast<unsigned long long>(follower.epoch()));
    if (args.shutdown_server) {
      status = stream_client->client()->Shutdown();
      if (!status.ok()) {
        std::fprintf(stderr, "shutdown-server failed: %s\n",
                     status.ToString().c_str());
      }
    }
    if (!serve_front_end()) return 1;
    ExportObservability(args, follower.service(), tracer.get());
    PrintFinalState(follower.service());
    return 0;
  }
  if (stream_client != nullptr) {
    // Promotion over TCP: the hand-over point must be fully mirrored,
    // so drain the whole stream first, then fail over locally.
    Status st = stream_client->TailUntilDone(nullptr);
    if (!st.ok()) {
      std::fprintf(stderr, "tcp mirror failed: %s\n", st.ToString().c_str());
      return 1;
    }
    if (args.shutdown_server) stream_client->client()->Shutdown();
  }

  Status status = follower.Restore();
  if (!status.ok()) {
    std::fprintf(stderr, "follow failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const uint64_t base = follower.base_epoch();
  std::fprintf(stderr, "following %s: base at epoch %llu\n",
               args.follow.c_str(), static_cast<unsigned long long>(base));

  if (args.promote_at == 0) {
    size_t replayed = 0;
    status = follower.CatchUp(&replayed);
    if (!status.ok()) {
      std::fprintf(stderr, "catch-up failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    follower.Flush();
    std::fprintf(stderr, "caught up: %zu deltas replayed, at epoch %llu\n",
                 replayed,
                 static_cast<unsigned long long>(follower.epoch()));
    if (!serve_front_end()) return 1;
    ExportObservability(args, follower.service(), tracer.get());
    PrintFinalState(follower.service());
    return 0;
  }

  // Failover: the primary seals epoch base + (K - training) when it
  // finishes serving snapshot K (one seal per serving snapshot), so
  // that is the hand-over point.
  const uint64_t target = base + (args.promote_at - training);
  size_t replayed = 0;
  status = follower.CatchUpTo(target, &replayed);
  if (!status.ok()) {
    std::fprintf(stderr, "catch-up to epoch %llu failed: %s\n",
                 static_cast<unsigned long long>(target),
                 status.ToString().c_str());
    return 1;
  }
  follower.Flush();
  std::unique_ptr<ShardedDynamicCService> service = follower.Promote();
  std::fprintf(stderr,
               "promoted at epoch %llu after %zu deltas (zero retraining); "
               "serving the remaining stream\n",
               static_cast<unsigned long long>(target), replayed);

  // Chained replication (--replicate-resume): the promoted node takes
  // over the old primary's delta log in place. Artifacts past the
  // promotion point are the dead primary's unacknowledged suffix —
  // truncate them (standard failover log truncation), then Resume()
  // continues the numbering at the sealed frontier, so a standby
  // tailing this directory replays straight across the cut with no
  // re-bootstrap.
  std::unique_ptr<ReplicationSession> resumed;
  if (args.replicate_resume) {
    DeltaLog log(args.follow);
    DeltaLog::State state;
    status = log.List(&state);
    if (!status.ok()) {
      std::fprintf(stderr, "replicate-resume: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::error_code ec;
    for (uint64_t delta : state.deltas) {
      if (delta <= target) continue;
      std::filesystem::remove(log.DeltaPathFor(delta), ec);
      if (ec) {
        std::fprintf(stderr, "replicate-resume: cannot truncate %s: %s\n",
                     log.DeltaPathFor(delta).c_str(), ec.message().c_str());
        return 1;
      }
    }
    for (uint64_t stale_base : state.bases) {
      if (stale_base <= target) continue;
      std::filesystem::remove_all(log.BaseDirFor(stale_base), ec);
      if (ec) {
        std::fprintf(stderr, "replicate-resume: cannot truncate %s: %s\n",
                     log.BaseDirFor(stale_base).c_str(),
                     ec.message().c_str());
        return 1;
      }
    }
    ReplicationSession::Options repl_options;
    repl_options.snapshot_every = args.replicate_snapshot_every;
    resumed = std::make_unique<ReplicationSession>(service.get(), args.follow,
                                                   repl_options);
    status = resumed->Resume();
    if (!status.ok()) {
      std::fprintf(stderr, "replicate-resume failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "resumed replication log at sealed epoch %llu; next delta "
                 "continues the numbering\n",
                 static_cast<unsigned long long>(target));
  }

  // The new primary serves the rest of the deterministic stream the old
  // one would have received, mirroring its cadence: a replicated
  // primary barriers and seals one epoch per serving snapshot (sync and
  // async alike), so the promoted service does the same.
  WorkloadStream stream =
      MakeStream(config.workload, config.scale, config.seed);
  for (size_t snapshot = args.promote_at; snapshot < stream.snapshots.size();
       ++snapshot) {
    std::vector<ObjectId> changed =
        service->ApplyOperations(stream.snapshots[snapshot]);
    service->DynamicRound(changed);
    if (resumed != nullptr) {
      resumed->SealEpoch();
    } else {
      service->CloseEpoch();
    }
  }
  service->Flush();
  if (resumed != nullptr && !resumed->status().ok()) {
    std::fprintf(stderr, "replication error: %s\n",
                 resumed->status().ToString().c_str());
    return 1;
  }
  ExportObservability(args, *service, tracer.get());
  PrintFinalState(*service);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }

  // Introspection client modes dial a running server and exit; they do
  // not touch the workload configuration at all.
  if (!args.scrape.empty() || !args.health.empty() ||
      !args.trace_dump_from.empty() || !args.rpc_shutdown.empty()) {
    return RunIntrospection(args);
  }

  ExperimentConfig config;
  if (!ToWorkload(args.workload, &config.workload) ||
      !ToTask(args.task, &config.task)) {
    Usage();
    return 2;
  }
  config.scale = args.scale;
  config.seed = args.seed;
  config.kmeans_k = args.kmeans_k;
  if (config.task == TaskKind::kDbscan) {
    config.dbscan.min_pts = 4;
    config.dbscan.eps_similarity = 0.5;
  }

  std::fprintf(stderr, "workload=%s task=%s method=%s\n",
               WorkloadName(config.workload), TaskName(config.task),
               args.method.c_str());

  if (args.shards > 1 || args.async || !args.load_snapshot.empty() ||
      !args.save_snapshot.empty() || !args.replicate_to.empty() ||
      !args.follow.empty() || !args.listen.empty()) {
    if ((config.task != TaskKind::kCorrelation &&
         config.task != TaskKind::kDbIndex &&
         config.task != TaskKind::kDbscan) ||
        args.method != "dynamicc") {
      std::fprintf(stderr,
                   "--shards/--async/--*-snapshot/--replicate-to/--follow/"
                   "--listen require --task correlation|db-index|dbscan "
                   "--method dynamicc\n");
      return 2;
    }
    if (!args.follow.empty() && !args.replicate_to.empty()) {
      std::fprintf(stderr,
                   "--follow and --replicate-to are mutually exclusive\n");
      return 2;
    }
    if (args.replicate_over == "tcp" &&
        (args.follow.empty() || args.connect.empty())) {
      std::fprintf(stderr,
                   "--replicate-over tcp requires --follow DIR (the local "
                   "mirror) and --connect HOST:PORT\n");
      return 2;
    }
    if (!args.listen.empty() && !args.follow.empty() &&
        args.promote_at != 0) {
      std::fprintf(stderr,
                   "--listen on a follower serves the caught-up replica; "
                   "it cannot be combined with --promote-at\n");
      return 2;
    }
    if (args.replicate_resume &&
        (args.follow.empty() || args.promote_at == 0)) {
      std::fprintf(stderr,
                   "--replicate-resume requires --follow DIR --promote-at "
                   "K (chained replication continues a promoted log)\n");
      return 2;
    }
    if (!args.follow.empty()) return RunFollower(args, config);
    return RunSharded(args, config);
  }

  ExperimentHarness harness(config);
  std::vector<Series> results;
  // The batch reference is needed whenever quality is reported.
  Series batch = harness.RunBatch();
  if (args.method == "batch" || args.method == "all") {
    results.push_back(batch);
  }
  if (args.method == "naive" || args.method == "all") {
    results.push_back(harness.RunNaive());
  }
  if (args.method == "greedy" || args.method == "greedyset" ||
      args.method == "all") {
    Series greedy = harness.RunGreedy();
    if (args.method != "greedyset") results.push_back(greedy);
  }
  if (args.method == "dynamicc" || args.method == "all") {
    results.push_back(harness.RunDynamicC(/*greedy_set=*/false));
  }
  if (args.method == "greedyset" || args.method == "all") {
    // RunGreedy already cached the per-snapshot states above.
    results.push_back(harness.RunDynamicC(/*greedy_set=*/true));
  }
  if (results.empty()) {
    Usage();
    return 2;
  }
  PrintSeries(results, args.csv);
  return 0;
}
