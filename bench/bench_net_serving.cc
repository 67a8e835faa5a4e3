// Networked serving (src/net/) vs in-process: throughput, open-loop
// latency, and replication-transport compression on localhost.
//
// The same partition-disjoint token workload bench_sharded_throughput
// uses is served twice through identically-configured async services:
//
//  - in-process: one producer calls Ingest() directly, batch by batch,
//    ending with the Flush() barrier (enqueue-to-applied throughput).
//  - net: a ServerFrontEnd on an ephemeral localhost port, N client
//    threads sending the same batches as Ingest RPCs (one connection
//    each, closed loop), same final Flush(). The gap between the two
//    rates is the whole wire stack — framing, epoll, encode/decode.
//
// Latency is then measured open loop: each client schedules arrivals
// by a seeded Poisson process at a fixed aggregate rate (a fraction of
// the measured net capacity) and records completion-minus-*scheduled*
// time, so queueing delay is charged to the server, not silently
// absorbed by a slow closed loop (no coordinated omission). Every 4th
// arrival is a Stats query against the epoch-pinned read path; the
// rest are ingest batches.
//
// Finally the replication transport: the primary seals a handful of
// epochs into its delta log, a DeltaStreamClient mirrors the directory
// over the same TCP surface (negotiated lzb block compression), a
// Follower replays the mirror, and the JSON reports raw-vs-wire bytes
// (the compression gate), whether the mirrored bytes and the replayed
// clustering are identical, and the server's decode-error count.
//
// Output: one JSON document on stdout; the CI gates assert
//   net_vs_in_process >= 0.6, open-loop ingest p99 bounded,
//   compression ratio > 1, mirror identical, zero decode errors.
//
// Flags: --groups N --active N --per-round N --rounds N --clients N
//        --open-sends N --seal-rounds N --shards N --queue-depth N

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "batch/agglomerative.h"
#include "bench_util.h"
#include "data/operations.h"
#include "data/similarity_measures.h"
#include "data/blocking.h"
#include "ml/logistic_regression.h"
#include "net/client.h"
#include "net/delta_stream.h"
#include "net/front_end.h"
#include "objective/correlation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replication/follower.h"
#include "replication/replication_session.h"
#include "service/sharded_service.h"
#include "util/status.h"
#include "util/timer.h"
#include "util/wire.h"

using namespace dynamicc;

namespace {

struct BenchArgs {
  int groups = 512;     // independent blocking groups
  int active = 2;       // hot groups per serving batch
  int per_round = 8;    // adds per hot group per batch
  int rounds = 48;      // batches in the closed-loop timed region
  int clients = 4;      // concurrent TCP clients
  int open_sends = 60;  // open-loop arrivals per client
  int seal_rounds = 6;  // sealed epochs for the replication transport
  uint32_t shards = 2;
  size_t queue_depth = 4096;
};

ShardEnvironmentFactory MakeFactory() {
  return [] {
    ShardEnvironment env;
    env.measure = std::make_unique<JaccardSimilarity>();
    env.blocker = std::make_unique<TokenBlocker>();
    env.min_similarity = 0.1;
    auto objective = std::make_unique<CorrelationObjective>();
    env.validator = std::make_unique<ObjectiveValidator>(objective.get());
    env.batch = std::make_unique<GreedyAgglomerative>(objective.get());
    env.objective = std::move(objective);
    env.merge_model = std::make_unique<LogisticRegression>();
    env.split_model = std::make_unique<LogisticRegression>();
    return env;
  };
}

DataOperation GroupAdd(int group) {
  DataOperation op;
  op.kind = DataOperation::Kind::kAdd;
  op.record.entity = static_cast<uint32_t>(group);
  op.record.tokens = {"grp" + std::to_string(group),
                      "tag" + std::to_string(group)};
  return op;
}

OperationBatch GroupAdds(int groups, int per_group) {
  OperationBatch ops;
  for (int i = 0; i < per_group; ++i) {
    for (int g = 0; g < groups; ++g) ops.push_back(GroupAdd(g));
  }
  return ops;
}

OperationBatch HotRound(const BenchArgs& args, int round) {
  OperationBatch ops;
  int start = (round * args.active) % args.groups;
  for (int i = 0; i < args.per_round; ++i) {
    for (int a = 0; a < args.active; ++a) {
      ops.push_back(GroupAdd((start + a) % args.groups));
    }
  }
  return ops;
}

ShardedDynamicCService::Options ServiceOptions(const BenchArgs& args,
                                               obs::MetricsRegistry* metrics,
                                               bool serve_reads) {
  ShardedDynamicCService::Options options;
  options.num_shards = args.shards;
  options.async.enabled = true;
  options.async.queue_depth = args.queue_depth;
  options.obs.metrics = metrics;
  options.read.serve = serve_reads;
  return options;
}

void Train(ShardedDynamicCService* service, const BenchArgs& args) {
  OperationBatch initial = GroupAdds(args.groups, 2);
  auto changed = service->ApplyOperations(initial);
  service->ObserveBatchRound(changed);
  changed = service->ApplyOperations(GroupAdds(args.groups, 1));
  service->ObserveBatchRound(changed);
  service->Flush();
}

/// Two directory trees hold byte-identical regular files.
bool TreesIdentical(const std::string& a, const std::string& b) {
  namespace fs = std::filesystem;
  std::vector<std::string> rel_a, rel_b;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(a, ec)) {
    if (entry.is_regular_file()) {
      rel_a.push_back(fs::relative(entry.path(), a, ec).string());
    }
  }
  for (const auto& entry : fs::recursive_directory_iterator(b, ec)) {
    if (entry.is_regular_file()) {
      rel_b.push_back(fs::relative(entry.path(), b, ec).string());
    }
  }
  std::sort(rel_a.begin(), rel_a.end());
  std::sort(rel_b.begin(), rel_b.end());
  if (rel_a != rel_b) return false;
  for (const std::string& rel : rel_a) {
    std::string bytes_a, bytes_b;
    if (!ReadFileBytes(a + "/" + rel, &bytes_a).ok()) return false;
    if (!ReadFileBytes(b + "/" + rel, &bytes_b).ok()) return false;
    if (bytes_a != bytes_b) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const std::string flag = argv[i];
    const char* v = nullptr;
    if (flag == "--groups" && (v = next())) args.groups = std::atoi(v);
    else if (flag == "--active" && (v = next())) args.active = std::atoi(v);
    else if (flag == "--per-round" && (v = next()))
      args.per_round = std::atoi(v);
    else if (flag == "--rounds" && (v = next())) args.rounds = std::atoi(v);
    else if (flag == "--clients" && (v = next())) args.clients = std::atoi(v);
    else if (flag == "--open-sends" && (v = next()))
      args.open_sends = std::atoi(v);
    else if (flag == "--seal-rounds" && (v = next()))
      args.seal_rounds = std::atoi(v);
    else if (flag == "--shards" && (v = next()))
      args.shards = static_cast<uint32_t>(std::atoi(v));
    else if (flag == "--queue-depth" && (v = next()))
      args.queue_depth = static_cast<size_t>(std::atol(v));
  }
  args.clients = std::max(1, args.clients);

  std::vector<OperationBatch> serving;
  size_t serving_ops = 0;
  for (int round = 0; round < args.rounds; ++round) {
    serving.push_back(HotRound(args, round));
    serving_ops += serving.back().size();
  }

  // ---- In-process baseline: direct Ingest, one producer. ----
  double in_process_ms = 0.0;
  {
    ShardedDynamicCService service(ServiceOptions(args, nullptr, false),
                                   nullptr, MakeFactory());
    Train(&service, args);
    Timer timer;
    for (const OperationBatch& batch : serving) service.Ingest(batch);
    service.Flush();
    in_process_ms = timer.ElapsedMillis();
  }
  const double in_process_ops_per_sec =
      in_process_ms > 0.0 ? 1000.0 * serving_ops / in_process_ms : 0.0;

  // ---- Networked: same batches as Ingest RPCs over localhost. ----
  obs::MetricsRegistry registry;
  ShardedDynamicCService service(ServiceOptions(args, &registry, true),
                                 nullptr, MakeFactory());
  Train(&service, args);

  const std::string repl_dir = "/tmp/dynamicc_bench_net_repl";
  const std::string mirror_dir = "/tmp/dynamicc_bench_net_mirror";
  std::filesystem::remove_all(repl_dir);
  std::filesystem::remove_all(mirror_dir);
  ReplicationSession repl(&service, repl_dir, {});
  if (!repl.Start().ok()) {
    std::fprintf(stderr, "replication start failed\n");
    return 1;
  }

  net::ServerFrontEnd::Options fe_options;
  fe_options.replication_dir = repl_dir;
  fe_options.metrics = &registry;
  net::ServerFrontEnd front_end(&service, nullptr, fe_options);
  if (!front_end.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return 1;
  }
  const uint16_t port = front_end.port();

  // Closed-loop throughput: batches round-robined over the clients,
  // each pipelining request/response on its own connection.
  std::atomic<size_t> rpc_errors{0};
  double net_ms = 0.0;
  {
    std::vector<std::thread> threads;
    Timer timer;
    for (int c = 0; c < args.clients; ++c) {
      threads.emplace_back([&, c] {
        net::NetClient::Options client_options;
        client_options.port = port;
        net::NetClient client(client_options);
        if (!client.Connect().ok()) {
          rpc_errors.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        for (size_t i = static_cast<size_t>(c); i < serving.size();
             i += static_cast<size_t>(args.clients)) {
          net::IngestResponse response;
          if (!client.Ingest(serving[i], &response).ok() ||
              !response.accepted) {
            rpc_errors.fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    service.Flush();
    net_ms = timer.ElapsedMillis();
  }
  const double net_ops_per_sec =
      net_ms > 0.0 ? 1000.0 * serving_ops / net_ms : 0.0;

  // One sealed epoch so the read path has a published view for the
  // open-loop query mix (and the log its first delta).
  repl.SealEpoch();

  // Open-loop latency: Poisson arrivals at a fixed aggregate rate well
  // under the measured capacity, latency charged from the *scheduled*
  // arrival time. Every 4th arrival is a Stats query.
  const double target_rate =
      std::min(4000.0, std::max(200.0, 0.25 * net_ops_per_sec));
  const double sends_per_sec_per_client =
      target_rate / (args.per_round * args.active) / args.clients;
  std::vector<std::vector<double>> ingest_lat(args.clients);
  std::vector<std::vector<double>> query_lat(args.clients);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < args.clients; ++c) {
      threads.emplace_back([&, c] {
        net::NetClient::Options client_options;
        client_options.port = port;
        net::NetClient client(client_options);
        if (!client.Connect().ok()) {
          rpc_errors.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        std::mt19937_64 rng(0x9E3779B97F4A7C15ull + c);
        std::exponential_distribution<double> gap(sends_per_sec_per_client);
        auto scheduled = std::chrono::steady_clock::now();
        for (int s = 0; s < args.open_sends; ++s) {
          scheduled += std::chrono::microseconds(
              static_cast<int64_t>(gap(rng) * 1e6));
          std::this_thread::sleep_until(scheduled);
          Timer op_timer;
          bool ok;
          if (s % 4 == 3) {
            net::StatsResponse stats;
            ok = client.Stats(/*max_staleness=*/UINT64_MAX, &stats).ok();
          } else {
            net::IngestResponse response;
            ok = client.Ingest(HotRound(args, args.rounds + s), &response)
                     .ok();
          }
          if (!ok) {
            rpc_errors.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          // completion - scheduled arrival = service + queueing delay
          // (the sleep_until above never truncates a late schedule, so
          // backlog shows up here instead of stretching the run).
          double ms =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - scheduled)
                  .count();
          (s % 4 == 3 ? query_lat : ingest_lat)[c].push_back(ms);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  std::vector<double> ingest_all, query_all;
  for (auto& v : ingest_lat) {
    ingest_all.insert(ingest_all.end(), v.begin(), v.end());
  }
  for (auto& v : query_lat) {
    query_all.insert(query_all.end(), v.begin(), v.end());
  }

  // ---- Replication transport: seal a few epochs, mirror over TCP,
  // replay the mirror. ----
  for (int round = 0; round < args.seal_rounds; ++round) {
    service.Ingest(HotRound(args, 7 * round + 3));
    service.Flush();
    repl.SealEpoch();
  }
  front_end.SetStreamDone(true);

  net::DeltaStreamClient::Options stream_options;
  stream_options.port = port;
  stream_options.mirror_dir = mirror_dir;
  stream_options.metrics = &registry;
  net::DeltaStreamClient stream(stream_options);
  const bool mirrored = stream.TailUntilDone(nullptr).ok();
  const bool mirror_identical =
      mirrored && TreesIdentical(repl_dir, mirror_dir);

  bool replay_identical = false;
  if (mirrored) {
    ShardedDynamicCService::Options follower_options =
        ServiceOptions(args, nullptr, false);
    follower_options.async.enabled = false;
    Follower follower(mirror_dir, follower_options, MakeFactory());
    if (follower.Restore().ok() && follower.CatchUp().ok()) {
      follower.Flush();
      service.Flush();
      replay_identical = follower.service().GlobalClusters() ==
                         service.GlobalClusters();
    }
  }

  const uint64_t decode_errors = front_end.server()->decode_errors();
  front_end.Stop();
  repl.Stop();

  // ---- Tracing overhead: the same closed loop on fresh twin services,
  // once untraced and once with wire-propagated tracing on (server +
  // client spans, kTraced envelopes). Max of 3 repeats each, so
  // scheduler noise does not masquerade as tracing overhead; the CI
  // gate holds the ratio within 2%. ----
  auto closed_loop_ops_per_sec = [&](bool traced) {
    obs::MetricsRegistry book;
    obs::Tracer tracer(args.shards);
    ShardedDynamicCService::Options twin_options =
        ServiceOptions(args, &book, false);
    if (traced) twin_options.obs.tracer = &tracer;
    ShardedDynamicCService twin(twin_options, nullptr, MakeFactory());
    Train(&twin, args);
    net::ServerFrontEnd::Options twin_fe_options;
    twin_fe_options.metrics = &book;
    if (traced) twin_fe_options.tracer = &tracer;
    net::ServerFrontEnd twin_fe(&twin, nullptr, twin_fe_options);
    if (!twin_fe.Start().ok()) return 0.0;
    const uint16_t twin_port = twin_fe.port();
    std::vector<std::thread> threads;
    Timer timer;
    for (int c = 0; c < args.clients; ++c) {
      threads.emplace_back([&, c] {
        obs::Tracer client_tracer(1);
        net::NetClient::Options client_options;
        client_options.port = twin_port;
        if (traced) client_options.tracer = &client_tracer;
        net::NetClient client(client_options);
        if (!client.Connect().ok()) {
          rpc_errors.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        for (size_t i = static_cast<size_t>(c); i < serving.size();
             i += static_cast<size_t>(args.clients)) {
          net::IngestResponse response;
          if (!client.Ingest(serving[i], &response).ok() ||
              !response.accepted) {
            rpc_errors.fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    twin.Flush();
    const double ms = timer.ElapsedMillis();
    twin_fe.Stop();
    return ms > 0.0 ? 1000.0 * serving_ops / ms : 0.0;
  };
  // Best paired ratio across interleaved repeats: outside load must hit
  // the traced leg of every pair the same way to fake an overhead.
  double untraced_best = 0.0, traced_best = 0.0, traced_vs_untraced = 0.0;
  for (int repeat = 0; repeat < 5; ++repeat) {
    const double untraced = closed_loop_ops_per_sec(false);
    const double traced = closed_loop_ops_per_sec(true);
    untraced_best = std::max(untraced_best, untraced);
    traced_best = std::max(traced_best, traced);
    if (untraced > 0.0) {
      traced_vs_untraced = std::max(traced_vs_untraced, traced / untraced);
    }
  }

  obs::MetricsSnapshot metrics = registry.Snapshot();
  uint64_t raw_bytes = 0, wire_bytes = 0;
  for (const auto& counter : metrics.counters) {
    if (counter.first == "net.delta_bytes_raw") raw_bytes = counter.second;
    if (counter.first == "net.delta_bytes_wire") wire_bytes = counter.second;
  }

  bench::JsonWriter json;
  json.BeginObject();
  json.Key("in_process")
      .BeginObject()
      .Key("ops").Value(serving_ops)
      .Key("ms").Value(in_process_ms)
      .Key("ops_per_sec").Value(in_process_ops_per_sec)
      .EndObject();
  json.Key("net")
      .BeginObject()
      .Key("ops").Value(serving_ops)
      .Key("ms").Value(net_ms)
      .Key("ops_per_sec").Value(net_ops_per_sec)
      .Key("clients").Value(args.clients)
      .Key("net_vs_in_process")
      .Value(in_process_ops_per_sec > 0.0
                 ? net_ops_per_sec / in_process_ops_per_sec
                 : 0.0)
      .Key("rpc_errors").Value(rpc_errors.load())
      .Key("decode_errors").Value(static_cast<size_t>(decode_errors))
      .EndObject();
  // Server-side view of the same traffic: the front end's per-type
  // net.rpc_ms histograms, so queueing inside the server is separable
  // from what the client-measured open-loop latencies include.
  json.Key("server_rpc").BeginObject();
  {
    const std::string prefix = "net.rpc_ms{type=";
    for (const auto& h : metrics.histograms) {
      if (h.count == 0 || h.name.rfind(prefix, 0) != 0) continue;
      std::string type = h.name.substr(prefix.size());
      if (!type.empty() && type.back() == '}') type.pop_back();
      json.Key(type)
          .BeginObject()
          .Key("count").Value(static_cast<size_t>(h.count))
          .Key("p50_ms").Value(h.p50)
          .Key("p95_ms").Value(h.p95)
          .Key("p99_ms").Value(h.p99)
          .EndObject();
    }
  }
  json.EndObject();
  json.Key("tracing")
      .BeginObject()
      .Key("untraced_ops_per_sec").Value(untraced_best)
      .Key("traced_ops_per_sec").Value(traced_best)
      .Key("traced_vs_untraced").Value(traced_vs_untraced)
      .Key("within_2pct").Value(traced_vs_untraced >= 0.98 ? 1 : 0)
      .EndObject();
  json.Key("open_loop")
      .BeginObject()
      .Key("target_ops_per_sec").Value(target_rate)
      .Key("ingest_sends").Value(ingest_all.size())
      .Key("ingest_p50_ms").Value(bench::Percentile(&ingest_all, 0.50))
      .Key("ingest_p95_ms").Value(bench::Percentile(&ingest_all, 0.95))
      .Key("ingest_p99_ms").Value(bench::Percentile(&ingest_all, 0.99))
      .Key("query_sends").Value(query_all.size())
      .Key("query_p50_ms").Value(bench::Percentile(&query_all, 0.50))
      .Key("query_p95_ms").Value(bench::Percentile(&query_all, 0.95))
      .Key("query_p99_ms").Value(bench::Percentile(&query_all, 0.99))
      .EndObject();
  json.Key("compression")
      .BeginObject()
      .Key("raw_bytes").Value(static_cast<size_t>(raw_bytes))
      .Key("wire_bytes").Value(static_cast<size_t>(wire_bytes))
      .Key("ratio")
      .Value(wire_bytes > 0
                 ? static_cast<double>(raw_bytes) /
                       static_cast<double>(wire_bytes)
                 : 0.0)
      .EndObject();
  json.Key("mirror")
      .BeginObject()
      .Key("mirrored").Value(mirrored)
      .Key("identical").Value(mirror_identical ? 1 : 0)
      .Key("replay_identical").Value(replay_identical ? 1 : 0)
      .Key("reconnects").Value(static_cast<size_t>(stream.reconnects()))
      .EndObject();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}
