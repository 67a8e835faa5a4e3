// perfbench_runner: runs one named workload for a time budget and prints
// one JSON document of raw per-pass measurements on stdout. run.py turns
// it into the benchmark's metrics; see perfbench/README.md.
//
//   perfbench_runner --workload recluster-cora --seed 1 --seconds 30
//                    [--trace 0|1] [--spans-out FILE]
//                    [--scratch-dir DIR] [--corrupt]
//
// A run is a sequence of passes. Each pass is a fresh set-up followed by
// the workload's fixed serving schedule, so every pass does identical
// work. Passes repeat while the next one fits in --seconds, with at least
// three. With --trace 1 the even passes record spans and the odd ones do
// not, which gives the tracing overhead from one run; a traced run then
// also runs the workload's defect probe (Workload::Probe).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "checks.h"
#include "common.h"

namespace {

using namespace perfbench;

/// Enough set-ups for a median, and two traced passes with --trace 1.
constexpr size_t kMinPasses = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string spans_out;
  std::string scratch_dir = ".bench_out/scratch";
  bool corrupt = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      args->corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") args->workload = value;
    else if (flag == "--seed") args->seed = std::stoull(value);
    else if (flag == "--seconds") args->seconds = std::atof(value.c_str());
    else if (flag == "--trace") args->trace = value == "1";
    else if (flag == "--spans-out") args->spans_out = value;
    else if (flag == "--scratch-dir") args->scratch_dir = value;
    else return false;
  }
  return !args->workload.empty();
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  Json json;
  json.Open('[');
  for (const Span& span : spans) {
    json.Open('{')
        .Key("name").Str(span.name)
        .Key("start_us").Num(span.start_us)
        .Key("end_us").Num(span.end_us)
        .Key("id").Num(static_cast<double>(span.id))
        .Key("parent").Num(static_cast<double>(span.parent))
        .Key("trace").Num(static_cast<double>(span.trace))
        .Close('}');
  }
  json.Close(']');
  std::ofstream out(path);
  out << json.str() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload NAME --seed N "
                 "--seconds S [--trace 0|1] [--spans-out FILE] "
                 "[--scratch-dir DIR] [--corrupt]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload;
  if (args.workload == "recluster-cora") {
    workload = MakeReclusterCora(args.seed);
  } else if (args.workload == "churn-febrl") {
    workload = MakeChurnFebrl(args.seed);
  } else if (args.workload == "serve-replicated") {
    workload = MakeServeReplicated(args.seed, args.scratch_dir);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }

  // Input generation happened in the constructor above and is outside
  // every timing; the clock for the run budget starts here.
  const double probe_mb = InitSpeedProbe();
  SpanLog spans(/*thread_tag=*/1);
  std::vector<PassResult> passes;
  const double run_start = NowUs();
  double last_pass_us = 0.0;
  while (passes.size() < kMinPasses ||
         NowUs() - run_start + last_pass_us <= args.seconds * 1e6) {
    const bool traced = args.trace && passes.size() % 2 == 0;
    const double pass_start = NowUs();
    passes.push_back(workload->RunPass(traced ? &spans : nullptr));
    last_pass_us = NowUs() - pass_start;
    std::fprintf(stderr, "pass %zu: setup %.3f s, serving %.3f s\n",
                 passes.size(), passes.back().setup_s,
                 passes.back().serve_s);
  }
  // The program's peak: the speed probe's table is the benchmark's own.
  const double peak_rss_mb = PeakRssMb() - probe_mb;
  std::map<std::string, double> probe;
  if (args.trace) workload->Probe(&probe);

  // Verification, untimed: every pass's final clustering against the
  // from-scratch batch clustering of the same final records.
  if (args.corrupt) CorruptClustering(&passes.back().served);
  std::vector<ObjectId> live;
  Clusters reference;
  workload->Reference(&live, &reference);
  // A check holds for the run only if it holds on every pass.
  std::map<std::string, bool> checks;
  auto note = [&checks](const std::string& name, bool ok) {
    auto [it, inserted] = checks.emplace(name, ok);
    if (!inserted) it->second = it->second && ok;
  };
  std::vector<double> f1s;
  for (PassResult& pass : passes) {
    ClusteringVerdict verdict = CheckClustering(pass.served, live, reference);
    if (!verdict.partition_ok) {
      std::fprintf(stderr, "served clustering invalid: %s\n",
                   verdict.problem.c_str());
    }
    note("served_partition_ok", verdict.partition_ok);
    note("f1_vs_batch_ok", verdict.ok());
    f1s.push_back(verdict.f1);
    for (const auto& [name, ok] : pass.checks) note(name, ok);
  }
  workload->CheckRun(passes, &checks);

  if (!args.spans_out.empty()) WriteSpans(args.spans_out, spans.spans());

  Json json;
  json.Open('{');
  json.Key("workload").Str(args.workload);
  json.Key("seed").Num(static_cast<double>(args.seed));
  json.Key("peak_rss_mb").Num(peak_rss_mb);
  json.Key("min_f1_vs_batch").Num(kMinF1VsBatch);
  json.Key("f1_vs_batch").Nums(f1s);
  json.Key("probe").Open('{');
  for (const auto& [name, value] : probe) json.Key(name).Num(value);
  json.Close('}');
  json.Key("checks").Open('{');
  for (const auto& [name, ok] : checks) json.Key(name).Bool(ok);
  json.Close('}');
  json.Key("passes").Open('[');
  for (const PassResult& pass : passes) {
    json.Open('{');
    json.Key("traced").Bool(pass.traced);
    json.Key("setup_s").Num(pass.setup_s);
    json.Key("serve_s").Num(pass.serve_s);
    json.Key("ops").Num(static_cast<double>(pass.ops));
    json.Key("attempted").Num(static_cast<double>(pass.attempted));
    json.Key("failed").Num(static_cast<double>(pass.failed));
    json.Key("round_ms").Nums(pass.round_ms);
    json.Key("probe_us").Nums(pass.probe_us);
    json.Key("samples").Open('{');
    for (const auto& [name, values] : pass.samples) {
      json.Key(name).Nums(values);
    }
    json.Close('}');
    json.Key("counters").Open('{');
    for (const auto& [name, value] : pass.counters) json.Key(name).Num(value);
    json.Close('}');
    json.Close('}');
  }
  json.Close(']');
  json.Close('}');
  std::printf("%s\n", json.str().c_str());
  return 0;
}
