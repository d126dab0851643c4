//===- ipsebench/src/main.cpp - Benchmark harness entry point ------------===//
//
//   ipsebench --workload compile|fleet --seed N --seconds S --trace 0|1
//             --cli <ipse-cli> --work-dir <dir> [--nosync <shim.so>]
//
// Prints human-readable lines, then one JSON object as the last line of
// stdout: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
// Untraced runs report every end-to-end metric; traced runs every
// per-layer metric (0 where the workload does not run that layer).
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>

using namespace ipsebench;

namespace {

/// Per-layer metrics, their unit, and the end-to-end metric and workload
/// each should move.  Kept in step with BENCHMARK.json.
struct LayerMetric {
  const char *Name, *Unit, *Moves;
};
const LayerMetric Layers[] = {
    {"frontend.compile_ms", "ms", "compile_procs_per_s on compile"},
    {"frontend.mb_per_s", "MB/s", "compile_procs_per_s on compile"},
    {"graph.build_ms", "ms", "compile_procs_per_s on compile"},
    {"analysis.local_ms", "ms", "compile_procs_per_s on compile"},
    {"analysis.rmod_ms", "ms", "compile_procs_per_s on compile"},
    {"analysis.imodplus_ms", "ms", "compile_procs_per_s on compile"},
    {"analysis.gmod_ms", "ms", "compile_procs_per_s on compile"},
    {"analysis.dmod_ms", "ms", "compile_procs_per_s on compile"},
    {"analysis.report_ms", "ms", "compile_procs_per_s on compile"},
    {"analysis.rmod_steps_per_nbeta_ebeta", "ratio", "compile_procs_per_s on compile (Figure 1 count)"},
    {"analysis.gmod_bvsteps_per_e_n", "ratio", "compile_procs_per_s on compile (Theorem 2 count)"},
    {"analysis.sec4_bvsteps_per_dpn_e", "ratio", "compile_procs_per_s on compile (section 4 count)"},
    {"analysis.rmod_boolean_steps", "count", "compile_procs_per_s on compile"},
    {"analysis.gmod_bvsteps", "count", "compile_procs_per_s on compile"},
    {"analysis.sec4_bvsteps", "count", "compile_procs_per_s on compile"},
    {"support.word_ops.local", "count", "compile_procs_per_s on compile"},
    {"support.word_ops.rmod", "count", "compile_procs_per_s on compile"},
    {"support.word_ops.imodplus", "count", "compile_procs_per_s on compile"},
    {"support.word_ops.gmod", "count", "compile_procs_per_s on compile"},
    {"support.word_ops.dmod", "count", "compile_procs_per_s on compile"},
    {"support.word_ops.report", "count", "compile_procs_per_s on compile"},
    {"incremental.flush_us.effect", "us", "edit_us_p50 on fleet"},
    {"incremental.flush_us.call", "us", "edit_us_p50 on fleet"},
    {"service.capture_us", "us", "edit_us_p50 on fleet"},
    {"service.call_us", "us", "query_us_p50 on fleet"},
    {"service.flush_batch", "edits", "edit_us_p50 on fleet"},
    {"service.rejected_ratio", "ratio", "ok_pct on fleet"},
    {"server.handle_us", "us", "query_us_p50 on fleet"},
    {"server.wire_us", "us", "query_us_p50 on fleet"},
    {"tenant.hit_ratio", "ratio", "query_us_p50 on fleet, and the query p99 of its info line"},
    {"tenant.fault_in_us_p50", "us", "query_us_p50 on fleet, and the query p99 of its info line"},
    {"tenant.fault_in_us_p99", "us", "query_us_p50 on fleet, and the query p99 of its info line"},
    {"tenant.evictions_per_s", "1/s", "query_us_p50 on fleet, and the query p99 of its info line"},
    {"persist.wal_append_us", "us", "edit_us_p50 on fleet"},
    {"persist.snapshot_write_ms", "ms", "setup_s on fleet, and the query p99 of its info line"},
    {"persist.snapshot_read_ms", "ms", "setup_s on fleet, and the query p99 of its info line"},
    {"demand.region_procs_p50", "procs", "query_us_p50, setup_s on fleet"},
    {"demand.memo_hit_ratio", "ratio", "query_us_p50, setup_s on fleet"},
    {"demand.open_us", "us", "query_us_p50, setup_s on fleet"},
    {"demand.cold_query_us", "us", "query_us_p50, setup_s on fleet"},
    {"observe.trace_overhead_pct", "%", "none: the benchmark's own span cost, per workload"},
};

/// Layer self time (from the spans) for the layers the benchmark times.
const char *SelfLayers[] = {"frontend", "graph",   "analysis", "incremental",
                            "service",  "server",  "persist",  "demand"};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: ipsebench --workload compile|fleet --seed N "
               "--seconds S --trace 0|1 --cli PATH --work-dir DIR "
               "[--nosync SHIM]\n");
  std::exit(2);
}

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  Config C;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      usage();
    std::string V = argv[++I];
    if (A == "--workload")
      C.Workload = V;
    else if (A == "--seed")
      C.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      C.Seconds = std::atof(V.c_str());
    else if (A == "--trace")
      C.Trace = V == "1";
    else if (A == "--cli")
      C.Cli = V;
    else if (A == "--nosync")
      C.NoSync = V;
    else if (A == "--work-dir")
      C.WorkDir = V;
    else
      usage();
  }
  if (C.Cli.empty() || C.WorkDir.empty() || C.Seconds <= 0)
    usage();
  std::filesystem::create_directories(C.WorkDir);

  Result R;
  if (C.Workload == "compile")
    runCompile(C, R);
  else if (C.Workload == "fleet")
    runFleet(C, R);
  else
    usage();

  if (C.Trace) {
    // Self time per layer, from the spans recorded around each call.
    Tracer &T = Tracer::get();
    std::map<std::string, double> Self;
    for (const auto &[Name, Ms] : T.selfMsByName())
      Self[Name.substr(0, Name.find('.'))] += Ms;
    std::set<std::string> Have;
    for (const auto &M : R.Metrics)
      Have.insert(M.first);
    std::vector<std::pair<std::string, std::pair<double, std::string>>> Ordered;
    for (const LayerMetric &L : Layers) {
      double V = 0;
      for (const auto &M : R.Metrics)
        if (M.first == L.Name)
          V = M.second.first;
      Ordered.push_back({L.Name, {V, L.Unit}});
      std::printf("layer %-38s %14.4f %-6s -> %s%s\n", L.Name, V, L.Unit,
                  L.Moves, Have.count(L.Name) ? "" : "  (not run by this workload)");
    }
    for (const char *L : SelfLayers) {
      std::string Name = std::string("self_ms.") + L;
      Ordered.push_back({Name, {Self[L], "ms"}});
      std::printf("layer %-38s %14.4f ms     (span self time)\n", Name.c_str(),
                  Self[L]);
    }
    R.Metrics = std::move(Ordered);
    T.writeJsonl(C.WorkDir + "/spans.jsonl");
  } else {
    for (const auto &M : R.Metrics)
      std::printf("%-22s %16.4f %s\n", M.first.c_str(), M.second.first,
                  M.second.second.c_str());
  }
  for (const std::string &N : R.Notes)
    std::printf("note: %s\n", N.c_str());

  std::string Info;
  for (const auto &[K, V] : R.Info) {
    if (!Info.empty())
      Info += ",";
    Info += "\"";
    Info += K;
    Info += "\":\"";
    Info += V;
    Info += "\"";
  }
  std::printf("info: {%s}\n", Info.c_str());

  if (R.Invalid)
    R.Metrics.clear();
  std::string Out = "{\"correct\": ";
  Out += R.Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  for (std::size_t I = 0; I != R.Metrics.size(); ++I) {
    const auto &M = R.Metrics[I];
    if (I)
      Out += ", ";
    Out += "\"";
    Out += M.first;
    Out += "\": {\"value\": ";
    Out += num(M.second.first);
    Out += ", \"unit\": \"";
    Out += M.second.second;
    Out += "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  return 0;
}
