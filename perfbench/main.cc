// emogi_perfbench: the repository benchmark.
//
//   emogi_perfbench --workload sweep|batch|wire --seed N --seconds S
//                   --trace 0|1
//
// Prints one provenance line and then, as the last stdout line, one
// JSON object {correct, attempted, failed, metrics}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A traced
// run measures the workload twice (untraced, then with spans), reports
// the difference as trace.overhead.*, probes the layers the workload
// bypasses, and writes its spans to <work dir>/spans-<workload>-<seed>.jsonl.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/report.h"
#include "common.h"
#include "ref/reference.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

EndToEnd Rounds::Metrics() const {
  double seconds = 0, edges = 0, queries = 0;
  for (const Round& r : rounds) {
    seconds += r.seconds;
    edges += static_cast<double>(r.edges);
    queries += static_cast<double>(r.queries);
  }
  EndToEnd m;
  m.edges_per_s = seconds > 0 ? edges / seconds : 0;
  m.queries_per_s = seconds > 0 ? queries / seconds : 0;
  m.latency_p50_ms = Percentile(latency_ms, 50);
  m.latency_p99_ms = Percentile(latency_ms, 99);
  return m;
}

bool SameAnswer(const emogi::runtime::Response& a,
                const emogi::runtime::Response& b) {
  return a.status == b.status && a.kind == b.kind && a.graph == b.graph &&
         (a.kind == emogi::runtime::QueryKind::kCc || a.source == b.source) &&
         a.levels == b.levels && a.distances == b.distances &&
         a.labels == b.labels && a.edges_scanned == b.edges_scanned;
}

bool MatchesOracle(const emogi::graph::Csr& csr,
                   const emogi::runtime::Response& response) {
  using emogi::runtime::QueryKind;
  if (response.status != emogi::runtime::Status::kOk) return false;
  switch (response.kind) {
    case QueryKind::kBfs:
      return response.levels == emogi::ref::BfsLevels(csr, response.source);
    case QueryKind::kSssp:
      return response.distances == emogi::ref::SsspDistances(csr, response.source);
    case QueryKind::kCc:
      break;
  }
  return response.labels == emogi::ref::CcLabels(csr);
}

void ReportEndToEnd(Result& result, const EndToEnd& m, double setup_s,
                    double peak_rss_mb) {
  result.EndToEnd("setup_s", setup_s, "s");
  result.EndToEnd("peak_rss_mb", peak_rss_mb, "MB");
  result.EndToEnd("edges_per_s", m.edges_per_s, "1/s");
  result.EndToEnd("queries_per_s", m.queries_per_s, "1/s");
  result.EndToEnd("latency_p50_ms", m.latency_p50_ms, "ms");
  result.EndToEnd("latency_p99_ms", m.latency_p99_ms, "ms");
}

void ReportOverhead(Result& result, const EndToEnd& untraced,
                    const EndToEnd& traced) {
  auto ratio = [](double t, double u) { return u > 0 ? t / u - 1.0 : 0.0; };
  result.Layer("trace.overhead.edges_per_s",
               ratio(traced.edges_per_s, untraced.edges_per_s), "ratio");
  result.Layer("trace.overhead.queries_per_s",
               ratio(traced.queries_per_s, untraced.queries_per_s), "ratio");
  result.Layer("trace.overhead.latency_p50_ms",
               ratio(traced.latency_p50_ms, untraced.latency_p50_ms), "ratio");
  result.Layer("trace.overhead.latency_p99_ms",
               ratio(traced.latency_p99_ms, untraced.latency_p99_ms), "ratio");
  result.Layer("trace.span_buffer_mb",
               static_cast<double>(Tracer::Get().BytesUsed()) / (1024.0 * 1024.0),
               "MB");
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "emogi_perfbench: %s\nusage: emogi_perfbench --workload "
               "sweep|batch|wire --seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

bool ParseUint(const char* text, std::uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // One malloc arena: with glibc's per-thread arenas the wire workload's
  // peak RSS varied 2.5x between identical runs; with one it repeats.
  mallopt(M_ARENA_MAX, 1);
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    if (flag == "--workload" && value) {
      args.workload = value;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      args.seed = n;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n >= 1 && n <= 3600) {
      args.seconds = static_cast<int>(n);
    } else if (flag == "--trace" && ParseUint(value, &n) && n <= 1) {
      args.trace = n == 1;
    } else if (flag == "--work-dir" && value) {
      args.work_dir = value;
    } else {
      return Usage(("bad argument '" + flag + "'").c_str());
    }
    ++i;
  }
  int (*run)(const Args&, Result*) = nullptr;
  if (args.workload == "sweep") run = RunSweep;
  if (args.workload == "batch") run = RunBatch;
  if (args.workload == "wire") run = RunWire;
  if (run == nullptr) return Usage("--workload must be sweep, batch or wire");
  if (!MakeDirs(args.work_dir)) return Usage("cannot create the work directory");

  Result result;
  result.Note("build_version", emogi::bench::BuildVersion());
  result.Note("build_type", PERFBENCH_BUILD_TYPE);
  result.Note("nproc", std::to_string(HardwareThreads()));
  result.Note("workload", args.workload);
  result.Note("seed", std::to_string(args.seed));
  result.Note("seconds", std::to_string(args.seconds));
  result.Note("trace", args.trace ? "1" : "0");

  if (const int rc = run(args, &result); rc != 0) return rc;
  if (args.trace) {
    ProbeCore(args, &result);
    if (!result.HasLayer("serve.trace_s")) ProbeServe(args, &result);
    if (!result.HasLayer("net.server_ms.p50")) ProbeWire(args, &result);
    const std::string path = args.work_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (!Tracer::Get().WriteJsonl(path)) {
      std::fprintf(stderr, "emogi_perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    result.Note("spans", path);
  }
  result.Print(args.trace);
  return 0;
}
