// Shared plumbing of the repository benchmark: arguments, the seeded
// generator every input comes from, wall-clock helpers, the result
// record printed as the last stdout line, the in-memory span tracer,
// and forked set-up repetitions.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/csr.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Where spans and fixtures go; always inside the checkout.
  std::string work_dir = ".bench_build/perfbench-run";
};

// splitmix64: the one generator behind every source, trace and
// schedule, so a seed fixes the inputs on any platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0xD1B54A32D192ED03ull + 1) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) { return n ? Next() % n : 0; }
  // Uniform in (0, 1].
  double Uniform() {
    return (static_cast<double>(Next() >> 11) + 1.0) / 9007199254740992.0;
  }

 private:
  std::uint64_t state_;
};

// A derived stream, so adding draws to one input never shifts another.
Rng SubRng(std::uint64_t seed, const std::string& stream);

// `count` distinct vertices with nonzero out-degree, drawn from `rng`.
std::vector<emogi::graph::VertexId> DrawSources(const emogi::graph::Csr& csr,
                                                int count, Rng* rng);

std::uint64_t NowNs();
inline double NsToS(double ns) { return ns * 1e-9; }
inline double NsToMs(double ns) { return ns * 1e-6; }

// Nearest-rank percentile (p in [0, 100]); 0 for no samples.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

double PeakRssMb();
int HardwareThreads();

// Runs fn(i) for i in [0, n) on up to `workers` threads, the caller one
// of them.
template <typename Fn>
void ParallelFor(std::size_t n, Fn fn, int workers = HardwareThreads()) {
  std::atomic<std::size_t> next{0};
  auto body = [&] {
    for (std::size_t i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < workers && static_cast<std::size_t>(t) < n; ++t) {
    threads.emplace_back(body);
  }
  body();
  for (std::thread& t : threads) t.join();
}

// Relative float check used against pinned simulated times.
bool CloseRel(double a, double b, double rel = 1e-12);

// The record printed as the last stdout line, plus provenance printed
// on the line before it.
class Result {
 public:
  void Attempt(std::uint64_t n = 1);
  // Counts one failed operation; the first few reasons go to stderr.
  void Fail(const std::string& why);
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& key, const std::string& value);
  void Samples(const std::string& metric, std::size_t count);

  bool HasLayer(const std::string& name) const;

  // Prints the provenance line and then the result line.
  void Print(bool trace) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  mutable std::mutex mu_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, Value> e2e_;
  std::map<std::string, Value> layer_;
  std::map<std::string, std::string> notes_;
  std::map<std::string, std::size_t> samples_;
};

// --- Tracing ----------------------------------------------------------------
//
// Spans are recorded around the benchmark's calls into each layer's
// public functions: name, start, end, parent span and request id. They
// stay in memory and are written out once, at the end of a traced run.
// With tracing off, ScopedSpan costs one relaxed load.

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  // Index of the enclosing span, -1 at the root.
  std::uint64_t request_id = 0;
};

class Tracer {
 public:
  static Tracer& Get();
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::int64_t Begin(const char* name, std::uint64_t request_id);
  void End(std::int64_t index);

  std::size_t BytesUsed() const;
  bool WriteJsonl(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request_id = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int64_t index_ = -1;
};

// Runs `fn` in `reps` forked children, one after another, and returns
// each child's vector of timings. Must be called before the process
// starts any thread. An empty vector marks a child that failed.
std::vector<std::vector<double>> ForkedSamples(
    int reps, const std::function<std::vector<double>()>& fn);

// mkdir -p; false on failure.
bool MakeDirs(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
