#include "common.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

namespace perfbench {

Rng SubRng(std::uint64_t seed, const std::string& stream) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64 over the name.
  for (const char c : stream) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return Rng(seed ^ h);
}

std::vector<emogi::graph::VertexId> DrawSources(const emogi::graph::Csr& csr,
                                                int count, Rng* rng) {
  std::vector<emogi::graph::VertexId> out;
  const std::uint64_t n = csr.num_vertices();
  while (static_cast<int>(out.size()) < count && n > 0) {
    const auto v = static_cast<emogi::graph::VertexId>(rng->Below(n));
    if (csr.Degree(v) == 0) continue;
    if (std::find(out.begin(), out.end(), v) != out.end()) continue;
    out.push_back(v);
  }
  return out;
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(samples.size(), static_cast<std::size_t>(rank)) - 1;
  return samples[index];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

bool CloseRel(double a, double b, double rel) {
  if (a == b) return true;
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

// --- Result -----------------------------------------------------------------

void Result::Attempt(std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Result::Fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_ < 8) std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  ++failed_;
}

void Result::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  e2e_[name] = {value, unit};
}

void Result::Layer(const std::string& name, double value,
                   const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  layer_[name] = {value, unit};
}

void Result::Note(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  notes_[key] = value;
}

void Result::Samples(const std::string& metric, std::size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[metric] = count;
}

bool Result::HasLayer(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return layer_.count(name) > 0;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Result::Print(bool trace) const {
  std::lock_guard<std::mutex> lock(mu_);
  const double error_rate =
      attempted_ ? static_cast<double>(failed_) / static_cast<double>(attempted_)
                 : 0.0;
  std::string prov = "{\"provenance\": {";
  bool first = true;
  for (const auto& [key, value] : notes_) {
    prov += (first ? "" : ", ") + std::string("\"") + JsonEscape(key) +
            "\": \"" + JsonEscape(value) + "\"";
    first = false;
  }
  prov += "}, \"error_rate\": " + JsonNumber(error_rate) + ", \"samples\": {";
  first = true;
  for (const auto& [key, count] : samples_) {
    prov += (first ? "" : ", ") + std::string("\"") + JsonEscape(key) +
            "\": " + std::to_string(count);
    first = false;
  }
  prov += "}}";
  std::printf("%s\n", prov.c_str());

  const auto& metrics = trace ? layer_ : e2e_;
  std::string line = "{\"correct\": ";
  line += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  first = true;
  for (const auto& [name, v] : metrics) {
    line += (first ? "" : ", ") + std::string("\"") + JsonEscape(name) +
            "\": {\"value\": " + JsonNumber(v.value) + ", \"unit\": \"" +
            JsonEscape(v.unit) + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// --- Tracing ----------------------------------------------------------------

namespace {
thread_local std::int64_t tls_current_span = -1;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

std::int64_t Tracer::Begin(const char* name, std::uint64_t request_id) {
  Span span;
  span.name = name;
  span.parent = tls_current_span;
  span.request_id = request_id;
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  tls_current_span = static_cast<std::int64_t>(spans_.size()) - 1;
  return tls_current_span;
}

void Tracer::End(std::int64_t index) {
  const std::uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = now;
  tls_current_span = spans_[static_cast<std::size_t>(index)].parent;
}

std::size_t Tracer::BytesUsed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.capacity() * sizeof(Span);
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, "
                 "\"end_ns\": %llu, \"parent\": %lld, \"request\": %llu}\n",
                 i, s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id));
  }
  return std::fclose(file) == 0;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request_id) {
  Tracer& tracer = Tracer::Get();
  if (tracer.enabled()) index_ = tracer.Begin(name, request_id);
}

ScopedSpan::~ScopedSpan() {
  if (index_ >= 0) Tracer::Get().End(index_);
}

// --- Forked set-up repetitions ------------------------------------------------

std::vector<std::vector<double>> ForkedSamples(
    int reps, const std::function<std::vector<double>()>& fn) {
  std::vector<std::vector<double>> out;
  for (int r = 0; r < reps; ++r) {
    int fds[2];
    if (pipe(fds) != 0) {
      out.emplace_back();
      continue;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      out.emplace_back();
      continue;
    }
    if (pid == 0) {
      close(fds[0]);
      const std::vector<double> timings = fn();
      const std::uint64_t n = timings.size();
      bool ok = write(fds[1], &n, sizeof(n)) == sizeof(n);
      if (n > 0) {
        const auto bytes = static_cast<ssize_t>(n * sizeof(double));
        ok = ok && write(fds[1], timings.data(), static_cast<std::size_t>(bytes)) == bytes;
      }
      close(fds[1]);
      _exit(ok ? 0 : 1);
    }
    close(fds[1]);
    std::vector<double> timings;
    std::uint64_t n = 0;
    if (read(fds[0], &n, sizeof(n)) == sizeof(n) && n < 1024) {
      timings.resize(n);
      std::size_t got = 0;
      const std::size_t want = n * sizeof(double);
      auto* dst = reinterpret_cast<char*>(timings.data());
      while (got < want) {
        const ssize_t r = read(fds[0], dst + got, want - got);
        if (r <= 0) break;
        got += static_cast<std::size_t>(r);
      }
      if (got != want) timings.clear();
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) timings.clear();
    out.push_back(std::move(timings));
  }
  return out;
}

bool MakeDirs(const std::string& path) {
  std::string prefix;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!prefix.empty() && mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
        return false;
      }
    }
    if (i < path.size()) prefix += path[i];
  }
  return true;
}

}  // namespace perfbench
