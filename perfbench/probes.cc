// core.* probes: the host cost of one traversal split into the policy,
// the accountant and the engine loop around them, plus the batched
// policies at K = 64.
//
//   policy      core::RunFrontierEngine with an accountant that charges
//               nothing (NullAccountant below);
//   accountant  a recorded scan schedule replayed through
//               StaticUvmAccountant / StaticZeroCopyAccountant<mode>;
//   dispatch    core::DispatchRun, the real monomorphized run;
//   engine self dispatch - policy - accountant.
//
// All are per scanned edge, on the sweep graph GU at scale 512 from a
// seeded source; the batched policies run on the batch shard GU at
// scale 2048 with 64 seeded sources.

#include <string>
#include <vector>

#include "common.h"
#include "core/batched.h"
#include "core/engine.h"
#include "core/static_accountant.h"
#include "graph/datasets.h"
#include "workloads.h"

namespace perfbench {
namespace {

using emogi::core::AccessMode;
using emogi::core::EmogiConfig;
using emogi::core::KernelCost;
using emogi::core::TraversalStats;
using emogi::graph::Csr;
using emogi::graph::VertexId;

constexpr std::uint64_t kSweepScale = 512;
constexpr std::uint64_t kBatchScale = 2048;
constexpr int kReps = 3;

// Charges nothing; counts the edges the engine hands to CloseKernel.
class NullAccountant {
 public:
  void OnListScan(emogi::sim::Addr, std::uint64_t, std::uint64_t, std::uint32_t) {}
  KernelCost CloseKernel(std::uint64_t work_edges) {
    edges_ += work_edges;
    return {};
  }
  TraversalStats* mutable_stats() { return &stats_; }
  std::uint64_t edges() const { return edges_; }

 private:
  TraversalStats stats_;
  std::uint64_t edges_ = 0;
};

// Records the engine's scan schedule: the neighbor-list span of every
// frontier vertex and the kernel boundaries.
class RecordingAccountant {
 public:
  struct Kernel {
    std::size_t end;  // One past the kernel's last scan.
    std::uint64_t work_edges;
  };

  void OnListScan(emogi::sim::Addr base, std::uint64_t begin, std::uint64_t end,
                  std::uint32_t) {
    if (base == 0) scans.push_back({begin, end});  // Weights mirror ids.
  }
  KernelCost CloseKernel(std::uint64_t work_edges) {
    kernels.push_back({scans.size(), work_edges});
    return {};
  }
  TraversalStats* mutable_stats() { return &stats_; }

  std::vector<std::pair<std::uint64_t, std::uint64_t>> scans;
  std::vector<Kernel> kernels;

 private:
  TraversalStats stats_;
};

enum class Kind { kBfs, kSssp, kCc };
const char* const kKindNames[] = {"bfs", "sssp", "cc"};
const char* const kModeNames[] = {"uvm", "naive", "merged", "merged_aligned"};

// Runs `body(policy)` on a fresh policy of `kind` and returns seconds.
template <typename Body>
double TimeWithPolicy(const Csr& csr, Kind kind, VertexId source, Body body) {
  switch (kind) {
    case Kind::kBfs: {
      emogi::core::BfsPolicy policy(csr, source);
      const std::uint64_t t0 = NowNs();
      body(policy);
      return NsToS(static_cast<double>(NowNs() - t0));
    }
    case Kind::kSssp: {
      emogi::core::SsspPolicy policy(csr, source);
      const std::uint64_t t0 = NowNs();
      body(policy);
      return NsToS(static_cast<double>(NowNs() - t0));
    }
    case Kind::kCc:
      break;
  }
  emogi::core::CcPolicy policy(csr);
  const std::uint64_t t0 = NowNs();
  body(policy);
  return NsToS(static_cast<double>(NowNs() - t0));
}

template <typename AccountantT>
void Replay(const Csr& csr, const RecordingAccountant& schedule, bool weights,
            AccountantT* accountant) {
  const std::uint64_t weight_base = emogi::core::WeightBase(csr);
  std::size_t s = 0;
  for (const RecordingAccountant::Kernel& k : schedule.kernels) {
    for (; s < k.end; ++s) {
      const auto [begin, end] = schedule.scans[s];
      accountant->OnListScan(0, begin, end, csr.edge_elem_bytes());
      if (weights) {
        accountant->OnListScan(weight_base, begin, end, emogi::core::kWeightBytes);
      }
    }
    accountant->CloseKernel(k.work_edges);
  }
}

// Seconds to replay `schedule` through the static accountant of `mode`.
double TimeReplay(const Csr& csr, const EmogiConfig& config,
                  const RecordingAccountant& schedule, bool weights) {
  const std::uint64_t managed = emogi::core::ManagedGraphBytes(csr);
  const std::uint64_t t0 = NowNs();
  switch (config.mode) {
    case AccessMode::kUvm: {
      emogi::core::StaticUvmAccountant a(config, managed);
      Replay(csr, schedule, weights, &a);
      break;
    }
    case AccessMode::kNaive: {
      emogi::core::StaticZeroCopyAccountant<AccessMode::kNaive> a(config, managed);
      Replay(csr, schedule, weights, &a);
      break;
    }
    case AccessMode::kMerged: {
      emogi::core::StaticZeroCopyAccountant<AccessMode::kMerged> a(config, managed);
      Replay(csr, schedule, weights, &a);
      break;
    }
    case AccessMode::kMergedAligned: {
      emogi::core::StaticZeroCopyAccountant<AccessMode::kMergedAligned> a(config,
                                                                          managed);
      Replay(csr, schedule, weights, &a);
      break;
    }
  }
  return NsToS(static_cast<double>(NowNs() - t0));
}

template <typename Fn>
double MedianOf(int reps, Fn fn) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) samples.push_back(fn());
  return Median(samples);
}

}  // namespace

void ProbeCore(const Args& args, Result* result) {
  const Csr& csr = emogi::graph::LoadOrGenerateDataset("GU", kSweepScale,
                                                       emogi::graph::DataSource{});
  Rng rng = SubRng(args.seed, "probe.core");
  const VertexId source = DrawSources(csr, 1, &rng).front();
  std::vector<EmogiConfig> configs;
  for (const AccessMode mode : emogi::core::AllAccessModes()) {
    EmogiConfig config = EmogiConfig::ForMode(mode);
    config.device.scale_factor = kSweepScale;
    configs.push_back(config);
  }

  std::vector<double> accountant_s(configs.size(), 0.0);
  std::uint64_t accountant_edges = 0;
  for (const Kind kind : {Kind::kBfs, Kind::kSssp, Kind::kCc}) {
    const std::string k = kKindNames[static_cast<int>(kind)];
    std::uint64_t edges = 0;
    const double policy_s = MedianOf(kReps, [&] {
      ScopedSpan span("core.RunFrontierEngine.null");
      NullAccountant null;
      const double s = TimeWithPolicy(csr, kind, source, [&](auto& policy) {
        emogi::core::RunFrontierEngine(csr, policy, null);
      });
      edges = null.edges();
      return s;
    });
    const double e = static_cast<double>(edges);
    result->Layer("core.policy_ns_per_edge." + k, policy_s * 1e9 / e, "ns");

    RecordingAccountant schedule;
    TimeWithPolicy(csr, kind, source, [&](auto& policy) {
      emogi::core::RunFrontierEngine(csr, policy, schedule);
    });
    std::vector<double> self_ns;
    for (std::size_t m = 0; m < configs.size(); ++m) {
      const double replay_s = MedianOf(kReps, [&] {
        ScopedSpan span("core.accountant.replay");
        return TimeReplay(csr, configs[m], schedule, kind == Kind::kSssp);
      });
      accountant_s[m] += replay_s;
      const double dispatch_s = MedianOf(kReps, [&] {
        ScopedSpan span("core.DispatchRun");
        return TimeWithPolicy(csr, kind, source, [&](auto& policy) {
          emogi::core::DispatchRun(csr, configs[m], policy);
        });
      });
      result->Layer("core.dispatch_ns_per_edge." + k + "." + kModeNames[m],
                    dispatch_s * 1e9 / e, "ns");
      self_ns.push_back((dispatch_s - policy_s - replay_s) * 1e9 / e);
    }
    accountant_edges += edges;
    result->Layer("core.engine_self_ns_per_edge." + k, Median(self_ns), "ns");
  }
  for (std::size_t m = 0; m < configs.size(); ++m) {
    result->Layer(std::string("core.accountant_ns_per_edge.") + kModeNames[m],
                  accountant_s[m] * 1e9 / static_cast<double>(accountant_edges), "ns");
  }

  // Batched policies at K = 64 on the batch shard.
  const Csr& shard = emogi::graph::LoadOrGenerateDataset("GU", kBatchScale,
                                                         emogi::graph::DataSource{});
  EmogiConfig config = EmogiConfig::MergedAligned();
  config.device.scale_factor = kBatchScale;
  const std::vector<VertexId> sources =
      DrawSources(shard, emogi::core::kMaxBatchLanes, &rng);
  auto batched = [&](auto& policy, const char* name) {
    const std::uint64_t t0 = NowNs();
    {
      ScopedSpan span("core.DispatchRun.batched");
      emogi::core::DispatchRun(shard, config, policy);
    }
    const double s = NsToS(static_cast<double>(NowNs() - t0));
    std::uint64_t lanes = 0;
    for (int l = 0; l < policy.lanes(); ++l) lanes += policy.lane_edges(l);
    result->Layer(std::string("core.batched_ns_per_lane_edge.") + name,
                  s * 1e9 / static_cast<double>(lanes), "ns");
  };
  {
    emogi::core::BatchedBfsPolicy policy(shard, sources);
    batched(policy, "bfs");
  }
  {
    emogi::core::BatchedSsspPolicy policy(shard, sources);
    batched(policy, "sssp");
  }
}

}  // namespace perfbench
