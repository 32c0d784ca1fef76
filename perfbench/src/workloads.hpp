// The benchmark's four workloads and the untraced runs through the
// simulator's own loops (MultiCoreSystem::run, run_open_loop).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/open_loop.hpp"
#include "sim/system.hpp"
#include "sim/system_config.hpp"
#include "sim/workloads.hpp"
#include "util/types.hpp"
#include "util/wallclock.hpp"

namespace perfbench {

using memsched::Tick;

enum class Kind {
  kClosed,    ///< cores + caches + controller, exact skip engine
  kSampled,   ///< the same system under engine=sampled
  kOpenLoop,  ///< controller only, fed by run_open_loop's injector
};

struct OpenLoad {
  double inject_per_tick = 0.0;
  Tick measure_ticks = 0;
};

struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kClosed;
  std::string mix;                     ///< Table-3 name or "codes:..." (closed kinds)
  std::uint64_t target_insts = 0;      ///< per core, measured
  std::uint64_t warmup_insts = 0;      ///< per core, before the stats reset
  std::vector<OpenLoad> loads;         ///< open loop: run one after another
};

/// Every run uses this scheme, the paper's.
inline constexpr const char* kScheme = "ME-LREQ";

/// The seed the stored digests and the stored sampled reference were made at.
inline constexpr std::uint64_t kDefaultSeed = 1;

const std::vector<WorkloadSpec>& workloads();
/// Throws std::invalid_argument for an unknown name.
const WorkloadSpec& workload_by_name(const std::string& name);

[[nodiscard]] memsched::sim::Workload mix_of(const WorkloadSpec& w);
[[nodiscard]] memsched::sim::SystemConfig closed_config(const WorkloadSpec& w,
                                                         memsched::sim::Engine engine);
[[nodiscard]] memsched::sched::SchedulerPtr make_scheduler(const WorkloadSpec& w);
[[nodiscard]] memsched::sim::OpenLoopConfig open_config(const OpenLoad& load,
                                                         std::uint64_t seed);

/// Everything that decides a workload's simulated result apart from the
/// seed and the exact-vs-sampled choice; stored next to every digest and
/// reference so one made for another configuration is never used.
[[nodiscard]] std::string config_key(const WorkloadSpec& w);

/// One untraced run through the simulator's own loop.
struct LibraryRun {
  double setup_s = 0.0;      ///< building the system, cache pre-warm included
  double run_s = 0.0;        ///< first tick to the result
  double sim_work = 0.0;     ///< instructions (closed kinds) or requests (open loop)
  double ticks = 0.0;        ///< simulated bus ticks
  std::string result_text;   ///< RunResult JSON, or the open-loop results
  memsched::sim::RunResult result;  ///< closed kinds
};

/// `engine` is the workload's own engine unless a reference is being made
/// (kCycle for a digest, kSkip for the sampled workload's exact values).
LibraryRun run_library(const WorkloadSpec& w, std::uint64_t seed,
                       memsched::sim::Engine engine);

[[nodiscard]] memsched::sim::Engine engine_of(const WorkloadSpec& w);

/// Canonical text of open-loop results at full precision.
[[nodiscard]] std::string open_result_text(const std::vector<OpenLoad>& loads,
                                           const std::vector<memsched::sim::OpenLoopResult>& rs);

/// The values a traced run must reproduce: ticks, visited ticks, per-core
/// committed counts and finish cycles, and the controller's counts.
[[nodiscard]] std::string fidelity_text(const memsched::sim::RunResult& r);

/// 64-bit FNV-1a of `text`, as 16 hex digits.
[[nodiscard]] std::string digest_of(const std::string& text);

[[nodiscard]] double median(std::vector<double> v);

/// Host seconds since `t0` on the monotonic clock.
[[nodiscard]] double seconds_since(memsched::util::MonotonicTime t0);

}  // namespace perfbench
