#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "core/scheduler_factory.hpp"
#include "dram/dram_system.hpp"
#include "mc/controller.hpp"
#include "sim/json_report.hpp"

namespace perfbench {

namespace sim = memsched::sim;
namespace util = memsched::util;

namespace {

// Open-loop traffic has no application semantics; this is the mildly
// heterogeneous ME table bench/latency_curves gives the ME schemes.
const std::vector<double> kOpenLoopMe = {2.0, 1.0, 0.5, 0.25};
constexpr Tick kOpenWarmupTicks = 20'000;
// run_open_loop builds its controller in microseconds; one construction is
// too short to time, so each library run times this many and keeps the median.
constexpr int kOpenSetupReps = 25;

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {"closed-mem4", Kind::kClosed, "4MEM-1", 300'000, 60'000, {}},
      {"closed-ilp4", Kind::kClosed, "codes:tumy", 1'000'000, 200'000, {}},
      {"sampled-mem8", Kind::kSampled, "8MEM-1", 4'000'000, 200'000, {}},
      {"openloop-ctrl", Kind::kOpenLoop, "", 0, 0, {{0.30, 1'000'000}, {0.02, 20'000'000}}},
  };
  return kAll;
}

const WorkloadSpec& workload_by_name(const std::string& name) {
  for (const WorkloadSpec& w : workloads())
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

sim::Workload mix_of(const WorkloadSpec& w) { return sim::resolve_workload(w.mix); }

sim::Engine engine_of(const WorkloadSpec& w) {
  return w.kind == Kind::kSampled ? sim::Engine::kSampled : sim::Engine::kSkip;
}

sim::SystemConfig closed_config(const WorkloadSpec& w, sim::Engine engine) {
  sim::SystemConfig cfg;
  cfg.cores = mix_of(w).cores();
  cfg.engine = engine;
  return cfg;
}

memsched::sched::SchedulerPtr make_scheduler(const WorkloadSpec& w) {
  memsched::core::SchedulerArgs args;
  if (w.kind == Kind::kOpenLoop) {
    args.core_count = static_cast<std::uint32_t>(kOpenLoopMe.size());
    args.me = memsched::core::MeTable(kOpenLoopMe);
    args.ipc_single.assign(kOpenLoopMe.size(), 1.0);
    return memsched::core::make_scheduler(kScheme, args);
  }
  // Table 2's ME values stand in for a profiling phase, so a run needs no
  // single-core profiling runs before it.
  const auto apps = mix_of(w).apps();
  args.core_count = static_cast<std::uint32_t>(apps.size());
  std::vector<double> me;
  for (const auto& app : apps) {
    me.push_back(app.table_me);
    args.ipc_single.push_back(app.ilp_ipc);
  }
  args.me = memsched::core::MeTable(std::move(me));
  return memsched::core::make_scheduler(kScheme, args);
}

sim::OpenLoopConfig open_config(const OpenLoad& load, std::uint64_t seed) {
  sim::OpenLoopConfig cfg;
  cfg.engine = sim::Engine::kSkip;
  cfg.cores = static_cast<std::uint32_t>(kOpenLoopMe.size());
  cfg.inject_per_tick = load.inject_per_tick;
  cfg.warmup_ticks = kOpenWarmupTicks;
  cfg.measure_ticks = load.measure_ticks;
  cfg.seed = seed;
  return cfg;
}

std::string config_key(const WorkloadSpec& w) {
  std::ostringstream os;
  os.precision(17);
  os << "workload=" << w.name << "|scheme=" << kScheme;
  if (w.kind == Kind::kOpenLoop) {
    const sim::OpenLoopConfig c = open_config(w.loads.front(), 0);
    os << "|cores=" << c.cores << "|warmup=" << c.warmup_ticks << "|wr=" << c.write_share
       << "|run=" << c.seq_run_lines << "|fp_lines=" << c.footprint_lines << "|me=";
    for (const double me : kOpenLoopMe) os << me << ',';
    for (const OpenLoad& l : w.loads) os << "|load=" << l.inject_per_tick << ':' << l.measure_ticks;
    return os.str();
  }
  const sim::Workload mix = mix_of(w);
  // The exact kind's key always names the cycle engine: the cycle and skip
  // engines must give the same result, which is what a digest made by one
  // and checked against the other tests.
  const sim::SystemConfig cfg = closed_config(
      w, w.kind == Kind::kSampled ? sim::Engine::kSampled : sim::Engine::kCycle);
  os << "|mix=" << mix.name << ':' << mix.codes << "|target=" << w.target_insts
     << "|warmup=" << w.warmup_insts << '|' << cfg.fingerprint();
  return os.str();
}

LibraryRun run_library(const WorkloadSpec& w, std::uint64_t seed, sim::Engine engine) {
  LibraryRun out;
  if (w.kind == Kind::kOpenLoop) {
    std::vector<double> setups;
    for (int i = 0; i < kOpenSetupReps; ++i) {
      const sim::OpenLoopConfig cfg = open_config(w.loads.front(), seed);
      const auto t0 = util::monotonic_now();
      const auto sched = make_scheduler(w);
      memsched::dram::DramSystem dram(cfg.timing, cfg.org, cfg.interleave);
      const memsched::mc::MemoryController mcu(dram, *sched, cfg.controller, cfg.cores,
                                               cfg.seed);
      setups.push_back(seconds_since(t0));
    }
    out.setup_s = median(setups);
    std::vector<sim::OpenLoopResult> results;
    for (const OpenLoad& load : w.loads) {
      sim::OpenLoopConfig cfg = open_config(load, seed);
      cfg.engine = engine;
      const auto sched = make_scheduler(w);
      const auto t0 = util::monotonic_now();
      results.push_back(sim::run_open_loop(cfg, *sched));
      out.run_s += seconds_since(t0);
      out.ticks += static_cast<double>(cfg.warmup_ticks + cfg.measure_ticks);
      out.sim_work += results.back().offered_per_tick * static_cast<double>(cfg.measure_ticks);
    }
    out.result_text = open_result_text(w.loads, results);
    return out;
  }

  const sim::Workload mix = mix_of(w);
  const auto sched = make_scheduler(w);
  const auto t0 = util::monotonic_now();
  sim::MultiCoreSystem sys(closed_config(w, engine), mix.apps(), *sched, seed);
  const auto t1 = util::monotonic_now();
  out.result = sys.run(w.target_insts, w.warmup_insts);
  out.run_s = seconds_since(t1);
  out.setup_s = util::seconds_between(t0, t1);
  for (std::uint32_t c = 0; c < mix.cores(); ++c)
    out.sim_work += static_cast<double>(sys.core(c).committed());
  out.ticks = static_cast<double>(out.result.ticks);
  out.result_text = sim::to_json(out.result).dump(-1);
  return out;
}

std::string open_result_text(const std::vector<OpenLoad>& loads,
                             const std::vector<sim::OpenLoopResult>& rs) {
  std::string text;
  char buf[512];
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const sim::OpenLoopResult& r = rs[i];
    std::snprintf(buf, sizeof buf,
                  "load=%.17g offered=%.17g accepted=%.17g rejected=%.17g lat=%.17g "
                  "p50=%.17g p90=%.17g p99=%.17g row_hit=%.17g bus_util=%.17g\n",
                  loads[i].inject_per_tick, r.offered_per_tick, r.accepted_per_tick,
                  r.rejected_share, r.avg_read_latency_ticks, r.p50_ticks, r.p90_ticks,
                  r.p99_ticks, r.row_hit_rate, r.data_bus_utilization);
    text += buf;
  }
  return text;
}

std::string fidelity_text(const sim::RunResult& r) {
  std::ostringstream os;
  const auto& cs = r.controller_stats;
  os << "ticks=" << r.ticks << " visited=" << r.visited_ticks
     << " rounds=" << cs.sched_rounds << " reads=" << cs.reads_served
     << " writes=" << cs.writes_served << " row_hits=" << cs.row_hits;
  for (const sim::CoreResult& c : r.cores)
    os << " core=" << c.committed << '@' << c.finish_cycle;
  return os.str();
}

std::string digest_of(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double seconds_since(util::MonotonicTime t0) {
  return util::seconds_between(t0, util::monotonic_now());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench
