#include "harness/grid.hpp"

#include <stdexcept>

#include "ckpt/signal.hpp"
#include "harness/fingerprint.hpp"
#include "harness/interleave.hpp"
#include "sim/engine.hpp"
#include "sim/workloads.hpp"
#include "util/config.hpp"

namespace memsched::harness {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t end = csv.find(',', begin);
    const std::string item =
        csv.substr(begin, end == std::string::npos ? std::string::npos : end - begin);
    if (!item.empty()) out.push_back(item);
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return out;
}

const std::vector<std::string_view>& grid_keys() {
  static const std::vector<std::string_view> kKeys = {
      "workloads",     "schemes", "insts",   "repeats",         "warmup",
      "profile_insts", "seed",    "profile_seed", "interleave", "engine",
      "verify",        "progress_window",    "ckpt_interval", "fault"};
  return kKeys;
}

GridSpec grid_from_config(const util::Config& cli) {
  GridSpec spec;
  sim::ExperimentConfig& cfg = spec.cfg;
  cfg.eval_insts = cli.get_uint("insts", 30'000);
  cfg.eval_repeats = static_cast<std::uint32_t>(cli.get_uint("repeats", 1));
  cfg.warmup_insts = cli.get_uint("warmup", cfg.warmup_insts);
  cfg.profile_insts = cli.get_uint("profile_insts", 80'000);
  cfg.eval_seed = cli.get_uint("seed", cfg.eval_seed);
  cfg.profile_seed = cli.get_uint("profile_seed", cfg.profile_seed);
  cfg.base.interleave = interleave_from_string(cli.get_string("interleave", "hybrid"));
  cfg.base.engine = sim::engine_from_string(cli.get_string("engine", "skip"));
  cfg.base.audit.enabled = cli.get_bool("verify", cfg.base.audit.enabled);
  cfg.base.progress_window_ticks =
      cli.get_uint("progress_window", cfg.base.progress_window_ticks);
  spec.ckpt_interval = cli.get_uint("ckpt_interval", 1'000'000);

  mc::FaultConfig& fault = spec.fault;
  fault.enabled = cli.get_bool("fault", false);
  fault.seed = cli.get_uint("fault.seed", fault.seed);
  fault.drop_read_prob = cli.get_double("fault.drop_read", 0.0);
  fault.drop_write_prob = cli.get_double("fault.drop_write", 0.0);
  fault.dup_prob = cli.get_double("fault.dup", 0.0);
  fault.delay_prob = cli.get_double("fault.delay", 0.0);
  fault.delay_ticks_max =
      static_cast<std::uint32_t>(cli.get_uint("fault.delay_max", fault.delay_ticks_max));
  fault.stall_prob = cli.get_double("fault.stall", 0.0);
  fault.stall_ticks =
      static_cast<std::uint32_t>(cli.get_uint("fault.stall_ticks", fault.stall_ticks));
  if (const std::string err = fault.validate(); !err.empty())
    throw std::invalid_argument("fault config: " + err);

  spec.workloads_csv = cli.get_string("workloads", "2MEM-1");
  spec.schemes_csv = cli.get_string("schemes", "HF-RF,ME-LREQ");
  spec.fault_points_csv = cli.get_string("fault.points", "");
  spec.workloads = split_csv(spec.workloads_csv);
  spec.schemes = split_csv(spec.schemes_csv);
  if (spec.workloads.empty() || spec.schemes.empty())
    throw std::invalid_argument("grid needs at least one workload and one scheme");
  return spec;
}

std::string fingerprint(const GridSpec& spec) {
  return grid_fingerprint(spec.cfg, spec.workloads_csv, spec.schemes_csv, spec.fault,
                          spec.fault_points_csv);
}

std::vector<PointSpec> grid_points(const GridSpec& spec) {
  const std::vector<std::string> fault_points = split_csv(spec.fault_points_csv);
  const auto fault_targets = [&](const std::string& point_name) {
    if (!spec.fault.enabled) return false;
    if (fault_points.empty()) return true;
    for (const std::string& p : fault_points) {
      if (p == point_name) return true;
    }
    return false;
  };

  std::vector<PointSpec> points;
  points.reserve(spec.workloads.size() * spec.schemes.size());
  for (const std::string& wname : spec.workloads) {
    for (const std::string& scheme : spec.schemes) {
      PointSpec p;
      p.name = wname + "/" + scheme;
      // Dispatch hint for the parallel executor: simulated work scales with
      // instruction count x cores (workload names lead with the core count,
      // "4MEM-1" = 4 cores). A wrong hint only costs wall clock.
      const double cores = (wname.empty() || wname[0] < '1' || wname[0] > '9')
                               ? 1.0
                               : static_cast<double>(wname[0] - '0');
      p.cost_hint = static_cast<double>(spec.cfg.eval_insts) * cores *
                    static_cast<double>(spec.cfg.eval_repeats);
      const bool chaos = fault_targets(p.name);
      const sim::ExperimentConfig cfg = spec.cfg;
      const mc::FaultConfig fault = spec.fault;
      const Tick ckpt_interval = spec.ckpt_interval;
      p.body = [cfg, wname, scheme, fault, chaos,
                ckpt_interval](const std::string& ckpt_dir) {
        sim::ExperimentConfig point_cfg = cfg;
        if (chaos) {
          point_cfg.base.fault = fault;
          // Record-mode audit: induced corruption should be *counted* by the
          // verification layer, not abort the child before the watchdogs get
          // to demonstrate containment.
          point_cfg.base.audit.abort_on_violation = false;
        }
        // Every point checkpoints into its own directory; Experiment turns
        // this off under verify= (the auditor's shadow state is not
        // serialized).
        point_cfg.ckpt_dir = ckpt_dir;
        point_cfg.ckpt_interval = ckpt_interval;
        point_cfg.ckpt_stop = &ckpt::stop_flag();
        sim::Experiment exp(point_cfg);
        const sim::Workload w = sim::resolve_workload(wname);
        const sim::WorkloadRun r = exp.run(w, scheme);
        util::Json payload = util::Json::object();
        payload["workload"] = w.name;
        payload["scheme"] = r.scheme;
        payload["fault_injected"] = chaos;
        payload["smt_speedup"] = r.smt_speedup;
        payload["unfairness"] = r.unfairness;
        payload["avg_read_latency_cpu"] = r.avg_read_latency_cpu;
        payload["row_hit_rate"] = r.row_hit_rate;
        payload["bus_utilization"] = r.bus_utilization;
        return payload;
      };
      points.push_back(std::move(p));
    }
  }
  return points;
}

}  // namespace memsched::harness
