// memsched_sim — general simulation driver.
//
//   memsched_sim run workload=4MEM-1 scheme=ME-LREQ [insts=N] [repeats=N]
//                 [seed=N] [interleave=...] [grade=DDR2-800] [json=path]
//       Evaluate one (workload, scheme) pair; prints metrics, optionally
//       dumps the full JSON record.
//   memsched_sim profile app=<name|all> [insts=N] [seed=N]
//       Single-core profiling: IPC, bandwidth, memory efficiency (Eq. 1).
//   memsched_sim list
//       Print the scheme names and the Table-3 workload catalog.
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "ckpt/signal.hpp"
#include "core/scheduler_factory.hpp"
#include "harness/guarded_main.hpp"
#include "harness/interleave.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/json_report.hpp"
#include "sim/workloads.hpp"
#include "util/config.hpp"

using namespace memsched;

namespace {

[[noreturn]] int usage() {
  std::fprintf(stderr,
               "usage: memsched_sim <run|profile|list> [key=value...]\n"
               "  run     workload=4MEM-1|codes:bcde scheme=ME-LREQ [insts=300000] [repeats=3]\n"
               "          [seed=2002] [profile_insts=1000000] [warmup=20000]\n"
               "          [interleave=hybrid|line|page] [grade=DDR2-800] [json=path]\n"
               "          [engine=skip|cycle]   (time advancement; results identical)\n"
               "          [ckpt_dir=path] [ckpt_interval=N]   (checkpoint/restore;\n"
               "          SIGTERM/SIGINT parks state for resume, exit code 6)\n"
               "  profile app=swim|all [insts=1000000] [seed=1001]\n"
               "  list\n");
  throw std::invalid_argument("bad command line (see usage above)");
}

// Shared simulation knobs accepted by both run and profile.
const std::vector<std::string_view> kConfigKeys = {
    "insts", "repeats", "warmup", "profile_insts", "seed", "profile_seed",
    "interleave", "bank_xor", "grade", "engine", "ckpt_dir", "ckpt_interval"};

std::vector<std::string_view> with_config_keys(std::vector<std::string_view> extra) {
  extra.insert(extra.end(), kConfigKeys.begin(), kConfigKeys.end());
  return extra;
}

sim::ExperimentConfig config_from(const util::Config& cli) {
  sim::ExperimentConfig cfg;
  cfg.eval_insts = cli.get_uint("insts", cfg.eval_insts);
  cfg.eval_repeats = static_cast<std::uint32_t>(cli.get_uint("repeats", cfg.eval_repeats));
  cfg.warmup_insts = cli.get_uint("warmup", cfg.warmup_insts);
  cfg.profile_insts = cli.get_uint("profile_insts", cfg.profile_insts);
  cfg.eval_seed = cli.get_uint("seed", cfg.eval_seed);
  cfg.profile_seed = cli.get_uint("profile_seed", cfg.profile_seed);
  cfg.base.interleave =
      harness::interleave_from_string(cli.get_string("interleave", "hybrid"));
  cfg.base.bank_xor = cli.get_bool("bank_xor", false);
  cfg.base.engine = sim::engine_from_string(cli.get_string("engine", "skip"));
  if (cli.has("grade")) {
    cfg.base.apply_speed_grade(dram::SpeedGrade::by_name(cli.get_string("grade", "")));
  }
  cfg.ckpt_dir = cli.get_string("ckpt_dir", "");
  if (!cfg.ckpt_dir.empty()) std::filesystem::create_directories(cfg.ckpt_dir);
  cfg.ckpt_interval = cli.get_uint("ckpt_interval", cfg.ckpt_interval);
  cfg.ckpt_stop = &ckpt::stop_flag();
  return cfg;
}

int cmd_run(const util::Config& cli) {
  if (const auto err = cli.check_known(with_config_keys({"workload", "scheme", "json"})))
    throw std::invalid_argument(*err);
  const std::string wname = cli.get_string("workload", "");
  const std::string scheme = cli.get_string("scheme", "");
  if (wname.empty() || scheme.empty()) usage();

  sim::Experiment exp(config_from(cli));
  const sim::Workload w = sim::resolve_workload(wname);
  const sim::WorkloadRun r = exp.run(w, scheme);

  std::printf("%s under %s (%u cores, %s):\n", w.name.c_str(), r.scheme.c_str(),
              w.cores(), w.codes.c_str());
  std::printf("  SMT speedup:      %.4f\n", r.smt_speedup);
  std::printf("  unfairness:       %.4f\n", r.unfairness);
  std::printf("  avg read latency: %.0f CPU cycles\n", r.avg_read_latency_cpu);
  std::printf("  row-hit rate:     %.3f\n", r.row_hit_rate);
  std::printf("  bus utilization:  %.3f\n", r.bus_utilization);
  std::printf("  DRAM power:       %.2f W\n", r.raw.dram_power_watts);
  std::printf("  per-core IPC (vs alone):\n");
  const auto apps = w.apps();
  for (std::uint32_t c = 0; c < w.cores(); ++c) {
    std::printf("    core %u %-10s %.3f / %.3f (slowdown %.2fx)\n", c,
                apps[c].name.c_str(), r.ipc_multi[c], r.ipc_single[c],
                r.ipc_single[c] / r.ipc_multi[c]);
  }

  if (const std::string path = cli.get_string("json", ""); !path.empty()) {
    util::Json doc = util::Json::object();
    doc["config"] = sim::to_json(exp.config_for(w.cores()));
    doc["result"] = sim::to_json(r);
    doc.write_file(path);
    std::printf("  JSON record:      %s\n", path.c_str());
  }
  return 0;
}

int cmd_profile(const util::Config& cli) {
  if (const auto err = cli.check_known(with_config_keys({"app"})))
    throw std::invalid_argument(*err);
  const std::string app = cli.get_string("app", "");
  if (app.empty()) usage();
  sim::Experiment exp(config_from(cli));
  std::printf("%-10s %8s %10s %12s\n", "app", "IPC", "BW(GB/s)", "ME (Eq. 1)");
  const auto print_one = [&](const std::string& name) {
    const core::MeProfile& p = exp.profile(name);
    std::printf("%-10s %8.3f %10.3f %12.4f\n", name.c_str(), p.ipc_single,
                p.bandwidth_gbs, p.memory_efficiency);
  };
  if (app == "all") {
    for (const auto& a : trace::spec2000_profiles()) print_one(a.name);
  } else {
    print_one(app);
  }
  return 0;
}

int cmd_list() {
  std::printf("schemes:");
  for (const auto& s : core::known_schedulers()) std::printf(" %s", s.c_str());
  std::printf("\n  (plus <scheme>/TOH thread-over-hit variants)\n\nworkloads:\n");
  for (const auto& w : sim::table3_workloads()) {
    std::printf("  %-8s %-10s %s\n", w.name.c_str(), w.codes.c_str(),
                w.memory_intensive ? "MEM" : "MIX");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return harness::guarded_main("memsched_sim", [&] {
    // SIGTERM/SIGINT → graceful stop: with ckpt_dir= set the active run
    // parks its state in a snapshot and the tool exits "interrupted" (6);
    // re-running the same command resumes and produces identical output.
    ckpt::install_stop_handlers();
    if (argc < 2) usage();
    const std::string cmd = argv[1];
    util::Config cli;
    if (auto err = cli.parse_args(argc - 1, argv + 1)) {
      std::fprintf(stderr, "%s\n", err->c_str());
      usage();
    }
    if (cmd == "run") return cmd_run(cli);
    if (cmd == "profile") return cmd_profile(cli);
    if (cmd == "list") return cmd_list();
    usage();
  });
}
