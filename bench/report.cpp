#include "report.hpp"

#include <cstdio>
#include <stdexcept>

#include "harness/interleave.hpp"
#include "sim/engine.hpp"
#include "sim/runner.hpp"

namespace memsched::bench {

BenchSetup BenchSetup::parse(int argc, char** argv,
                             const std::vector<std::string_view>& extra_keys) {
  BenchSetup out;
  const auto fail = [&](const std::string& msg) -> void {
    std::fprintf(stderr, "argument error: %s\n", msg.c_str());
    std::fprintf(stderr,
                 "usage: %s [insts=N] [repeats=N] [warmup=N] [profile_insts=N]\n"
                 "          [seed=N] [profile_seed=N] [interleave=line|page|hybrid]\n"
                 "          [refresh=0|1] [verify=0|1] [engine=skip|cycle|sampled] [csv=path]\n",
                 argv[0]);
    throw std::invalid_argument(msg);
  };
  if (auto err = out.cli.parse_args(argc, argv)) fail(*err);
  // A misspelled override must stop the bench, not silently measure the
  // default configuration.
  std::vector<std::string_view> known = {"insts",        "repeats",    "warmup",
                                         "profile_insts", "seed",      "profile_seed",
                                         "interleave",    "refresh",   "verify",
                                         "engine",        "csv"};
  known.insert(known.end(), extra_keys.begin(), extra_keys.end());
  if (auto err = out.cli.check_known(known)) fail(*err);
  sim::ExperimentConfig& e = out.experiment;
  e.eval_insts = out.cli.get_uint("insts", e.eval_insts);
  e.eval_repeats = static_cast<std::uint32_t>(out.cli.get_uint("repeats", e.eval_repeats));
  e.warmup_insts = out.cli.get_uint("warmup", e.warmup_insts);
  e.profile_insts = out.cli.get_uint("profile_insts", e.profile_insts);
  e.eval_seed = out.cli.get_uint("seed", e.eval_seed);
  e.profile_seed = out.cli.get_uint("profile_seed", e.profile_seed);
  try {
    e.base.interleave =
        harness::interleave_from_string(out.cli.get_string("interleave", "hybrid"));
    e.base.engine = sim::engine_from_string(out.cli.get_string("engine", "skip"));
  } catch (const std::invalid_argument& err) {
    fail(err.what());
  }
  e.base.timing.refresh_enabled = out.cli.get_bool("refresh", false);
  // Default comes from the MEMSCHED_VERIFY environment flag; verify= overrides.
  e.base.audit.enabled = out.cli.get_bool("verify", e.base.audit.enabled);
  out.csv_path = out.cli.get_string("csv", "");
  return out;
}

std::vector<std::vector<sim::WorkloadRun>> run_grid(
    sim::Experiment& exp, const std::vector<sim::Workload>& workloads,
    const std::vector<std::string>& schemes) {
  for (const auto& w : workloads) {
    for (const auto& app : w.apps()) exp.profile(app.name);
  }
  std::vector<std::vector<sim::WorkloadRun>> runs(
      workloads.size(), std::vector<sim::WorkloadRun>(schemes.size()));
  sim::parallel_for(workloads.size() * schemes.size(), sim::default_thread_count(),
                    [&](std::size_t j) {
                      const std::size_t wi = j / schemes.size();
                      const std::size_t si = j % schemes.size();
                      runs[wi][si] = exp.run(workloads[wi], schemes[si]);
                    });
  return runs;
}

void print_header(const BenchSetup& setup, const char* artefact,
                  const char* paper_claim) {
  const sim::ExperimentConfig& e = setup.experiment;
  std::printf("memsched reproduction — %s\n", artefact);
  std::printf("paper: Zheng et al., \"Memory Access Scheduling Schemes for Systems with\n");
  std::printf("       Multi-Core Processors\", ICPP 2008\n");
  std::printf("claim: %s\n", paper_claim);
  std::printf(
      "config (Table 1): %u-issue cores @%.1f GHz, 64KB L1, 4MB shared L2,\n"
      "  %u logic channels x %u banks DDR2-800 5-5-5, %u-entry controller buffer,\n"
      "  %s mapping, close page, read-first + hit-first, write drain %u/%u\n",
      e.base.core.issue_width, e.base.cpu_ghz, e.base.org.channels,
      e.base.org.banks_per_channel(), e.base.controller.buffer_entries,
      dram::AddressMap::scheme_name(e.base.interleave).c_str(),
      e.base.controller.drain_high, e.base.controller.drain_low);
  std::printf("run: eval %llu insts x %u slices (seed %llu), profile %llu insts "
              "(seed %llu), warmup %llu, %s engine\n\n",
              static_cast<unsigned long long>(e.eval_insts), e.eval_repeats,
              static_cast<unsigned long long>(e.eval_seed),
              static_cast<unsigned long long>(e.profile_insts),
              static_cast<unsigned long long>(e.profile_seed),
              static_cast<unsigned long long>(e.warmup_insts),
              sim::engine_name(e.base.engine));
}

CsvSink::CsvSink(const std::string& path) {
  if (path.empty()) return;
  f_ = std::fopen(path.c_str(), "w");
  if (!f_) std::fprintf(stderr, "warning: cannot open CSV path %s\n", path.c_str());
}

CsvSink::~CsvSink() {
  if (f_) std::fclose(f_);
}

void CsvSink::row(const std::vector<std::string>& cells) {
  if (!f_) return;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::fprintf(f_, "%s%s", i ? "," : "", cells[i].c_str());
  }
  std::fputc('\n', f_);
}

double pct(double x, double base) { return base != 0.0 ? 100.0 * (x / base - 1.0) : 0.0; }

std::string fmt_pct(double percent) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", percent);
  return buf;
}

}  // namespace memsched::bench
