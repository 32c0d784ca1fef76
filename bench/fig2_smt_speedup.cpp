// Figure 2 reproduction: SMT speedup of HF-RF / ME / RR / LREQ / ME-LREQ on
// all 36 Table-3 workloads (2/4/8 cores, MEM and MIX groups), plus the
// paper's §5.1 headline aggregates.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness/guarded_main.hpp"
#include "report.hpp"
#include "sim/json_report.hpp"
#include "sim/workloads.hpp"
#include "util/stats.hpp"

using namespace memsched;
using bench::BenchSetup;

namespace {

// The paper's five Figure-2 schemes first (the summary below references
// them by index), then the epoch-aware zoo appended for the leaderboard.
const std::vector<std::string> kSchemes = {"HF-RF", "ME",  "RR",  "LREQ",
                                           "ME-LREQ", "BLISS", "TCM", "CADS"};

}  // namespace

namespace {

int run_bench(int argc, char** argv) {
  const BenchSetup setup = BenchSetup::parse(argc, argv, {"json"});
  bench::print_header(
      setup, "Figure 2 — SMT speedup: paper schemes + BLISS/TCM/CADS",
      "ME-LREQ wins on MEM workloads; gains grow with core count "
      "(paper: +10.7% avg / +17.7% max over HF-RF on 4 cores; +19.9% avg on 8)");

  sim::Experiment exp(setup.experiment);
  bench::CsvSink csv(setup.csv_path);
  csv.row({"workload", "scheme", "smt_speedup", "vs_hfrf_pct"});

  const auto& all = sim::table3_workloads();

  // Echo Table 3 so the workload composition is visible in the output.
  std::printf("Table 3 workload mixes:\n");
  for (const auto& w : all) {
    std::printf("  %-7s %-10s", w.name.c_str(), w.codes.c_str());
    if (w.name.back() == '6' || w.name.back() == '3') std::printf("\n");
  }
  std::printf("\n");

  const auto rows = bench::run_grid(exp, all, kSchemes);

  // Optional machine-readable dump of every run (json=path).
  if (const std::string json_path = setup.cli.get_string("json", "");
      !json_path.empty()) {
    util::Json doc = util::Json::object();
    doc["artefact"] = "figure2";
    doc["config"] = sim::to_json(exp.config_for(4));
    util::Json runs = util::Json::array();
    for (std::size_t wi = 0; wi < all.size(); ++wi) {
      for (std::size_t si = 0; si < kSchemes.size(); ++si) {
        runs.push_back(sim::to_json(rows[wi][si]));
      }
    }
    doc["runs"] = std::move(runs);
    doc.write_file(json_path);
    std::printf("(JSON dump written to %s)\n\n", json_path.c_str());
  }

  // Per-group tables + aggregates.
  std::map<std::string, std::vector<double>> group_gain;  // scheme gains per group
  struct Agg {
    std::vector<util::RunningStat> gain =
        std::vector<util::RunningStat>(kSchemes.size());  // vs HF-RF, percent
  };
  std::map<std::string, Agg> aggregates;  // key: "<cores><type>"

  for (std::uint32_t cores : {2u, 4u, 8u}) {
    for (const std::string type : {"MEM", "MIX"}) {
      std::printf("---- %u-core %s workloads ----\n", cores, type.c_str());
      std::printf("%-8s", "mix");
      for (const auto& s : kSchemes) std::printf(" %10s", s.c_str());
      std::printf("   best-vs-HF-RF\n");
      Agg& agg = aggregates[std::to_string(cores) + type];
      for (std::size_t wi = 0; wi < all.size(); ++wi) {
        const auto& w = all[wi];
        if (w.cores() != cores || w.memory_intensive != (type == "MEM")) continue;
        const auto& row = rows[wi];
        const double base = row[0].smt_speedup;
        std::printf("%-8s", w.name.c_str());
        for (std::size_t si = 0; si < kSchemes.size(); ++si) {
          std::printf(" %10.4f", row[si].smt_speedup);
          agg.gain[si].add(bench::pct(row[si].smt_speedup, base));
          csv.row({w.name, kSchemes[si], util::fmt(row[si].smt_speedup, 4),
                   util::fmt(bench::pct(row[si].smt_speedup, base), 2)});
        }
        std::printf("   ME-LREQ %s\n",
                    bench::fmt_pct(bench::pct(row[4].smt_speedup, base)).c_str());
      }
      std::printf("%-8s", "avg-gain");
      for (std::size_t si = 0; si < kSchemes.size(); ++si) {
        std::printf(" %10s", bench::fmt_pct(agg.gain[si].mean()).c_str());
      }
      std::printf("\n\n");
    }
  }

  std::printf("==== paper-vs-measured summary (SMT-speedup gain over HF-RF) ====\n");
  std::printf("%-34s %10s %10s\n", "aggregate", "paper", "measured");
  const auto line = [&](const char* label, const char* key, std::size_t si,
                        const char* paper, bool max_stat = false) {
    const Agg& a = aggregates[key];
    const double v = max_stat ? a.gain[si].max() : a.gain[si].mean();
    std::printf("%-34s %10s %9.1f%%\n", label, paper, v);
  };
  line("4-core MEM: LREQ avg", "4MEM", 3, "+4.0%");
  line("4-core MEM: ME-LREQ avg", "4MEM", 4, "+10.7%");
  line("4-core MEM: ME-LREQ max", "4MEM", 4, "+17.7%", true);
  line("4-core MEM: ME avg", "4MEM", 1, "-0.6%");
  line("8-core MEM: LREQ avg", "8MEM", 3, "+8.7%");
  line("8-core MEM: ME-LREQ avg", "8MEM", 4, "+19.9%");
  line("8-core MEM: ME-LREQ max", "8MEM", 4, "+21.4%", true);
  line("4-core MIX: ME-LREQ avg", "4MIX", 4, "+4.0%");
  line("8-core MIX: ME-LREQ avg", "8MIX", 4, "+12.1%");
  std::printf("\n(2-core groups are expected to be nearly flat — paper §5.1:\n"
              " \"the performance gains ... are insignificant on the two-core\n"
              " platform\".)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return harness::guarded_main("fig2_smt_speedup", [&] { return run_bench(argc, argv); });
}
