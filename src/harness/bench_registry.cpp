#include "harness/bench_registry.hpp"

namespace memsched::harness {

const std::vector<BenchEntry>& bench_registry() {
  // cost_weight = the bench's own wall time in seconds at these smoke args,
  // run alone (memsched_sweep benches jobs=1, 4-vCPU VM). Only the relative
  // order matters: the parallel sweep launches the heaviest benches first so
  // the pool never ends with one long-running straggler on a lone worker.
  // ablation_design_choices is most of the sweep's work, so it goes first.
  static const std::vector<BenchEntry> registry = {
      {"table2_memory_efficiency",
       {"insts=40000", "repeats=1", "profile_insts=100000"}, 0.4},
      {"fig2_smt_speedup", {"insts=30000", "repeats=1", "profile_insts=80000"}, 4.4},
      {"fig3_fixed_priority",
       {"insts=40000", "repeats=1", "profile_insts=100000"}, 1.5},
      {"fig4_read_latency",
       {"insts=40000", "repeats=1", "profile_insts=100000"}, 1.0},
      {"fig5_fairness", {"insts=40000", "repeats=1", "profile_insts=100000"}, 1.0},
      {"ablation_design_choices",
       {"insts=30000", "repeats=1", "profile_insts=80000"}, 23.0},
      {"power_efficiency", {"insts=30000", "repeats=1", "profile_insts=80000"}, 0.6},
      {"sensitivity_sweep", {"insts=20000", "repeats=1", "profile_insts=60000"}, 1.7},
      {"latency_curves", {}, 1.1},
  };
  return registry;
}

}  // namespace memsched::harness
