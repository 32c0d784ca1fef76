// Registry of the paper-artefact bench binaries.
//
// The sweep tool's `benches` mode runs every registered binary as an exec
// point under the orchestrator's isolation/timeout/retry machinery, using
// the smoke arguments here (small instruction counts, single slice) so a
// full fault-tolerant pass over the paper's figures stays minutes, not
// hours. Full-scale runs override the arguments on the sweep command line.
#pragma once

#include <string>
#include <vector>

namespace memsched::harness {

struct BenchEntry {
  std::string name;                   ///< binary name under build/bench/
  std::vector<std::string> smoke_args;  ///< default small-parameter overrides
  double cost_weight = 1.0;  ///< relative expected runtime; orders the
                             ///< parallel executor's longest-first dispatch
};

/// All figure/table benches, in report order.
[[nodiscard]] const std::vector<BenchEntry>& bench_registry();

}  // namespace memsched::harness
