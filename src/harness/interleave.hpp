// The one parser for the interleave= key shared by the benches, the sweep
// grid, memsched_sim and memsched_trace.
#pragma once

#include <stdexcept>
#include <string>

#include "dram/address_map.hpp"

namespace memsched::harness {

/// Parses "hybrid" / "line" / "page"; throws std::invalid_argument otherwise
/// (guarded_main maps it to the usage exit code, 2).
[[nodiscard]] inline dram::Interleave interleave_from_string(const std::string& s) {
  if (s == "hybrid") return dram::Interleave::kHybrid;
  if (s == "line") return dram::Interleave::kLineInterleave;
  if (s == "page") return dram::Interleave::kPageInterleave;
  throw std::invalid_argument("unknown interleave '" + s +
                              "' (expected hybrid|line|page)");
}

}  // namespace memsched::harness
