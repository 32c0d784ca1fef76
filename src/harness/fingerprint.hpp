// Sweep fingerprint construction.
//
// The manifest fingerprint ties recorded results to the sweep definition:
// resuming with ANY result-affecting knob changed must refuse the stale
// manifest instead of silently mixing incompatible points. Building the
// string here — on top of SystemConfig::fingerprint(), which renders every
// result-affecting base-config field — means a new simulator knob (engine=,
// a timing parameter, a fault probability) can never be forgotten in the
// sweep tool's hand-rolled list again; that exact bug shipped once when
// engine= was added after the sweep tool froze its inline fingerprint.
#pragma once

#include <string>

#include "mc/fault_injector.hpp"
#include "sim/experiment.hpp"

namespace memsched::harness {

/// Fingerprint for a `memsched_sweep grid` sweep. `workloads` / `schemes` /
/// `fault_points` are the raw CSV strings from the command line; `fault` is
/// the chaos configuration applied to the targeted points (ignored when
/// disabled).
[[nodiscard]] std::string grid_fingerprint(const sim::ExperimentConfig& cfg,
                                           const std::string& workloads,
                                           const std::string& schemes,
                                           const mc::FaultConfig& fault,
                                           const std::string& fault_points);

}  // namespace memsched::harness
