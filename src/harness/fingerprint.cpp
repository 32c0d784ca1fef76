#include "harness/fingerprint.hpp"

#include <sstream>

namespace memsched::harness {

std::string grid_fingerprint(const sim::ExperimentConfig& cfg,
                             const std::string& workloads, const std::string& schemes,
                             const mc::FaultConfig& fault,
                             const std::string& fault_points) {
  std::ostringstream os;
  os.precision(17);
  os << "grid-v2|w=" << workloads << "|s=" << schemes << "|insts=" << cfg.eval_insts
     << "|repeats=" << cfg.eval_repeats << "|warmup=" << cfg.warmup_insts
     << "|profile=" << cfg.profile_insts << ','
     << cfg.profile_seed << "|seed=" << cfg.eval_seed
     << "|table_bits=" << cfg.table_bits << "|max_ticks=" << cfg.max_ticks
     << "|base={" << cfg.base.fingerprint() << '}';
  if (fault.enabled) {
    os << "|fault=" << fault.seed << ',' << fault.drop_read_prob << ','
       << fault.drop_write_prob << ',' << fault.dup_prob << ',' << fault.delay_prob
       << ',' << fault.delay_ticks_max << ',' << fault.stall_prob << ','
       << fault.stall_ticks << "|fault_pts=" << fault_points;
  }
  return os.str();
}

}  // namespace memsched::harness
