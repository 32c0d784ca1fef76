// Configuration-space robustness: the simulator must run correctly (and
// deterministically) across the whole supported configuration lattice, and
// must reject inconsistent configurations loudly.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "sched/policies.hpp"
#include "sim/system.hpp"
#include "trace/app_profile.hpp"

namespace memsched::sim {
namespace {

// The grade is a std::string, not a const char*: gtest prints a C string with its
// address, which would put an ASLR-dependent value into every discovered test name.
using ConfigPoint = std::tuple<std::uint32_t /*channels*/, std::uint32_t /*banks*/,
                               std::string /*grade*/, int /*interleave*/,
                               int /*page policy*/, bool /*bank_xor*/>;

class ConfigLattice : public ::testing::TestWithParam<ConfigPoint> {};

TEST_P(ConfigLattice, TwoCoreRunCompletesSanely) {
  const auto& [channels, banks, grade, interleave, page, bank_xor] = GetParam();
  SystemConfig cfg;
  cfg.cores = 2;
  cfg.org.channels = channels;
  cfg.org.banks_per_dimm = banks;
  cfg.apply_speed_grade(dram::SpeedGrade::by_name(grade));
  cfg.interleave = static_cast<dram::Interleave>(interleave);
  cfg.controller.page_policy = static_cast<mc::PagePolicy>(page);
  cfg.bank_xor = bank_xor;
  ASSERT_TRUE(cfg.validate().empty()) << cfg.validate();

  std::vector<trace::AppProfile> apps{trace::spec2000_by_name("swim"),
                                      trace::spec2000_by_name("gzip")};
  sched::HitFirstReadFirstScheduler s;
  MultiCoreSystem sys(cfg, apps, s, 11);
  const RunResult r = sys.run(20'000, 5'000);
  EXPECT_FALSE(r.hit_tick_limit);
  for (const auto& c : r.cores) {
    EXPECT_GT(c.ipc, 0.01);
    EXPECT_LT(c.ipc, 4.0);
  }
  EXPECT_GT(r.cores[0].dram_reads, 50u);  // swim streams
  EXPECT_GT(r.avg_read_latency_cpu, 30.0);
}

INSTANTIATE_TEST_SUITE_P(
    Lattice, ConfigLattice,
    ::testing::Values(
        ConfigPoint{1, 4, "DDR2-800", 2, 0, false},
        ConfigPoint{2, 4, "DDR2-800", 2, 0, false},  // Table 1
        ConfigPoint{4, 4, "DDR2-800", 2, 0, false},
        ConfigPoint{2, 8, "DDR2-800", 2, 0, false},
        ConfigPoint{2, 4, "DDR2-400", 2, 0, false},
        ConfigPoint{2, 4, "DDR2-533", 0, 0, false},
        ConfigPoint{2, 4, "DDR3-1600", 2, 0, false},
        ConfigPoint{2, 4, "DDR2-800", 0, 0, true},   // line interleave + XOR
        ConfigPoint{2, 4, "DDR2-800", 1, 1, false},  // page interleave, open page
        ConfigPoint{2, 4, "DDR2-800", 2, 2, true}),  // hybrid, adaptive, XOR
    [](const auto& tpinfo) {
      std::string n = std::string("ch") + std::to_string(std::get<0>(tpinfo.param)) +
                      "b" + std::to_string(std::get<1>(tpinfo.param)) + "_" +
                      std::get<2>(tpinfo.param) + "_il" +
                      std::to_string(std::get<3>(tpinfo.param)) + "pp" +
                      std::to_string(std::get<4>(tpinfo.param)) +
                      (std::get<5>(tpinfo.param) ? "_xor" : "");
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(ConfigRejection, ThrowsOnInvalidSystemConfig) {
  SystemConfig cfg;
  cfg.cores = 2;
  cfg.cpu_ratio = 5;  // mismatched with hierarchy/controller (still 8)
  std::vector<trace::AppProfile> apps{trace::spec2000_by_name("swim"),
                                      trace::spec2000_by_name("gzip")};
  sched::HitFirstReadFirstScheduler s;
  EXPECT_THROW({ MultiCoreSystem sys(cfg, apps, s, 1); }, std::invalid_argument);
}

TEST(ConfigRejection, ValidateCatchesBadOrganization) {
  SystemConfig cfg;
  cfg.org.banks_per_dimm = 3;  // not a power of two
  EXPECT_FALSE(cfg.validate().empty());
  cfg = SystemConfig{};
  cfg.org.capacity_bytes = 1 << 20;  // too small for the organization
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(ConfigRejection, ValidateCatchesBadTiming) {
  SystemConfig cfg;
  cfg.timing.tRAS = 1;  // < tRCD
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(ConfigDeterminism, IdenticalAcrossConfigsRebuilt) {
  for (int rep = 0; rep < 2; ++rep) {
    static double first_ipc = 0.0;
    SystemConfig cfg;
    cfg.cores = 2;
    cfg.bank_xor = true;
    cfg.controller.page_policy = mc::PagePolicy::kAdaptive;
    std::vector<trace::AppProfile> apps{trace::spec2000_by_name("applu"),
                                        trace::spec2000_by_name("mcf")};
    sched::LeastRequestScheduler s;
    MultiCoreSystem sys(cfg, apps, s, 77);
    const RunResult r = sys.run(15'000, 5'000);
    if (rep == 0) {
      first_ipc = r.cores[0].ipc;
    } else {
      EXPECT_DOUBLE_EQ(r.cores[0].ipc, first_ipc);
    }
  }
}

}  // namespace
}  // namespace memsched::sim
