// SoA queue-refactor pin tests.
//
// The controller's request queues were restructured from AoS
// (std::vector<Request> with mid-vector erase) to flat structure-of-arrays
// storage with swap-removal (see docs/performance.md). The scheduling
// contract says results depend only on the candidate *set* — arrival orders
// are unique and every tie resolves through them — so queue storage order
// must never leak into results. These tests pin that end to end against
// golden fixtures captured from the pre-refactor AoS implementation:
//
//   * PickOrderGolden — a controller-level harness drives congested queues
//     (drain hysteresis, row hits/conflicts, prefetches, multi-channel) for
//     every factory scheme and hashes the exact transaction schedule seen by
//     the TraceSink (id, core, row state, decision tick, arrival order).
//   * ReportBytesGolden — whole-system closed-loop runs; the serialized JSON
//     report is hashed byte for byte.
//   * CkptResumeDuringQueueChurn — save mid-churn, resume, and require the
//     final report bytes to equal the uninterrupted run's.
//
// Regenerate fixtures (only when a *deliberate* result change lands) with
//   MEMSCHED_UPDATE_GOLDEN=1 ./tests/test_soa_equiv
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/policy.hpp"
#include "core/scheduler_factory.hpp"
#include "ckpt/snapshot.hpp"
#include "dram/dram_system.hpp"
#include "harness/orchestrator.hpp"
#include "mc/controller.hpp"
#include "sim/json_report.hpp"
#include "sim/system.hpp"
#include "sim/workloads.hpp"
#include "util/rng.hpp"

namespace memsched {
namespace {

// ----------------------------------------------------------- fixtures -----

constexpr const char* kGoldenFile = MEMSCHED_SOA_GOLDEN_FILE;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a_str(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::map<std::string, std::string> load_golden() {
  std::map<std::string, std::string> out;
  std::ifstream in(kGoldenFile);
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos || line.empty() || line[0] == '#') continue;
    out[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return out;
}

bool updating_golden() {
  const char* v = std::getenv("MEMSCHED_UPDATE_GOLDEN");
  return v != nullptr && v[0] == '1';
}

/// Collected results for regeneration mode (one process runs all tests).
std::map<std::string, std::string>& pending_updates() {
  static std::map<std::string, std::string> u;
  return u;
}

void check_or_record(const std::string& key, std::uint64_t hash) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash));
  if (updating_golden()) {
    pending_updates()[key] = buf;
    return;
  }
  static const std::map<std::string, std::string> golden = load_golden();
  const auto it = golden.find(key);
  ASSERT_NE(it, golden.end()) << "no golden entry for " << key
                              << " — regenerate with MEMSCHED_UPDATE_GOLDEN=1";
  EXPECT_EQ(it->second, buf)
      << key << ": result drifted from the pre-refactor AoS oracle";
}

/// Flushes regenerated fixtures after the last test (gtest environment).
class GoldenFlusher : public ::testing::Environment {
 public:
  void TearDown() override {
    if (!updating_golden() || pending_updates().empty()) return;
    std::ofstream out(kGoldenFile, std::ios::trunc);
    out << "# Golden result hashes captured from the pre-SoA-refactor AoS\n"
           "# controller. Regenerate: MEMSCHED_UPDATE_GOLDEN=1 ./test_soa_equiv\n";
    for (const auto& [k, v] : pending_updates()) out << k << '=' << v << '\n';
  }
};
const auto* const kFlusher =
    ::testing::AddGlobalTestEnvironment(new GoldenFlusher);

// ------------------------------------------------------------ helpers -----

sched::SchedulerPtr make_sched(const std::string& name, std::uint32_t cores) {
  core::SchedulerArgs args;
  args.core_count = cores;
  std::vector<double> me, ipc;
  for (std::uint32_t c = 0; c < cores; ++c) {
    me.push_back(9.0 / (1.0 + static_cast<double>(c)));
    ipc.push_back(2.0 / (1.0 + 0.2 * static_cast<double>(c)));
  }
  args.me = core::MeTable(me);
  args.ipc_single = ipc;
  return core::make_scheduler(name, args);
}

// ------------------------------------------- pick-order schedule pin ------

/// Drives one controller through a congested, multi-phase workload and
/// returns the FNV hash of every scheduling decision the TraceSink saw.
std::uint64_t pick_order_hash(const std::string& scheme) {
  dram::DramSystem dram{dram::Timing{}, dram::Organization{},
                        dram::Interleave::kHybrid};
  const sched::SchedulerPtr sched = make_sched(scheme, 4);
  mc::ControllerConfig cfg;
  mc::MemoryController mcu(dram, *sched, cfg, /*core_count=*/4, /*seed=*/1234);

  std::uint64_t h = 0xcbf29ce484222325ULL;
  mcu.set_trace_sink([&](const mc::Request& r, mc::RowState s, Tick t) {
    h = fnv1a(h, r.id);
    h = fnv1a(h, r.core);
    h = fnv1a(h, r.line_addr);
    h = fnv1a(h, (static_cast<std::uint64_t>(r.is_write) << 2) |
                     (static_cast<std::uint64_t>(r.is_prefetch) << 1) |
                     static_cast<std::uint64_t>(s));
    h = fnv1a(h, r.order);
    h = fnv1a(h, t);
  });
  mcu.set_read_callback([&](const mc::Request& r, Tick done) {
    h = fnv1a(h, r.id ^ 0x5ca1ab1eULL);
    h = fnv1a(h, done);
  });

  // Deterministic bursty traffic: a hot row set (hits + conflicts), both
  // channels, duplicate lines (combining/forwarding), prefetches, and
  // enough write pressure to flip drain mode both ways repeatedly.
  util::Xoshiro256 rng(99);
  Tick now = 0;
  for (int burst = 0; burst < 60; ++burst) {
    const int arrivals = 2 + static_cast<int>(rng.below(10));
    for (int i = 0; i < arrivals; ++i) {
      const CoreId core = static_cast<CoreId>(rng.below(4));
      const std::uint32_t ch = static_cast<std::uint32_t>(rng.below(2));
      const std::uint32_t bank = static_cast<std::uint32_t>(rng.below(8));
      const std::uint64_t row = rng.below(3);        // hot rows -> hits
      const std::uint64_t col = rng.below(16);
      const Addr a = dram.address_map().encode({ch, bank, row, col});
      if (rng.chance(0.45)) {
        mcu.enqueue_write(core, a, now);
      } else {
        mcu.enqueue_read(core, a, now, /*is_prefetch=*/rng.chance(0.15));
      }
    }
    const Tick span = 1 + rng.below(12);
    for (Tick i = 0; i < span; ++i) mcu.tick(now++);
  }
  Tick limit = 200'000;
  while (!mcu.idle() && limit--) mcu.tick(now++);
  EXPECT_TRUE(mcu.idle()) << scheme << ": controller failed to drain";

  // Fold in headline counters: served counts and row outcomes catch any
  // change the schedule hash alone might alias.
  const mc::ControllerStats& st = mcu.stats();
  h = fnv1a(h, st.reads_served);
  h = fnv1a(h, st.writes_served);
  h = fnv1a(h, st.read_forwards);
  h = fnv1a(h, st.write_merges);
  h = fnv1a(h, st.row_hits);
  h = fnv1a(h, st.row_conflicts);
  h = fnv1a(h, st.drain_entries);
  return h;
}

class PickOrderGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(PickOrderGolden, MatchesAosOracle) {
  check_or_record("pick_order/" + GetParam(), pick_order_hash(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, PickOrderGolden,
                         ::testing::ValuesIn(core::known_schedulers()),
                         [](const auto& pi) {
                           std::string n = pi.param;
                           for (char& c : n)
                             if (c == '-' || c == '/') c = '_';
                           return n;
                         });

// --------------------------------------------- report-bytes pin ----------

std::string run_closed_json(const std::string& scheme, const std::string& workload,
                            sim::Engine engine, const ckpt::CheckpointPolicy& policy = {}) {
  const sim::Workload& w = sim::workload_by_name(workload);
  sim::SystemConfig cfg;
  cfg.cores = w.cores();
  cfg.engine = engine;
  const sched::SchedulerPtr s = make_sched(scheme, cfg.cores);
  sim::MultiCoreSystem sys(cfg, w.apps(), *s, /*seed=*/42);
  return sim::to_json(sys.run(25'000, 5'000, Tick{1} << 32, policy)).dump();
}

using SchemeWorkload = std::tuple<std::string, std::string>;
class ReportBytesGolden : public ::testing::TestWithParam<SchemeWorkload> {};

TEST_P(ReportBytesGolden, MatchesAosOracle) {
  const auto& [scheme, workload] = GetParam();
  const std::string json = run_closed_json(scheme, workload, sim::Engine::kSkip);
  check_or_record("report/" + scheme + "/" + workload, fnv1a_str(json));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ReportBytesGolden,
    ::testing::Combine(::testing::ValuesIn(core::known_schedulers()),
                       ::testing::Values("2MEM-1", "4MIX-1")),
    [](const auto& pi) {
      std::string n = std::get<0>(pi.param) + "_" + std::get<1>(pi.param);
      for (char& c : n)
        if (c == '-' || c == '/') c = '_';
      return n;
    });

// ------------------------------- checkpoint round-trip under churn --------

// Queue storage order is checkpointed storage-order-faithfully; a snapshot
// taken mid-churn (swap-removal has shuffled the arrays) must resume to a
// byte-identical report. MEMSCHED_VERIFY is on under ctest and checkpointing
// requires audit off, so this test builds its systems with audit disabled.
TEST(SoaCkpt, ResumeDuringQueueChurnIsByteIdentical) {
  const std::string path = ::testing::TempDir() + "soa_churn.ckpt";
  std::remove(path.c_str());
  const sim::Workload& w = sim::workload_by_name("4MEM-1");

  const auto run_one = [&](const ckpt::CheckpointPolicy& policy) {
    sim::SystemConfig cfg;
    cfg.cores = w.cores();
    cfg.audit.enabled = false;
    const sched::SchedulerPtr s = make_sched("ME-LREQ", cfg.cores);
    sim::MultiCoreSystem sys(cfg, w.apps(), *s, /*seed=*/7);
    return sim::to_json(sys.run(20'000, 4'000, Tick{1} << 32, policy)).dump();
  };

  const std::string uninterrupted = run_one({});

  ckpt::CheckpointPolicy stop_mid;
  stop_mid.path = path;
  stop_mid.stop_at_tick = 800;  // mid-measurement, queues busy
  stop_mid.save_on_stop = true;
  EXPECT_THROW(run_one(stop_mid), ckpt::CheckpointStop);

  ckpt::CheckpointPolicy resume;
  resume.path = path;
  EXPECT_EQ(uninterrupted, run_one(resume));
  std::remove(path.c_str());
}

// ------------------------------- sweep parity at every jobs width ---------

// End-to-end: a sweep of *real* simulation points through the orchestrator's
// process pool. The pool reorders completions (longest-first
// dispatch, nondeterministic reaping), so any storage-order leak the SoA
// refactor introduced into results OR any completion-order leak into the
// manifest would break the byte-parity contract here. Complements the
// synthetic-point pool tests in test_harness.cpp with simulator payloads.
TEST(SoaSweepParity, ManifestAndReportBytesIdenticalAcrossJobs) {
  const auto make_points = [] {
    std::vector<harness::PointSpec> pts;
    for (const char* wl : {"2MEM-1", "2MIX-1"}) {
      for (const char* scheme : {"FCFS", "ME-LREQ", "PAR-BS"}) {
        harness::PointSpec p;
        p.name = std::string(scheme) + "/" + wl;
        p.body = [wl, scheme](const std::string&) -> util::Json {
          const sim::Workload& w = sim::workload_by_name(wl);
          sim::SystemConfig cfg;
          cfg.cores = w.cores();
          const sched::SchedulerPtr s = make_sched(scheme, cfg.cores);
          sim::MultiCoreSystem sys(cfg, w.apps(), *s, /*seed=*/42);
          return sim::to_json(sys.run(8'000, 2'000, Tick{1} << 32));
        };
        pts.push_back(std::move(p));
      }
    }
    return pts;
  };

  const auto slurp = [](const std::string& p) {
    std::ifstream in(p);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };

  std::string manifests[2];
  std::string reports[2];
  const std::uint32_t widths[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    harness::OrchestratorConfig oc;
    oc.manifest_path =
        ::testing::TempDir() + "soa_jobs" + std::to_string(widths[i]) + ".manifest";
    oc.work_dir = ::testing::TempDir() + "soa_jobs_work" + std::to_string(widths[i]);
    oc.fingerprint = "soa-jobs-parity";
    oc.jobs = widths[i];
    oc.verbose = false;
    std::remove(oc.manifest_path.c_str());
    harness::Orchestrator orch(oc);
    const harness::SweepSummary s = orch.run(make_points());
    ASSERT_TRUE(s.complete());
    ASSERT_EQ(s.ok, 6u) << "jobs=" << widths[i];
    manifests[i] = slurp(oc.manifest_path);
    reports[i] = orch.report().dump(2);
    std::remove(oc.manifest_path.c_str());
  }
  EXPECT_EQ(manifests[0], manifests[1]);
  EXPECT_EQ(reports[0], reports[1]);
}

}  // namespace
}  // namespace memsched
