#include "sim/open_loop.hpp"

#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "dram/dram_system.hpp"
#include "mc/fault_injector.hpp"
#include "sim/system_config.hpp"
#include "sim/watchdog.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace memsched::sim {

namespace {

// Snapshot fingerprint for one open-loop run. Reuses SystemConfig's
// canonical rendering for the shared device/controller blocks so new timing
// or fault knobs can never silently drop out of the open-loop fingerprint.
std::string open_loop_fingerprint(const OpenLoopConfig& cfg,
                                  const sched::Scheduler& scheduler,
                                  const std::string& context) {
  SystemConfig shared;
  shared.engine = cfg.engine;
  shared.cores = cfg.cores;
  shared.timing = cfg.timing;
  shared.org = cfg.org;
  shared.interleave = cfg.interleave;
  shared.controller = cfg.controller;
  shared.fault = cfg.fault;
  shared.progress_window_ticks = cfg.progress_window_ticks;
  std::ostringstream os;
  os.precision(17);
  os << "openloop|" << shared.fingerprint() << "|sched=" << scheduler.name()
     << "|inject=" << cfg.inject_per_tick << "|wr=" << cfg.write_share
     << "|run=" << cfg.seq_run_lines << "|fp_lines=" << cfg.footprint_lines
     << "|warmup=" << cfg.warmup_ticks << "|measure=" << cfg.measure_ticks
     << "|seed=" << cfg.seed << "|ctx=" << context;
  return os.str();
}

}  // namespace

OpenLoopResult run_open_loop(const OpenLoopConfig& cfg, sched::Scheduler& scheduler) {
  return run_open_loop(cfg, scheduler, ckpt::CheckpointPolicy{});
}

OpenLoopResult run_open_loop(const OpenLoopConfig& cfg, sched::Scheduler& scheduler,
                             const ckpt::CheckpointPolicy& policy) {
  MEMSCHED_ASSERT(cfg.cores > 0, "open loop needs at least one core");
  MEMSCHED_ASSERT(cfg.inject_per_tick > 0.0, "offered load must be positive");
  if (cfg.engine == Engine::kSampled) {
    throw std::invalid_argument(
        "engine=sampled applies to closed-loop core-driven runs only: the "
        "open loop has no instruction stream to fast-forward (use skip)");
  }
  if (policy.enabled() && cfg.audit.enabled) {
    throw std::invalid_argument(
        "checkpointing requires audit off: the auditor's shadow state is not "
        "serialized, so a resumed run could not keep verifying (disable one)");
  }

  dram::DramSystem dram(cfg.timing, cfg.org, cfg.interleave);
  scheduler.reset();
  mc::MemoryController mcu(dram, scheduler, cfg.controller, cfg.cores, cfg.seed);
  std::unique_ptr<verif::InvariantAuditor> auditor;
  if (cfg.audit.enabled) {
    auditor = std::make_unique<verif::InvariantAuditor>(dram, mcu, cfg.audit);
  }
  std::unique_ptr<mc::FaultInjector> fault;
  if (cfg.fault.enabled) {
    fault = std::make_unique<mc::FaultInjector>(cfg.fault);
    mcu.set_fault_injector(fault.get());
  }
  ProgressWatchdog watchdog(cfg.progress_window_ticks);

  util::Xoshiro256 rng(cfg.seed ^ 0x0be9100bULL);
  // Per-core sequential stream cursors with geometric run lengths, giving
  // the same row-locality texture the closed-loop system produces.
  std::vector<std::uint64_t> cursor(cfg.cores);
  std::vector<std::uint32_t> run_left(cfg.cores, 0);
  for (auto& c : cursor) c = rng.below(cfg.footprint_lines);

  std::uint64_t offered = 0, accepted = 0;
  double carry = 0.0;
  bool measuring = false;
  Tick measure_start = 0;

  const Tick total = cfg.warmup_ticks + cfg.measure_ticks;
  Tick now = 0;
  bool finished = false;

  // Same checkpoint protocol as MultiCoreSystem::run: snapshot at the top of
  // an iteration (state self-consistent, resume replays the same tick/RNG
  // stream), `finished` snapshot after the loop for idempotent re-invocation.
  const std::string fp =
      policy.enabled() ? open_loop_fingerprint(cfg, scheduler, policy.context)
                       : std::string{};

  auto save_snapshot = [&] {
    ckpt::Writer w;
    w.begin_section("loop");
    w.put_bool(finished);
    w.put_u64(now);
    w.put_u64(offered);
    w.put_u64(accepted);
    w.put_f64(carry);
    w.put_bool(measuring);
    w.put_u64(measure_start);
    w.put_rng(rng);
    w.put_u64_vec(cursor);
    for (const std::uint32_t rl : run_left) w.put_u32(rl);
    w.begin_section("sched");
    scheduler.save_state(w);
    w.begin_section("mc");
    mcu.save_state(w);
    w.begin_section("dram");
    dram.save_state(w);
    if (fault) {
      w.begin_section("fault");
      fault->save_state(w);
    }
    w.begin_section("watchdog");
    watchdog.save_state(w);
    w.save(policy.path, fp);
  };

  if (policy.enabled() && policy.resume &&
      std::ifstream(policy.path, std::ios::binary).good()) {
    if (policy.resume_info) *policy.resume_info = {};
    bool mutated = false;  // components touched: a failure now is NOT recoverable
    try {
      ckpt::Reader r(policy.path, fp);
      r.open_section("loop");
      const bool was_finished = r.get_bool();
      const Tick r_now = r.get_u64();
      const std::uint64_t r_offered = r.get_u64();
      const std::uint64_t r_accepted = r.get_u64();
      const double r_carry = r.get_f64();
      const bool r_measuring = r.get_bool();
      const Tick r_measure_start = r.get_u64();
      util::Xoshiro256 r_rng(0);
      r.get_rng(r_rng);
      const auto r_cursor = r.get_u64_vec();
      if (r_cursor.size() != cfg.cores) {
        throw ckpt::SnapshotError("snapshot: open-loop core count mismatch");
      }
      std::vector<std::uint32_t> r_run_left(cfg.cores, 0);
      for (auto& rl : r_run_left) rl = r.get_u32();
      r.close_section();
      mutated = true;
      r.open_section("sched");
      scheduler.load_state(r);
      r.close_section();
      r.open_section("mc");
      mcu.load_state(r);
      r.close_section();
      r.open_section("dram");
      dram.load_state(r);
      r.close_section();
      if (fault) {
        r.open_section("fault");
        fault->load_state(r);
        r.close_section();
      }
      r.open_section("watchdog");
      watchdog.load_state(r);
      r.close_section();
      finished = was_finished;
      now = r_now;
      offered = r_offered;
      accepted = r_accepted;
      carry = r_carry;
      measuring = r_measuring;
      measure_start = r_measure_start;
      rng = r_rng;
      cursor = r_cursor;
      run_left = r_run_left;
      if (policy.resume_info) {
        policy.resume_info->attempted = true;
        policy.resume_info->resumed = true;
      }
    } catch (const ckpt::SnapshotError& e) {
      if (mutated) throw;  // half-restored state cannot fall back cleanly
      if (policy.resume_info) {
        policy.resume_info->attempted = true;
        policy.resume_info->resumed = false;
        policy.resume_info->error = e.what();
      }
    }
  }

  Tick next_ckpt = kNeverTick;
  if (policy.enabled() && policy.interval_ticks != 0) {
    next_ckpt = (now / policy.interval_ticks + 1) * policy.interval_ticks;
  }

  while (!finished && now < total) {
    if (policy.enabled()) {
      const bool stop_now = (policy.stop != nullptr && *policy.stop != 0) ||
                            (policy.stop_at_tick != 0 && now >= policy.stop_at_tick);
      if (stop_now) {
        if (policy.save_on_stop) save_snapshot();
        throw ckpt::CheckpointStop(policy.path);
      }
      if (now >= next_ckpt) {
        save_snapshot();
        next_ckpt = (now / policy.interval_ticks + 1) * policy.interval_ticks;
      }
    }
    if (!measuring && now >= cfg.warmup_ticks) {
      measuring = true;
      measure_start = now;
      mcu.reset_stats();
      offered = accepted = 0;
    }
    carry += cfg.inject_per_tick;
    while (carry >= 1.0) {
      carry -= 1.0;
      ++offered;
      const auto core = static_cast<CoreId>(rng.below(cfg.cores));
      if (run_left[core] == 0) {
        cursor[core] = rng.below(cfg.footprint_lines);
        run_left[core] = 1 + util::geometric_run(
                                 rng, 1.0 - 1.0 / cfg.seq_run_lines, 256);
      }
      --run_left[core];
      const Addr addr =
          (static_cast<Addr>(core) * cfg.footprint_lines + cursor[core]) * kLineBytes;
      cursor[core] = (cursor[core] + 1) % cfg.footprint_lines;
      const bool ok = rng.chance(cfg.write_share) ? mcu.enqueue_write(core, addr, now)
                                                  : mcu.enqueue_read(core, addr, now);
      accepted += ok;
    }
    mcu.tick(now);
    if ((now & kWatchdogPollMask) == 0 &&
        watchdog.poll(now, mcu.served_total(), !mcu.idle())) {
      watchdog.raise("open-loop run", mcu, scheduler, now);
    }
    if (cfg.engine == Engine::kSkip) {
      // Fast-forward over ticks where the controller provably does nothing
      // and no injection fires. The accumulator still advances one add per
      // skipped tick (same float op sequence as unit stepping), and the loop
      // stops just before the add that would cross 1.0, at the warmup
      // boundary, at the next poll boundary, and at the controller's next
      // event — so visited ticks and RNG draws match the cycle oracle.
      if (carry + cfg.inject_per_tick < 1.0) {
        Tick limit = std::min(mcu.next_activity_tick(now), total);
        if (!measuring) limit = std::min(limit, cfg.warmup_ticks);
        if (watchdog.enabled()) limit = std::min(limit, (now | kWatchdogPollMask) + 1);
        while (now + 1 < limit && carry + cfg.inject_per_tick < 1.0) {
          carry += cfg.inject_per_tick;
          ++now;
        }
      }
    }
    ++now;
  }

  if (!finished && policy.enabled()) {
    finished = true;
    save_snapshot();
  }

  if (auditor) auditor->finalize(total);

  OpenLoopResult r;
  const double mt = static_cast<double>(cfg.measure_ticks);
  r.offered_per_tick = static_cast<double>(offered) / mt;
  r.accepted_per_tick = static_cast<double>(accepted) / mt;
  r.rejected_share =
      offered ? 1.0 - static_cast<double>(accepted) / static_cast<double>(offered) : 0.0;
  const auto& st = mcu.stats();
  const double ratio = cfg.controller.cpu_ratio;
  r.avg_read_latency_ticks = st.read_latency_cpu.mean() / ratio;
  r.p50_ticks = st.read_latency_hist.quantile(0.5) / ratio;
  r.p90_ticks = st.read_latency_hist.quantile(0.9) / ratio;
  r.p99_ticks = st.read_latency_hist.quantile(0.99) / ratio;
  r.row_hit_rate = st.row_hit_rate();
  const Tick elapsed = total - measure_start;
  // Utilization counts since construction; subtract nothing — warmup skew is
  // negligible at these lengths, and the value is informational.
  r.data_bus_utilization = dram.data_bus_utilization(total) *
                           static_cast<double>(total) / static_cast<double>(elapsed);
  return r;
}

}  // namespace memsched::sim
