#include "tracing.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "cache/hierarchy.hpp"
#include "cpu/core_model.hpp"
#include "dram/dram_system.hpp"
#include "mc/controller.hpp"
#include "sim/json_report.hpp"
#include "sim/watchdog.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"
#include "util/wallclock.hpp"

namespace perfbench {

namespace sim = memsched::sim;
namespace util = memsched::util;
namespace trace = memsched::trace;
namespace sched = memsched::sched;
using memsched::CoreId;
using memsched::CpuCycle;
using memsched::kLineBytes;
using memsched::kNeverTick;

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSim: return "sim";
    case Layer::kCache: return "cache";
    case Layer::kMc: return "mc";
    case Layer::kCpu: return "cpu";
    case Layer::kTrace: return "trace";
    case Layer::kSched: return "sched";
  }
  return "?";
}

Tracer::Tracer(double clock_read_ns) : clock_read_ns_(clock_read_ns) {
  stack_.reserve(8);
  spans_.reserve(kMaxKeptSpans);
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             util::monotonic_now().time_since_epoch())
      .count();
}

void Tracer::begin(Layer layer) { stack_.push_back({layer, next_id_++, now_ns(), 0.0}); }

void Tracer::end() {
  const std::int64_t t = now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const double d = static_cast<double>(t - o.start_ns);
  self_ns_[static_cast<std::size_t>(o.layer)] += d - o.child_ns;
  std::uint64_t parent = 0;
  if (!stack_.empty()) {
    stack_.back().child_ns += d;
    parent = stack_.back().id;
  } else {
    ++top_level_spans_;
  }
  keep({o.id, parent, o.layer, o.start_ns, t, 1});
}

void Tracer::book_sample(Layer layer, std::int64_t start_ns) {
  const std::int64_t t = now_ns();
  const std::uint32_t stride = stride_of(layer);
  const double est =
      std::max(static_cast<double>(t - start_ns) - clock_read_ns_, 0.0) * stride;
  const double probe = 2.0 * clock_read_ns_;
  self_ns_[static_cast<std::size_t>(layer)] += est;
  probe_ns_ += probe;
  std::uint64_t parent = 0;
  if (!stack_.empty()) {
    stack_.back().child_ns += est + probe;
    parent = stack_.back().id;
  }
  keep({next_id_++, parent, layer, start_ns, t, stride});
}

double calibrate_clock_read_ns() {
  constexpr int kReads = 5000;
  std::vector<double> per_read;
  for (int b = 0; b < 21; ++b) {
    const std::int64_t t0 = Tracer::now_ns();
    std::int64_t last = t0;
    for (int i = 0; i < kReads; ++i) last = Tracer::now_ns();
    per_read.push_back(static_cast<double>(last - t0) / kReads);
  }
  return median(per_read);
}

double calibrate_span_cost_ns(double clock_read_ns) {
  constexpr int kSpans = 20'000;
  Tracer tr(clock_read_ns);
  // Fill the kept-span buffer first: a real run closes far more spans than
  // it keeps.
  for (std::size_t i = 0; i < Tracer::kMaxKeptSpans; ++i) {
    tr.begin(Layer::kCache);
    tr.end();
  }
  std::vector<double> per_span;
  for (int b = 0; b < 7; ++b) {
    const double inside_before = tr.self_s(Layer::kCache);
    const std::int64_t t0 = Tracer::now_ns();
    for (int i = 0; i < kSpans; ++i) {
      tr.begin(Layer::kCache);
      tr.end();
    }
    const double wall_ns = static_cast<double>(Tracer::now_ns() - t0);
    const double inside_ns = (tr.self_s(Layer::kCache) - inside_before) * 1e9;
    per_span.push_back((wall_ns - inside_ns) / kSpans);
  }
  return median(per_span);
}

namespace {

/// Times one call in the layer's stride; see Tracer.
template <typename F>
auto probe(Tracer& tr, Layer layer, F&& f) {
  if (!tr.sample_now(layer)) return f();
  const std::int64_t t0 = Tracer::now_ns();
  if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
    f();
    tr.book_sample(layer, t0);
  } else {
    auto r = f();
    tr.book_sample(layer, t0);
    return r;
  }
}

class TimedStream final : public trace::InstStream {
 public:
  TimedStream(trace::InstStream& inner, Tracer& tr) : inner_(inner), tr_(tr) {}

  // next_ref keeps the base class's loop over next(), so every instruction
  // passes through here.
  trace::InstRecord next() override {
    return probe(tr_, Layer::kTrace, [&] { return inner_.next(); });
  }
  void reset(std::uint64_t seed) override { inner_.reset(seed); }
  [[nodiscard]] std::uint64_t code_bytes() const override { return inner_.code_bytes(); }
  [[nodiscard]] memsched::Addr code_base() const override { return inner_.code_base(); }

 private:
  trace::InstStream& inner_;
  Tracer& tr_;
};

class TimedScheduler final : public sched::Scheduler {
 public:
  TimedScheduler(sched::Scheduler& inner, Tracer& tr) : inner_(inner), tr_(tr) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void prepare(const sched::QueueSnapshot& snap) override {
    probe(tr_, Layer::kSched, [&] { inner_.prepare(snap); });
  }
  [[nodiscard]] double core_priority(CoreId core) const override {
    return probe(tr_, Layer::kSched, [&] { return inner_.core_priority(core); });
  }
  [[nodiscard]] bool hit_first_above_core() const override {
    return inner_.hit_first_above_core();
  }
  [[nodiscard]] bool use_hit_first() const override { return inner_.use_hit_first(); }
  [[nodiscard]] bool use_read_first() const override { return inner_.use_read_first(); }
  [[nodiscard]] std::uint32_t sched_window() const override { return inner_.sched_window(); }
  [[nodiscard]] bool random_core_tie_break() const override {
    return inner_.random_core_tie_break();
  }
  void on_served(const memsched::mc::Request& req) override {
    probe(tr_, Layer::kSched, [&] { inner_.on_served(req); });
  }
  void on_epoch(CoreId core, double committed_insts, double dram_bytes) override {
    probe(tr_, Layer::kSched, [&] { inner_.on_epoch(core, committed_insts, dram_bytes); });
  }
  [[nodiscard]] Tick epoch_ticks() const override { return inner_.epoch_ticks(); }
  void on_epoch(Tick boundary, const sched::QueueSnapshot& snap) override {
    probe(tr_, Layer::kSched, [&] { inner_.on_epoch(boundary, snap); });
  }
  void reset() override { inner_.reset(); }

 private:
  sched::Scheduler& inner_;
  Tracer& tr_;
};

void add_dram_counts(const memsched::dram::DramSystem& dram, LayerCounts& k) {
  for (std::uint32_t ch = 0; ch < dram.channel_count(); ++ch) {
    const auto& channel = dram.channel(ch);
    k.dram_commands += static_cast<double>(channel.command_count());
    k.dram_bursts += static_cast<double>(channel.bursts());
    for (std::uint32_t b = 0; b < channel.bank_count(); ++b)
      k.dram_activates += static_cast<double>(channel.bank(b).activate_count());
  }
}

void add_controller_window(const memsched::mc::ControllerStats& cs, LayerCounts& k) {
  k.sched_rounds += static_cast<double>(cs.sched_rounds);
  k.reads_served += static_cast<double>(cs.reads_served);
  k.writes_served += static_cast<double>(cs.writes_served);
  k.row_hits += static_cast<double>(cs.row_hits);
  k.row_accesses += static_cast<double>(cs.row_hits + cs.row_closed + cs.row_conflicts);
  k.drain_entries += static_cast<double>(cs.drain_entries);
}

void add_core_window(const memsched::cpu::CoreRunStats& st, LayerCounts& k) {
  k.cpu_stall_mshr += static_cast<double>(st.stall_mshr);
  k.cpu_stall_backpressure += static_cast<double>(st.stall_backpressure);
  k.cpu_stall_rob += static_cast<double>(st.stall_rob);
}

void add_l2_window(const memsched::cache::CacheHierarchy& hier, LayerCounts& k) {
  const auto& l2 = hier.l2().stats();
  k.l2_accesses += static_cast<double>(l2.hits + l2.misses);
  k.l2_misses += static_cast<double>(l2.misses);
}

// A copy of MultiCoreSystem's constructor and of the skip engine's loop in
// MultiCoreSystem::run (checkpointing, the auditor and fault injection are
// off in the benchmark, so their branches are left out). The traced run is
// accepted only if it reproduces the untraced run's fidelity_text.
void traced_closed(const WorkloadSpec& w, std::uint64_t seed, Tracer& tr, TracedRun& out) {
  namespace cpu = memsched::cpu;
  const sim::Workload mix = mix_of(w);
  const auto apps = mix.apps();
  const sim::SystemConfig cfg = closed_config(w, sim::Engine::kSkip);
  const std::uint32_t n = cfg.cores;
  const auto inner_sched = make_scheduler(w);
  TimedScheduler scheduler(*inner_sched, tr);

  util::Xoshiro256 seeder(seed);
  std::vector<std::unique_ptr<trace::InstStream>> raw;
  std::vector<std::unique_ptr<TimedStream>> streams;
  for (std::uint32_t c = 0; c < n; ++c) {
    const memsched::Addr base = static_cast<memsched::Addr>(c) * cfg.region_bytes_per_core;
    raw.push_back(
        std::make_unique<trace::SyntheticStream>(apps[c], base, seeder.fork(c).next()));
    streams.push_back(std::make_unique<TimedStream>(*raw.back(), tr));
  }
  memsched::dram::DramSystem dram(cfg.timing, cfg.org, cfg.interleave, cfg.bank_xor);
  memsched::mc::MemoryController mcu(dram, scheduler, cfg.controller, n, seed ^ 0xc011ec70ULL);
  memsched::cache::CacheHierarchy hier(cfg.hierarchy, n, mcu);
  std::vector<std::unique_ptr<cpu::CoreModel>> cores;
  for (std::uint32_t c = 0; c < n; ++c) {
    cores.push_back(
        std::make_unique<cpu::CoreModel>(c, cfg.core, apps[c].ilp_ipc, *streams[c], hier));
  }
  hier.set_fill_callback([&](std::uint64_t token, CpuCycle done_cpu) {
    tr.begin(Layer::kCpu);
    cores[cpu::CoreModel::token_core(token)]->on_fill(token, done_cpu);
    tr.end();
  });
  std::vector<memsched::cache::WarmSpec> specs;
  for (std::uint32_t c = 0; c < n; ++c) {
    const trace::AppProfile& app = apps[c];
    const memsched::Addr base = static_cast<memsched::Addr>(c) * cfg.region_bytes_per_core;
    memsched::cache::WarmSpec ws;
    ws.footprint_base = base;
    ws.footprint_bytes = app.footprint_bytes;
    ws.dirty_share = app.dirty_fresh_share;
    ws.hot_base = base + app.footprint_bytes;
    ws.hot_bytes = app.hot_bytes;
    ws.hot_dirty_share = app.store_share;
    ws.code_base = ws.hot_base + app.hot_bytes;
    ws.code_bytes = app.code_bytes;
    specs.push_back(ws);
  }
  hier.warm(specs, seed);

  LayerCounts& k = out.counts;
  const Tick max_ticks = ~Tick{0} >> 1;
  std::vector<std::uint64_t> goal(n, 0);
  std::vector<CpuCycle> finish_cycle(n, 0);
  std::vector<bool> done(n, false);
  std::uint32_t done_count = 0;
  std::vector<std::uint64_t> epoch_insts(n, 0);
  std::vector<std::uint64_t> epoch_bytes(n, 0);
  Tick next_epoch = cfg.epoch_ticks;
  bool measuring = w.warmup_insts == 0;
  for (std::uint32_t c = 0; c < n; ++c)
    goal[c] = cores[c]->committed() + (measuring ? w.target_insts : w.warmup_insts);
  constexpr Tick kWatchdogPollMask = 1023;
  std::vector<sim::ProgressWatchdog> watchdogs(n,
                                               sim::ProgressWatchdog(cfg.progress_window_ticks));
  Tick t = 0;
  Tick visited = 0;

  // The loop's own bookkeeping is a sim span of its own; what no span
  // covers is the tracer's cost and a few counter updates.
  const std::int64_t w0 = Tracer::now_ns();
  while (t < max_ticks) {
    ++visited;
    tr.begin(Layer::kCache);
    hier.tick(t);
    tr.end();
    tr.begin(Layer::kMc);
    mcu.tick(t);
    tr.end();
    const CpuCycle window_end = (t + 1) * cfg.cpu_ratio;
    for (std::uint32_t c = 0; c < n; ++c) {
      tr.begin(Layer::kCpu);
      cores[c]->step_to(window_end);
      tr.end();
      ++k.cpu_step_calls;
      if (!done[c] && cores[c]->committed() >= goal[c]) {
        done[c] = true;
        finish_cycle[c] = cores[c]->cycle();
        ++done_count;
      }
    }
    tr.begin(Layer::kSim);
    if ((t & kWatchdogPollMask) == 0 && watchdogs[0].enabled()) {
      for (std::uint32_t c = 0; c < n; ++c) {
        if (watchdogs[c].poll(t, cores[c]->committed(), !done[c]))
          throw std::runtime_error("traced run: core " + std::to_string(c) + " stalled");
      }
    }
    if (t >= next_epoch) {
      next_epoch += cfg.epoch_ticks;
      const auto& cs = mcu.stats();
      for (std::uint32_t c = 0; c < n; ++c) {
        const std::uint64_t insts = cores[c]->committed();
        const std::uint64_t bytes = (cs.core_reads[c] + cs.core_writes[c]) * kLineBytes;
        scheduler.on_epoch(c, static_cast<double>(insts - epoch_insts[c]),
                           static_cast<double>(bytes - epoch_bytes[c]));
        epoch_insts[c] = insts;
        epoch_bytes[c] = bytes;
      }
    }
    if (done_count == n) {
      if (measuring) {
        ++t;
        tr.end();
        break;
      }
      // begin_measurement: bank the warmup's counts before the reset.
      add_controller_window(mcu.stats(), k);
      add_l2_window(hier, k);
      for (const auto& core : cores) add_core_window(core->stats(), k);
      measuring = true;
      mcu.reset_stats();
      hier.reset_stats();
      for (std::uint32_t c = 0; c < n; ++c) {
        cores[c]->reset_stats();
        goal[c] = cores[c]->committed() + w.target_insts;
        done[c] = false;
      }
      done_count = 0;
      for (std::uint32_t c = 0; c < n; ++c) {
        epoch_insts[c] = cores[c]->committed();
        epoch_bytes[c] = 0;
      }
    }
    Tick jump = kNeverTick;
    for (std::uint32_t c = 0; c < n; ++c) {
      const CpuCycle wake = cores[c]->next_activity_cycle();
      if (wake != cpu::CoreModel::kIdle)
        jump = std::min(jump, std::max(wake / cfg.cpu_ratio, t + 1));
    }
    if (jump > t + 1) jump = std::min(jump, hier.next_activity_tick(t));
    if (jump > t + 1) jump = std::min(jump, mcu.next_activity_tick(t));
    jump = std::min(jump, next_epoch);
    if (watchdogs[0].enabled()) jump = std::min(jump, (t | kWatchdogPollMask) + 1);
    t = std::min(std::max(jump, t + 1), max_ticks);
    tr.end();
  }
  out.wall_s = static_cast<double>(Tracer::now_ns() - w0) * 1e-9;

  sim::RunResult r;
  r.ticks = t;
  r.visited_ticks = visited;
  r.controller_stats = mcu.stats();
  r.cores.resize(n);
  for (std::uint32_t c = 0; c < n; ++c) {
    r.cores[c].committed = cores[c]->committed();
    r.cores[c].finish_cycle = done[c] && measuring ? finish_cycle[c] : cores[c]->cycle();
  }
  out.fidelity = fidelity_text(r);

  add_controller_window(mcu.stats(), k);
  add_l2_window(hier, k);
  for (const auto& core : cores) {
    add_core_window(core->stats(), k);
    k.cpu_committed += static_cast<double>(core->committed());
  }
  k.trace_calls = static_cast<double>(tr.calls(Layer::kTrace));
  k.trace_insts = k.trace_calls;  // one instruction per next()
  k.mshr_allocations = static_cast<double>(hier.l2_mshr().allocations());
  k.mshr_merges = static_cast<double>(hier.l2_mshr().merges());
  add_dram_counts(dram, k);
  k.dram_bus_utilization = dram.data_bus_utilization(t);
  k.ticks = static_cast<double>(t);
  k.visited_ticks = static_cast<double>(visited);
}

// A copy of run_open_loop's skip-engine loop (checkpointing, the auditor and
// fault injection off), one load after another. Each visited tick is one sim
// span with controller.tick inside; the injector is the loop's own code.
void traced_open(const WorkloadSpec& w, std::uint64_t seed, Tracer& tr, TracedRun& out) {
  LayerCounts& k = out.counts;
  std::vector<sim::OpenLoopResult> results;
  double busy_ticks = 0.0;
  for (const OpenLoad& load : w.loads) {
    const sim::OpenLoopConfig cfg = open_config(load, seed);
    const auto inner_sched = make_scheduler(w);
    TimedScheduler scheduler(*inner_sched, tr);
    memsched::dram::DramSystem dram(cfg.timing, cfg.org, cfg.interleave);
    scheduler.reset();
    memsched::mc::MemoryController mcu(dram, scheduler, cfg.controller, cfg.cores, cfg.seed);
    sim::ProgressWatchdog watchdog(cfg.progress_window_ticks);
    util::Xoshiro256 rng(cfg.seed ^ 0x0be9100bULL);
    std::vector<std::uint64_t> cursor(cfg.cores);
    std::vector<std::uint32_t> run_left(cfg.cores, 0);
    for (auto& c : cursor) c = rng.below(cfg.footprint_lines);

    std::uint64_t offered = 0, accepted = 0;
    double carry = 0.0;
    bool measuring = false;
    Tick measure_start = 0;
    const Tick total = cfg.warmup_ticks + cfg.measure_ticks;
    Tick now = 0;
    Tick visited = 0;

    const std::int64_t w0 = Tracer::now_ns();
    while (now < total) {
      ++visited;
      tr.begin(Layer::kSim);
      if (!measuring && now >= cfg.warmup_ticks) {
        measuring = true;
        measure_start = now;
        add_controller_window(mcu.stats(), k);
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
          run_left[core] =
              1 + util::geometric_run(rng, 1.0 - 1.0 / cfg.seq_run_lines, 256);
        }
        --run_left[core];
        const memsched::Addr addr =
            (static_cast<memsched::Addr>(core) * cfg.footprint_lines + cursor[core]) *
            kLineBytes;
        cursor[core] = (cursor[core] + 1) % cfg.footprint_lines;
        const bool ok = rng.chance(cfg.write_share) ? mcu.enqueue_write(core, addr, now)
                                                    : mcu.enqueue_read(core, addr, now);
        accepted += ok;
      }
      tr.begin(Layer::kMc);
      mcu.tick(now);
      tr.end();
      if ((now & 1023) == 0 && watchdog.poll(now, mcu.served_total(), !mcu.idle()))
        throw std::runtime_error("traced open loop: no request retired");
      if (carry + cfg.inject_per_tick < 1.0) {
        Tick limit = std::min(mcu.next_activity_tick(now), total);
        if (!measuring) limit = std::min(limit, cfg.warmup_ticks);
        if (watchdog.enabled()) limit = std::min(limit, (now | 1023) + 1);
        while (now + 1 < limit && carry + cfg.inject_per_tick < 1.0) {
          carry += cfg.inject_per_tick;
          ++now;
        }
      }
      ++now;
      tr.end();
    }
    out.wall_s += static_cast<double>(Tracer::now_ns() - w0) * 1e-9;

    sim::OpenLoopResult r;
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
    r.data_bus_utilization = dram.data_bus_utilization(total) * static_cast<double>(total) /
                             static_cast<double>(elapsed);
    results.push_back(r);

    add_controller_window(st, k);
    add_dram_counts(dram, k);
    busy_ticks += dram.data_bus_utilization(total) * static_cast<double>(total);
    k.ticks += static_cast<double>(total);
    k.visited_ticks += static_cast<double>(visited);
  }
  k.dram_bus_utilization = busy_ticks / k.ticks;
  out.fidelity = open_result_text(w.loads, results);
}

// The sampled engine's windows, drains and fast-forward have no outside
// seam: MultiCoreSystem::run is one sim span, and only the scheduler is
// timed inside it. The counts the library resets per interval (controller,
// core stalls, L2) cover the final measured interval.
void traced_sampled(const WorkloadSpec& w, std::uint64_t seed, Tracer& tr, TracedRun& out) {
  const sim::Workload mix = mix_of(w);
  const auto inner_sched = make_scheduler(w);
  TimedScheduler scheduler(*inner_sched, tr);
  sim::MultiCoreSystem sys(closed_config(w, sim::Engine::kSampled), mix.apps(), scheduler,
                           seed);
  const std::int64_t w0 = Tracer::now_ns();
  tr.begin(Layer::kSim);
  const sim::RunResult r = sys.run(w.target_insts, w.warmup_insts);
  tr.end();
  out.wall_s = static_cast<double>(Tracer::now_ns() - w0) * 1e-9;
  out.fidelity = sim::to_json(r).dump(-1);

  LayerCounts& k = out.counts;
  add_controller_window(sys.controller().stats(), k);
  add_l2_window(sys.hierarchy(), k);
  for (std::uint32_t c = 0; c < mix.cores(); ++c) {
    add_core_window(sys.core(c).stats(), k);
    k.cpu_committed += static_cast<double>(sys.core(c).committed());
  }
  k.trace_insts = k.cpu_committed;
  k.mshr_allocations = static_cast<double>(sys.hierarchy().l2_mshr().allocations());
  k.mshr_merges = static_cast<double>(sys.hierarchy().l2_mshr().merges());
  add_dram_counts(sys.dram(), k);
  k.dram_bus_utilization = sys.dram().data_bus_utilization(r.ticks);
  k.ticks = static_cast<double>(r.ticks);
  k.visited_ticks = static_cast<double>(r.visited_ticks);
}

}  // namespace

TracedRun run_traced(const WorkloadSpec& w, std::uint64_t seed, std::uint32_t run_id,
                     double clock_read_ns) {
  Tracer tr(clock_read_ns);
  TracedRun out;
  switch (w.kind) {
    case Kind::kClosed: traced_closed(w, seed, tr, out); break;
    case Kind::kOpenLoop: traced_open(w, seed, tr, out); break;
    case Kind::kSampled: traced_sampled(w, seed, tr, out); break;
  }
  for (std::size_t l = 0; l < kLayerCount; ++l) out.self_s[l] = tr.self_s(static_cast<Layer>(l));
  out.probe_overhead_s = tr.probe_overhead_s();
  out.top_level_spans = tr.top_level_spans();
  out.span_cost_ns = calibrate_span_cost_ns(clock_read_ns);
  out.counts.sched_calls = static_cast<double>(tr.calls(Layer::kSched));
  out.spans = tr.spans();
  out.run_id = run_id;
  return out;
}

std::string fidelity_of(const WorkloadSpec& w, const LibraryRun& run) {
  return w.kind == Kind::kClosed ? fidelity_text(run.result) : run.result_text;
}

}  // namespace perfbench
