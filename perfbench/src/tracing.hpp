// The traced run: spans around the calls into each layer, recorded from the
// benchmark's own files. Nothing under src/ is hooked. For the exact
// workloads the benchmark builds the components itself and drives them in a
// copy of the simulator's loop; the two virtual seams, InstStream and
// Scheduler, are wrapped in timing decorators.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

enum class Layer : std::uint8_t { kSim, kCache, kMc, kCpu, kTrace, kSched };
inline constexpr std::size_t kLayerCount = 6;
[[nodiscard]] const char* layer_name(Layer layer);

/// One closed span. `stride` > 1 marks a sampled call standing for `stride`
/// calls (its booked time is the scaled estimate, not end - start).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for the root
  Layer layer = Layer::kSim;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t stride = 1;
};

/// Keeps an open-span stack and per-layer self time. A layer's self time is
/// its spans' duration minus the part their child spans cover.
///
/// Calls too frequent to time one by one (InstStream::next runs millions of
/// times a run; a clock read around each nearly doubles the run) are sampled: one
/// call in `stride` is timed, and its duration less one clock read, times
/// `stride`, is booked as that layer's time and taken out of the caller's
/// self time along with the probe's own two clock reads.
class Tracer {
 public:
  explicit Tracer(double clock_read_ns);

  void begin(Layer layer);
  void end();

  /// Counts a call on a sampled layer; true when this call is to be timed.
  bool sample_now(Layer layer) {
    return ++calls_[static_cast<std::size_t>(layer)] % stride_of(layer) == 0;
  }
  /// Books a sampled call that started at `start_ns`.
  void book_sample(Layer layer, std::int64_t start_ns);

  [[nodiscard]] static std::int64_t now_ns();

  [[nodiscard]] double self_s(Layer layer) const {
    return self_ns_[static_cast<std::size_t>(layer)] * 1e-9;
  }
  [[nodiscard]] std::uint64_t calls(Layer layer) const {
    return calls_[static_cast<std::size_t>(layer)];
  }
  /// begin/end spans closed with no span open around them.
  [[nodiscard]] std::uint64_t top_level_spans() const { return top_level_spans_; }
  /// Time of the sampled probes' clock reads, booked to no layer.
  [[nodiscard]] double probe_overhead_s() const { return probe_ns_ * 1e-9; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Spans kept per run for the span file; the totals cover every span.
  static constexpr std::size_t kMaxKeptSpans = 20'000;

 private:
  struct Open {
    Layer layer;
    std::uint64_t id;
    std::int64_t start_ns;
    double child_ns;
  };

  static std::uint32_t stride_of(Layer layer) {
    return layer == Layer::kTrace ? 61 : layer == Layer::kSched ? 13 : 1;
  }
  void keep(const Span& s) {
    if (spans_.size() < kMaxKeptSpans) spans_.push_back(s);
  }

  double clock_read_ns_;
  std::uint64_t next_id_ = 1;
  std::vector<Open> stack_;
  std::array<double, kLayerCount> self_ns_{};
  std::array<std::uint64_t, kLayerCount> calls_{};
  std::uint64_t top_level_spans_ = 0;
  double probe_ns_ = 0.0;
  std::vector<Span> spans_;
};

/// Cost of one steady_clock read on this host, in ns (median of batches).
[[nodiscard]] double calibrate_clock_read_ns();

/// Host time a begin/end pair spends outside the span it records, in ns
/// (median of batches of empty spans). For a top-level span no span covers
/// this time, so it is what the traced wall time holds beyond the layers'
/// self times; a nested span's share lands in its parent's self time.
[[nodiscard]] double calibrate_span_cost_ns(double clock_read_ns);

/// Deterministic work counts of one run, read from the layers' public
/// accessors. Counts the simulator resets at the measurement start are
/// summed over warmup and measurement where the benchmark drives the loop.
struct LayerCounts {
  double trace_insts = 0, trace_calls = 0;
  double cpu_committed = 0, cpu_step_calls = 0;
  double cpu_stall_mshr = 0, cpu_stall_backpressure = 0, cpu_stall_rob = 0;
  double l2_accesses = 0, l2_misses = 0, mshr_allocations = 0, mshr_merges = 0;
  double sched_rounds = 0, reads_served = 0, writes_served = 0;
  double row_hits = 0, row_accesses = 0, drain_entries = 0;
  double sched_calls = 0;
  double dram_commands = 0, dram_bursts = 0, dram_activates = 0, dram_bus_utilization = 0;
  double ticks = 0, visited_ticks = 0;
};

struct TracedRun {
  double wall_s = 0.0;  ///< outer clock around the traced loop
  std::array<double, kLayerCount> self_s{};
  double probe_overhead_s = 0.0;
  std::uint64_t top_level_spans = 0;
  double span_cost_ns = 0.0;  ///< calibrated right after the run
  LayerCounts counts;
  /// Must equal fidelity_text / result_text of the untraced run.
  std::string fidelity;
  std::vector<Span> spans;
  std::uint32_t run_id = 0;
};

/// Runs `w` once under the tracer. For closed-mem4/closed-ilp4 and the open
/// loop the benchmark drives the components itself; for the sampled
/// workload it calls MultiCoreSystem::run with a decorated scheduler, so the
/// cores, caches, controller and trace layer are inside the sim span.
TracedRun run_traced(const WorkloadSpec& w, std::uint64_t seed, std::uint32_t run_id,
                     double clock_read_ns);

/// The text run_traced's `fidelity` is compared with, from the untraced run.
[[nodiscard]] std::string fidelity_of(const WorkloadSpec& w, const LibraryRun& run);

}  // namespace perfbench
