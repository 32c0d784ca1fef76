// memsched end-to-end benchmark: host speed, set-up time and memory of the
// simulator on four workloads (--trace 0), or the per-layer cost and work
// counts of a traced run next to an untraced one (--trace 1). Every run's
// simulated result is checked against a reference; see perfbench/README.md.
//
//   perfbench_memsched --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                      --expected-dir <dir> [--out-dir <dir>]
//   perfbench_memsched --regen [--workload <name>] --expected-dir <dir>
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "tracing.hpp"
#include "util/json.hpp"
#include "util/wallclock.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace sim = memsched::sim;
namespace util = memsched::util;

constexpr int kMinReps = 3;
/// How far the measured parts of a traced run may sum from its wall time.
/// The counter updates between spans are the only code no span covers; the
/// rest is noise in the span cost's calibration. Healthy runs read 0.98-1.02.
constexpr double kAccountingTolerance = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  bool regen = false;
  std::string expected_dir;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = std::stoi(value());
    else if (k == "--expected-dir") a.expected_dir = value();
    else if (k == "--out-dir") a.out_dir = value();
    else if (k == "--regen") a.regen = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.expected_dir.empty()) throw std::invalid_argument("--expected-dir is required");
  if (!a.regen && a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

/// Peak resident set of this program. ru_maxrss is only the fallback: it
/// survives exec, so it would also count the pages of the Python process
/// that started the benchmark.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- stored references ------------------------------------------------------

std::string expected_path(const std::string& dir, const WorkloadSpec& w) {
  return dir + "/" + w.name + ".json";
}

/// The exact-engine values sampled-mem8's estimates are scored against.
struct ExactValues {
  double total_ipc = 0, read_latency_cpu = 0, row_hit_rate = 0, bandwidth_gbs = 0;
};

ExactValues exact_values_of(const sim::RunResult& r) {
  return {r.total_ipc(), r.avg_read_latency_cpu, r.row_hit_rate, r.bandwidth_gbs};
}

/// What the stored file says for this seed: nothing (made for another
/// seed, or absent), a refusal (made for another configuration), or the
/// digest and, for the sampled workload, the exact values.
struct Stored {
  bool for_this_seed = false;
  std::string refused;  ///< non-empty: the file must not be used
  std::string digest;
  std::optional<ExactValues> exact;
};

Stored load_stored(const std::string& dir, const WorkloadSpec& w, std::uint64_t seed) {
  Stored s;
  std::ifstream in(expected_path(dir, w));
  if (!in) return s;
  std::stringstream text;
  text << in.rdbuf();
  const util::Json doc = util::Json::parse(text.str());
  if (doc.at("seed").as_uint() != seed) return s;
  s.for_this_seed = true;
  if (doc.at("config").as_string() != config_key(w)) {
    s.refused = expected_path(dir, w) +
                " was made for another workload configuration; rerun with --regen";
    return s;
  }
  s.digest = doc.at("digest").as_string();
  if (const util::Json* e = doc.find("exact")) {
    s.exact = ExactValues{e->at("total_ipc").as_number(), e->at("read_latency_cpu").as_number(),
                          e->at("row_hit_rate").as_number(), e->at("bandwidth_gbs").as_number()};
  }
  return s;
}

int regen(const Args& a) {
  std::vector<const WorkloadSpec*> todo;
  if (a.workload.empty()) {
    for (const WorkloadSpec& w : workloads()) todo.push_back(&w);
  } else {
    todo.push_back(&workload_by_name(a.workload));
  }
  std::filesystem::create_directories(a.expected_dir);
  for (const WorkloadSpec* wp : todo) {
    const WorkloadSpec& w = *wp;
    util::Json doc = util::Json::object();
    doc["workload"] = w.name;
    doc["seed"] = a.seed;
    doc["config"] = config_key(w);
    LibraryRun ref;
    if (w.kind == Kind::kSampled) {
      ref = run_library(w, a.seed, sim::Engine::kSampled);
      const ExactValues e = exact_values_of(run_library(w, a.seed, sim::Engine::kSkip).result);
      util::Json ej = util::Json::object();
      ej["total_ipc"] = e.total_ipc;
      ej["read_latency_cpu"] = e.read_latency_cpu;
      ej["row_hit_rate"] = e.row_hit_rate;
      ej["bandwidth_gbs"] = e.bandwidth_gbs;
      doc["exact"] = std::move(ej);
    } else {
      ref = run_library(w, a.seed, sim::Engine::kCycle);
      if (run_library(w, a.seed, sim::Engine::kSkip).result_text != ref.result_text) {
        std::fprintf(stderr, "regen: %s: the skip engine disagrees with the cycle engine\n",
                     w.name.c_str());
        return 1;
      }
    }
    doc["digest"] = digest_of(ref.result_text);
    doc["result"] = w.kind == Kind::kOpenLoop ? util::Json(ref.result_text)
                                              : util::Json::raw(ref.result_text);
    doc.write_file(expected_path(a.expected_dir, w));
    std::printf("wrote %s (digest %s)\n", expected_path(a.expected_dir, w).c_str(),
                digest_of(ref.result_text).c_str());
  }
  return 0;
}

// --- checks -----------------------------------------------------------------

/// Runs checked and runs failed, with the notes printed above the table.
struct Verdict {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> notes;
};

/// The digest every run must match: the stored one for the default seed;
/// otherwise one untimed cycle-engine run of the same inputs (exact
/// workloads), or the first run (the sampled engine is deterministic, so
/// every run of a seed must agree).
void check_digests(const WorkloadSpec& w, std::uint64_t seed, const Stored& stored,
                   const std::vector<std::string>& digests, Verdict& v) {
  v.attempted += static_cast<int>(digests.size());
  if (!stored.refused.empty()) {
    v.failed += static_cast<int>(digests.size());
    v.notes.push_back("refused: " + stored.refused);
    return;
  }
  std::string expected = stored.digest;
  std::string source = "stored digest";
  if (!stored.for_this_seed) {
    if (w.kind == Kind::kSampled) {
      expected = digests.front();
      source = "the first run (sampled engine, seed without a stored digest)";
    } else {
      expected = digest_of(run_library(w, seed, sim::Engine::kCycle).result_text);
      source = "an untimed engine=cycle run";
    }
  }
  int bad = 0;
  for (const std::string& d : digests) bad += d != expected;
  v.failed += bad;
  v.notes.push_back("digest " + expected + " from " + source + "; " + std::to_string(bad) +
                    " of " + std::to_string(digests.size()) + " runs differ");
}

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

void print_result(const std::vector<Metric>& metrics, const Verdict& v) {
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) throw std::runtime_error(m.name + " is not finite");
  }
  for (const std::string& n : v.notes) std::printf("# %s\n", n.c_str());
  for (const Metric& m : metrics) {
    std::printf("%-30s %16.6g %-9s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  util::Json doc = util::Json::object();
  doc["correct"] = v.failed == 0;
  doc["attempted"] = v.attempted;
  doc["failed"] = v.failed;
  util::Json ms = util::Json::object();
  for (const Metric& m : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);  // all digits, unlike Json's %.10g
    util::Json one = util::Json::object();
    one["value"] = util::Json::raw(buf);
    one["unit"] = m.unit;
    ms[m.name] = std::move(one);
  }
  doc["metrics"] = std::move(ms);
  std::printf("%s\n", doc.dump(-1).c_str());
}

// --- trace 0: end-to-end ----------------------------------------------------

// Host speed on a shared machine flips between a fast and a slow state
// within seconds and sometimes stays slow for tens of seconds, so the median
// rate of a 10 s run spreads ~25% from run to run. Each repetition is
// therefore bracketed by a fixed probe whose time tracks the host's current
// speed (correlation 0.65-0.8 with a repetition's time on the reference
// host), and rates and set-up times are scaled to the speed at which the
// probe takes kReferenceProbeS before the median is taken.
constexpr double kReferenceProbeS = 0.026;  // uncontended, 2.1 GHz reference host

/// Integer, branchy work on an L1-resident table, like the simulator's own
/// inner loops; returns its host time.
double host_probe_s() {
  static std::vector<std::uint32_t> table(1u << 13);
  const auto t0 = util::monotonic_now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 4'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& e = table[x & (table.size() - 1)];
    if (e & 1) acc += e;
    else e += static_cast<std::uint32_t>(x);
  }
  table[0] ^= static_cast<std::uint32_t>(acc);  // keeps the loop observable
  return seconds_since(t0);
}

int run_end_to_end(const Args& a, const WorkloadSpec& w) {
  std::vector<double> setup, mips, mticks, raw_mips;
  double sim_work = 0.0, sim_ticks = 0.0;
  std::vector<std::string> digests;
  const auto t0 = util::monotonic_now();
  double probe_before = host_probe_s();
  do {
    const LibraryRun r = run_library(w, a.seed, engine_of(w));
    const double probe_after = host_probe_s();
    // > 1 while the host runs slower than the reference speed.
    const double slowdown = 0.5 * (probe_before + probe_after) / kReferenceProbeS;
    probe_before = probe_after;
    setup.push_back(r.setup_s / slowdown);
    raw_mips.push_back(r.sim_work / r.run_s / 1e6);
    mips.push_back(raw_mips.back() * slowdown);
    mticks.push_back(r.ticks / r.run_s / 1e6 * slowdown);
    digests.push_back(digest_of(r.result_text));
    sim_work = r.sim_work;
    sim_ticks = r.ticks;
  } while (seconds_since(t0) < a.seconds || static_cast<int>(digests.size()) < kMinReps);
  const double rss = peak_rss_mb();

  Verdict v;
  check_digests(w, a.seed, load_stored(a.expected_dir, w, a.seed), digests, v);
  char host[320];
  std::snprintf(host, sizeof host,
                "%zu runs of %.6g work units and %.6g ticks; medians over runs at the "
                "reference host speed (unscaled median rate %.4g M/s)",
                digests.size(), sim_work, sim_ticks, median(raw_mips));
  v.notes.push_back(host);
  const std::string work_note =
      w.kind == Kind::kOpenLoop ? "simulated requests offered (no instruction stream)"
      : w.kind == Kind::kSampled ? "simulated instructions, fast-forwarded ones included"
                                 : "simulated instructions, warmup included";
  print_result({{"sim_mips", median(mips), "M/s", work_note},
                {"sim_mticks_per_s", median(mticks), "Mticks/s",
                 w.kind == Kind::kSampled ? "detailed ticks only" : ""},
                {"setup_s", median(setup), "s",
                 w.kind == Kind::kOpenLoop ? "DRAM + controller construction" : ""},
                {"peak_rss_mb", rss, "MB", ""}},
               v);
  return 0;
}

// --- trace 1: per layer -----------------------------------------------------

void write_spans(const Args& a, const WorkloadSpec& w, const std::vector<TracedRun>& runs) {
  std::filesystem::create_directories(a.out_dir);
  const std::string path =
      a.out_dir + "/spans-" + w.name + "-seed" + std::to_string(a.seed) + ".jsonl";
  std::ofstream out(path);
  for (const TracedRun& r : runs) {
    for (const Span& s : r.spans) {
      out << "{\"run\":" << r.run_id << ",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"name\":\"" << layer_name(s.layer) << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"stride\":" << s.stride << "}\n";
    }
  }
}

/// Per-metric labels: which caller's span a layer without an outside seam
/// is folded into, and which layers a workload does not have.
std::string note_for(const WorkloadSpec& w, const std::string& metric) {
  const auto starts = [&](const char* p) { return metric.rfind(p, 0) == 0; };
  if (w.kind == Kind::kOpenLoop && (starts("trace.") || starts("cpu.") || starts("cache.")))
    return "absent: no cores or caches in the open loop";
  if (starts("sampled_") && w.kind != Kind::kSampled) return "absent: sampled-mem8 only";
  if (w.kind == Kind::kSampled) {
    if (metric == "trace.calls" || metric == "trace.self_s" || metric == "trace.ns_per_inst" ||
        metric == "cpu.step_calls" || metric == "cpu.self_s" ||
        metric == "cache.tick_self_s" || metric == "mc.self_s" || metric == "mc.ns_per_round")
      return "folded into sim.driver_self_s (run_sampled)";
    if (metric == "sim.driver_self_s")
      return "run_sampled: cores, caches, controller, DRAM and trace layer inside";
    if (starts("cpu.stall") || starts("cache.l2") || starts("mc."))
      return "final measured interval only (reset per interval)";
  }
  if (metric == "mc.self_s") return "DRAM command engine inside controller.tick";
  if (metric == "cpu.self_s") return "hierarchy load/store/ifetch and on_fill inside";
  if (metric == "sim.driver_self_s")
    return w.kind == Kind::kOpenLoop ? "own spans; injector and skip bookkeeping inside"
                                     : "own spans; skip bookkeeping, epochs, watchdog inside";
  return "";
}

int run_per_layer(const Args& a, const WorkloadSpec& w) {
  const double clock_read_ns = calibrate_clock_read_ns();
  std::vector<double> untraced_s;
  std::vector<std::string> digests;
  std::vector<TracedRun> traced;
  LibraryRun last;
  Verdict v;
  int fidelity_failures = 0;
  const auto t0 = util::monotonic_now();
  do {
    last = run_library(w, a.seed, engine_of(w));
    untraced_s.push_back(last.run_s);
    digests.push_back(digest_of(last.result_text));
    traced.push_back(
        run_traced(w, a.seed, static_cast<std::uint32_t>(traced.size() + 1), clock_read_ns));
    ++v.attempted;
    if (traced.back().fidelity != fidelity_of(w, last)) ++fidelity_failures;
  } while (seconds_since(t0) < a.seconds);
  v.failed += fidelity_failures;
  const Stored stored = load_stored(a.expected_dir, w, a.seed);
  check_digests(w, a.seed, stored, digests, v);
  write_spans(a, w, traced);

  std::vector<const TracedRun*> by_wall;
  for (const TracedRun& r : traced) by_wall.push_back(&r);
  std::sort(by_wall.begin(), by_wall.end(),
            [](const TracedRun* x, const TracedRun* y) { return x->wall_s < y->wall_s; });
  const TracedRun& tr = *by_wall[by_wall.size() / 2];
  std::vector<double> traced_walls;
  for (const TracedRun& r : traced) traced_walls.push_back(r.wall_s);

  // Every layer, the simulation loop's bookkeeping included, is timed by its
  // own spans. Their self times, the sampled probes' clock reads and the
  // calibrated cost of the top-level spans themselves must add up to the
  // traced wall time, with no layer booked below zero. Code outside every
  // span shows up in the sum. A sampled layer's estimate is taken out of its
  // caller's self time, so it cannot move the sum; extrapolated past its
  // caller's time, it shows up as a negative layer.
  const double span_cost_s =
      static_cast<double>(tr.top_level_spans) * tr.span_cost_ns * 1e-9;
  double accounted = tr.probe_overhead_s + span_cost_s;
  bool negative = false;
  for (const double s : tr.self_s) {
    accounted += s;
    negative = negative || s < 0.0;
  }
  const double accounted_share = accounted / tr.wall_s;
  if (negative || std::fabs(accounted_share - 1.0) > kAccountingTolerance) {
    ++v.attempted;
    ++v.failed;
    v.notes.push_back("layer self times do not add up to the traced wall time");
  }

  // sampled-mem8: score the estimates against the exact engine's values.
  std::optional<ExactValues> exact;
  if (w.kind == Kind::kSampled) {
    if (!stored.refused.empty()) {
      v.notes.push_back("sampled_* withheld: " + stored.refused);
    } else if (stored.exact) {
      exact = stored.exact;
      v.notes.push_back("sampled_* against the stored exact-engine reference");
    } else {
      exact = exact_values_of(run_library(w, a.seed, sim::Engine::kSkip).result);
      v.notes.push_back("sampled_* against an untimed exact-engine run (seed not stored)");
    }
  }
  double ipc_err = 0, lat_err = 0, ci_misses = 0;
  if (exact) {
    const sim::SamplingStats& s = last.result.sampling;
    const auto err = [](double est, double ref) { return std::fabs(est - ref) / ref * 100.0; };
    const auto miss = [](const sim::MetricEstimate& e, double ref) {
      return std::fabs(e.mean - ref) > e.ci95 ? 1.0 : 0.0;
    };
    ipc_err = err(s.total_ipc.mean, exact->total_ipc);
    lat_err = err(s.read_latency_cpu.mean, exact->read_latency_cpu);
    ci_misses = miss(s.total_ipc, exact->total_ipc) +
                miss(s.read_latency_cpu, exact->read_latency_cpu) +
                miss(s.row_hit_rate, exact->row_hit_rate) +
                miss(s.bandwidth_gbs, exact->bandwidth_gbs);
  }

  if (fidelity_failures > 0) {
    v.notes.push_back("layer numbers withheld: the traced run did not reproduce the "
                      "untraced run's simulated results");
    print_result({{"failed_share", static_cast<double>(v.failed) / v.attempted, "share", ""}},
                 v);
    return 0;
  }

  const LayerCounts& k = tr.counts;
  const auto self = [&](Layer l) { return tr.self_s[static_cast<std::size_t>(l)]; };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double untraced_median = median(untraced_s);
  std::vector<Metric> m = {
      {"trace.insts", k.trace_insts, "count", ""},
      {"trace.calls", k.trace_calls, "count", ""},
      {"trace.self_s", self(Layer::kTrace), "s", ""},
      {"trace.ns_per_inst", ratio(self(Layer::kTrace) * 1e9, k.trace_insts), "ns", ""},
      {"cpu.committed", k.cpu_committed, "count", ""},
      {"cpu.step_calls", k.cpu_step_calls, "count", ""},
      {"cpu.self_s", self(Layer::kCpu), "s", ""},
      {"cpu.stall_mshr", k.cpu_stall_mshr, "cycles", ""},
      {"cpu.stall_backpressure", k.cpu_stall_backpressure, "cycles", ""},
      {"cpu.stall_rob", k.cpu_stall_rob, "cycles", ""},
      {"cache.tick_self_s", self(Layer::kCache), "s", ""},
      {"cache.l2_accesses", k.l2_accesses, "count", ""},
      {"cache.l2_miss_rate", ratio(k.l2_misses, k.l2_accesses), "share", ""},
      {"cache.mshr_allocations", k.mshr_allocations, "count", ""},
      {"cache.mshr_merges", k.mshr_merges, "count", ""},
      {"mc.self_s", self(Layer::kMc), "s", ""},
      {"mc.ns_per_round", ratio(self(Layer::kMc) * 1e9, k.sched_rounds), "ns", ""},
      {"mc.sched_rounds", k.sched_rounds, "count", ""},
      {"mc.reads_served", k.reads_served, "count", ""},
      {"mc.writes_served", k.writes_served, "count", ""},
      {"mc.row_hit_rate", ratio(k.row_hits, k.row_accesses), "share", ""},
      {"mc.drain_entries", k.drain_entries, "count", ""},
      {"sched.calls", k.sched_calls, "count", ""},
      {"sched.calls_per_round", ratio(k.sched_calls, k.sched_rounds), "ratio", ""},
      {"sched.self_s", self(Layer::kSched), "s", ""},
      {"dram.commands", k.dram_commands, "count", ""},
      {"dram.bursts", k.dram_bursts, "count", ""},
      {"dram.activates", k.dram_activates, "count", ""},
      {"dram.bus_utilization", k.dram_bus_utilization, "share", ""},
      {"sim.ticks", k.ticks, "count", ""},
      {"sim.visited_ticks", k.visited_ticks, "count", ""},
      {"sim.visited_share", ratio(k.visited_ticks, k.ticks), "share", ""},
      {"sim.host_ns_per_visited_tick", ratio(untraced_median * 1e9, k.visited_ticks), "ns",
       "untraced run"},
      {"sim.driver_self_s", self(Layer::kSim), "s", ""},
      {"sampled_ipc_err_pct", ipc_err, "%", ""},
      {"sampled_lat_err_pct", lat_err, "%", ""},
      {"sampled_ci_misses", ci_misses, "count", ""},
      {"failed_share", static_cast<double>(v.failed) / v.attempted, "share", ""},
      {"tracing.overhead_ratio", median(traced_walls) / untraced_median, "x",
       "traced wall over untraced wall"},
      {"tracing.probe_s", tr.probe_overhead_s, "s", "clock reads of the sampled probes"},
      {"tracing.accounted_share", accounted_share, "share",
       "self times + probes + span cost over traced wall"},
  };
  for (Metric& x : m) {
    if (x.note.empty()) x.note = note_for(w, x.name);
  }
  if (w.kind == Kind::kSampled && !exact) {
    std::erase_if(m, [](const Metric& x) { return x.name.rfind("sampled_", 0) == 0; });
  }
  v.notes.push_back(std::to_string(traced.size()) + " traced and " +
                    std::to_string(untraced_s.size()) +
                    " untraced runs; layer numbers from the median traced run; clock read " +
                    std::to_string(clock_read_ns) + " ns, span cost outside the span " +
                    std::to_string(tr.span_cost_ns) + " ns");
  print_result(m, v);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.regen) return regen(a);
    const WorkloadSpec& w = workload_by_name(a.workload);
    return a.trace == 0 ? run_end_to_end(a, w) : run_per_layer(a, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_memsched: %s\n", e.what());
    return 2;
  }
}
