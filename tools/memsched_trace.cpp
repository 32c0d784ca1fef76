// memsched_trace — command-line trace utility.
//
//   memsched_trace gen app=<name> insts=N seed=S out=<path> [format=bin|txt]
//       Dump a slice of a synthetic SPEC2000 application model.
//   memsched_trace convert in=<path> out=<path>
//       Convert between the binary and text formats (auto-detected input;
//       output format from the output extension, .bin = binary).
//   memsched_trace info in=<path>
//       Print record counts, reference mix, footprint, and the address
//       histogram of a trace.
//   memsched_trace analyze in=<path> [interleave=hybrid|line|page]
//       Decode the trace's memory references through an address map and
//       report channel/bank balance and row-locality statistics.
//   memsched_trace apps
//       List the 26 built-in application models with their parameters.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "dram/address_map.hpp"
#include "harness/guarded_main.hpp"
#include "harness/interleave.hpp"
#include "trace/app_profile.hpp"
#include "trace/generator.hpp"
#include "trace/trace_file.hpp"
#include "util/config.hpp"

using namespace memsched;

namespace {

[[noreturn]] int usage() {
  std::fprintf(stderr,
               "usage: memsched_trace <gen|convert|info|apps> [key=value...]\n"
               "  gen     app=swim insts=1000000 seed=1 out=swim.bin [format=bin|txt]\n"
               "  convert in=trace.txt out=trace.bin\n"
               "  info    in=trace.bin\n"
               "  analyze in=trace.bin [interleave=hybrid|line|page] [bank_xor=0|1]\n"
               "  apps\n");
  throw std::invalid_argument("bad command line (see usage above)");
}

std::vector<trace::InstRecord> load_any(const std::string& path) {
  try {
    return trace::read_binary_trace(path);
  } catch (const std::runtime_error&) {
    return trace::read_text_trace(path);
  }
}

bool wants_binary(const std::string& path, const std::string& format) {
  if (format == "bin") return true;
  if (format == "txt") return false;
  return path.size() >= 4 && path.substr(path.size() - 4) == ".bin";
}

int cmd_gen(const util::Config& cli) {
  if (const auto err =
          cli.check_known({"app", "insts", "seed", "out", "base", "format"}))
    throw std::invalid_argument(*err);
  const std::string app_name = cli.get_string("app", "");
  const std::string out = cli.get_string("out", "");
  if (app_name.empty() || out.empty()) usage();
  const auto& app = trace::spec2000_by_name(app_name);
  const std::uint64_t insts = cli.get_uint("insts", 1'000'000);
  const std::uint64_t seed = cli.get_uint("seed", 1);
  const Addr base = cli.get_uint("base", 0);

  trace::SyntheticStream gen(app, base, seed);
  std::vector<trace::InstRecord> recs;
  recs.reserve(insts);
  for (std::uint64_t i = 0; i < insts; ++i) recs.push_back(gen.next());

  if (wants_binary(out, cli.get_string("format", "")))
    trace::write_binary_trace(out, recs);
  else
    trace::write_text_trace(out, recs);
  std::printf("wrote %llu records of %s (seed %llu) to %s\n",
              static_cast<unsigned long long>(recs.size()), app.name.c_str(),
              static_cast<unsigned long long>(seed), out.c_str());
  return 0;
}

int cmd_convert(const util::Config& cli) {
  if (const auto err = cli.check_known({"in", "out", "format"}))
    throw std::invalid_argument(*err);
  const std::string in = cli.get_string("in", "");
  const std::string out = cli.get_string("out", "");
  if (in.empty() || out.empty()) usage();
  const auto recs = load_any(in);
  if (wants_binary(out, cli.get_string("format", "")))
    trace::write_binary_trace(out, recs);
  else
    trace::write_text_trace(out, recs);
  std::printf("converted %zu records: %s -> %s\n", recs.size(), in.c_str(), out.c_str());
  return 0;
}

int cmd_info(const util::Config& cli) {
  if (const auto err = cli.check_known({"in"})) throw std::invalid_argument(*err);
  const std::string in = cli.get_string("in", "");
  if (in.empty()) usage();
  const auto recs = load_any(in);

  std::uint64_t loads = 0, stores = 0, deps = 0;
  std::set<Addr> lines;
  Addr lo = ~Addr{0}, hi = 0;
  for (const auto& r : recs) {
    if (r.cls == trace::InstClass::kCompute) continue;
    loads += r.cls == trace::InstClass::kLoad;
    stores += r.cls == trace::InstClass::kStore;
    deps += r.dep_on_prev;
    lines.insert(line_base(r.addr));
    lo = std::min(lo, r.addr);
    hi = std::max(hi, r.addr);
  }
  const double kinst = static_cast<double>(recs.size()) / 1000.0;
  std::printf("%s:\n", in.c_str());
  std::printf("  records:          %zu\n", recs.size());
  std::printf("  loads:            %llu (%.1f/kinst, %llu dependent)\n",
              static_cast<unsigned long long>(loads),
              static_cast<double>(loads) / kinst, static_cast<unsigned long long>(deps));
  std::printf("  stores:           %llu (%.1f/kinst)\n",
              static_cast<unsigned long long>(stores),
              static_cast<double>(stores) / kinst);
  std::printf("  distinct lines:   %zu (%.1f fresh lines/kinst, %.2f MiB)\n",
              lines.size(), static_cast<double>(lines.size()) / kinst,
              static_cast<double>(lines.size()) * 64.0 / (1 << 20));
  if (loads + stores > 0) {
    std::printf("  address range:    [0x%llx, 0x%llx]\n",
                static_cast<unsigned long long>(lo), static_cast<unsigned long long>(hi));
  }
  return 0;
}

int cmd_analyze(const util::Config& cli) {
  if (const auto err = cli.check_known({"in", "interleave", "bank_xor"}))
    throw std::invalid_argument(*err);
  const std::string in = cli.get_string("in", "");
  if (in.empty()) usage();
  const std::string il = cli.get_string("interleave", "hybrid");
  const dram::Organization org;
  const dram::AddressMap map(org, harness::interleave_from_string(il),
                             cli.get_bool("bank_xor", false));

  const auto recs = load_any(in);
  std::vector<std::uint64_t> per_channel(org.channels, 0);
  std::vector<std::uint64_t> per_bank(org.total_banks(), 0);
  // Row locality: per (channel, bank), how often does the next access to
  // that bank target the same row ("back-to-back same-row rate" — the
  // upper bound an open-row policy could exploit)?
  std::vector<std::uint64_t> last_row(org.total_banks(), ~0ull);
  std::uint64_t same_row = 0, bank_visits = 0;
  for (const auto& r : recs) {
    if (r.cls == trace::InstClass::kCompute) continue;
    const dram::DramAddress da = map.decode(line_base(r.addr));
    const std::size_t flat = da.channel * org.banks_per_channel() + da.bank;
    ++per_channel[da.channel];
    ++per_bank[flat];
    if (last_row[flat] != ~0ull) {
      ++bank_visits;
      same_row += last_row[flat] == da.row;
    }
    last_row[flat] = da.row;
  }

  std::uint64_t total = 0;
  for (const auto v : per_channel) total += v;
  std::printf("%s via %s map: %llu memory references\n", in.c_str(), il.c_str(),
              static_cast<unsigned long long>(total));
  if (total == 0) return 0;
  std::printf("  channel balance:");
  for (std::size_t c = 0; c < per_channel.size(); ++c) {
    std::printf(" ch%zu=%.1f%%", c,
                100.0 * static_cast<double>(per_channel[c]) / static_cast<double>(total));
  }
  std::uint64_t mn = ~0ull, mx = 0;
  for (const auto v : per_bank) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  std::printf("\n  bank load (min/max over %u banks): %llu / %llu\n", org.total_banks(),
              static_cast<unsigned long long>(mn), static_cast<unsigned long long>(mx));
  std::printf("  back-to-back same-row rate: %.3f (open-row hit-rate ceiling)\n",
              bank_visits ? static_cast<double>(same_row) / static_cast<double>(bank_visits)
                          : 0.0);
  return 0;
}

int cmd_apps() {
  std::printf("%-10s %4s %5s %9s %6s %9s %7s %6s %5s %7s\n", "app", "code", "class",
              "paper-ME", "IPC", "refs/ki", "fresh/ki", "burst", "deps", "foot-MB");
  for (const auto& a : trace::spec2000_profiles()) {
    std::printf("%-10s %4c %5c %9.0f %6.1f %9.0f %7.2f %6.0f %5.2f %7llu\n",
                a.name.c_str(), a.code, a.memory_intensive ? 'M' : 'I', a.table_me,
                a.ilp_ipc, a.mem_ref_per_kinst, a.fresh_lines_per_kinst, a.burst_lines,
                a.dep_chain_frac,
                static_cast<unsigned long long>(a.footprint_bytes >> 20));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return harness::guarded_main("memsched_trace", [&] {
    if (argc < 2) usage();
    const std::string cmd = argv[1];
    util::Config cli;
    if (auto err = cli.parse_args(argc - 1, argv + 1)) {
      std::fprintf(stderr, "%s\n", err->c_str());
      usage();
    }
    if (cmd == "gen") return cmd_gen(cli);
    if (cmd == "convert") return cmd_convert(cli);
    if (cmd == "info") return cmd_info(cli);
    if (cmd == "analyze") return cmd_analyze(cli);
    if (cmd == "apps") return cmd_apps();
    usage();
  });
}
