#include "harness/orchestrator.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <thread>

#include "harness/guarded_main.hpp"
#include "util/progress.hpp"
#include "util/wallclock.hpp"

namespace memsched::harness {

namespace {

// All wall-clock reads go through the blessed wrapper (util/wallclock.hpp)
// so det-banned-call can vouch that host time never leaks into simulated
// state; the orchestrator only times and schedules *around* the children.
using Clock = util::MonotonicClock;

double ms_since(Clock::time_point start) {
  return util::ms_between(start, util::monotonic_now());
}

/// Replaces fd `target` with a freshly created file (child-side only).
void redirect_to_file(const std::string& path, int target) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;  // diagnostics-only stream; keep running without it
  ::dup2(fd, target);
  ::close(fd);
}

std::string read_whole_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::string format_seconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", seconds);
  return buf;
}

/// Best-effort recursive delete (per-point checkpoint dirs after success);
/// a leftover directory is harmless, so failures are ignored.
void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace

std::uint32_t resolve_jobs(std::uint32_t requested) {
  if (requested != 0) return requested;
  if (const char* env = std::getenv("MEMSCHED_JOBS"); env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 &&
        v <= std::numeric_limits<std::uint32_t>::max()) {
      return static_cast<std::uint32_t>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

Orchestrator::Orchestrator(OrchestratorConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.max_attempts == 0) cfg_.max_attempts = 1;
  if (!cfg_.manifest_path.empty()) {
    manifest_.open(cfg_.manifest_path, cfg_.fingerprint);
  }
  if (cfg_.work_dir.empty()) {
    cfg_.work_dir = cfg_.manifest_path.empty() ? std::string("memsched-sweep.work")
                                               : cfg_.manifest_path + ".work";
  }
  if (::mkdir(cfg_.work_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("orchestrator: cannot create work dir " + cfg_.work_dir +
                             ": " + std::strerror(errno));
  }
}

SweepSummary Orchestrator::run(const std::vector<PointSpec>& points) {
  const auto start = util::monotonic_now();
  run_jobs_ = resolve_jobs(cfg_.jobs);
  SweepSummary summary = run_pool(points, run_jobs_);
  summary.jobs = run_jobs_;
  run_wall_ms_ = ms_since(start);
  summary.wall_ms = run_wall_ms_;
  return summary;
}

SweepSummary Orchestrator::run_pool(const std::vector<PointSpec>& points,
                                    std::uint32_t jobs) {
  SweepSummary summary;
  summary.total = points.size();

  // A pending entry is a point waiting for a worker slot; a retried point
  // re-enters the queue like any other.
  struct Pending {
    std::size_t index = 0;
    std::uint32_t attempt = 1;  // attempt number the next run will be
  };
  // A slot is one live forked child.
  struct Slot {
    pid_t pid = -1;
    std::size_t index = 0;
    std::uint32_t attempt = 1;
    Clock::time_point start{};
    Clock::time_point deadline{};
    bool has_deadline = false;
    bool stop_forwarded = false;
  };

  // Expected cost per point: its static hint, 1 when unknown.
  std::vector<double> est(points.size(), 1.0);
  std::vector<Pending> pending;
  pending.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointSpec& point = points[i];
    if (const PointRecord* prev = manifest_.find(point.name);
        prev != nullptr && prev->ok()) {
      ++summary.resumed;
      ++summary.ok;
      if (cfg_.verbose) {
        std::fprintf(stderr, "[sweep] %zu/%zu %s: ok (resumed from manifest)\n", i + 1,
                     points.size(), point.name.c_str());
      }
      continue;
    }
    if (point.cost_hint > 0.0) est[i] = point.cost_hint;
    pending.push_back(Pending{i, 1});
  }

  // Longest-first (LPT): start the slowest points first so the
  // sweep does not end with one straggler hogging a lone worker.
  const LongestFirst longest{est};
  const auto lpt_less = [&longest](const Pending& a, const Pending& b) {
    return longest(a.index, b.index);
  };
  std::sort(pending.begin(), pending.end(), lpt_less);

  util::ProgressTicker ticker(cfg_.verbose && ::isatty(STDERR_FILENO) != 0);
  // The pool never needs more slots than there are points to run, whatever
  // width was asked for; retries re-enter `pending`, never widen it.
  const std::size_t width = std::min<std::size_t>(jobs, pending.size());
  std::vector<Slot> slots;
  slots.reserve(width);
  const auto pool_start = util::monotonic_now();
  double done_cost = 0.0;  // estimated cost of completed points (ETA input)
  bool halting = false;    // stop dispatching (graceful stop or interrupted child)

  // Final outcome of one attempt: retry, halt on interruption,
  // or commit to the manifest. Shared by the reaper and the fork-failure path.
  const auto handle_outcome = [&](PointRecord rec, std::size_t index,
                                  std::uint32_t attempt) {
    if (rec.status == "interrupted") {
      // State is parked in the per-point snapshot; not recorded, so the next
      // invocation resumes this point. Stop feeding the pool.
      summary.interrupted = true;
      halting = true;
      if (cfg_.verbose) {
        ticker.clear();
        std::fprintf(stderr, "[sweep] %s: interrupted (state checkpointed)\n",
                     points[index].name.c_str());
      }
      return;
    }
    if (!rec.ok() && attempt < cfg_.max_attempts && !halting) {
      if (cfg_.verbose) {
        ticker.clear();
        std::fprintf(stderr, "[sweep] %s: attempt %u %s (%s); retrying\n",
                     points[index].name.c_str(), attempt, rec.status.c_str(),
                     rec.category.c_str());
      }
      const Pending p{index, attempt + 1};
      pending.insert(std::lower_bound(pending.begin(), pending.end(), p, lpt_less), p);
      return;
    }
    manifest_.record(rec);  // checkpoint after *every* point
    ++summary.executed;
    done_cost += est[index];
    if (rec.ok()) {
      ++summary.ok;
    } else {
      ++summary.failed;
    }
    if (cfg_.verbose) {
      ticker.clear();
      std::fprintf(stderr, "[sweep] %zu/%zu %s: %s (%s, %u attempt%s, %.0f ms)\n",
                   summary.ok + summary.failed, points.size(),
                   points[index].name.c_str(), rec.status.c_str(),
                   rec.category.c_str(), rec.attempts, rec.attempts == 1 ? "" : "s",
                   rec.wall_ms);
    }
  };

  while (!pending.empty() || !slots.empty()) {
    if (!halting && cfg_.stop != nullptr && *cfg_.stop != 0) {
      halting = true;
      summary.interrupted = true;
    }
    if (halting) {
      pending.clear();
      // Graceful-stop fan-out: every live child gets SIGTERM once, so each
      // checkpoints and exits "interrupted". The per-slot hard deadline
      // still applies as the backstop if one wedges on the way out.
      for (Slot& s : slots) {
        if (!s.stop_forwarded) {
          ::kill(s.pid, SIGTERM);
          s.stop_forwarded = true;
        }
      }
      if (slots.empty()) break;
    }

    // Dispatch: fill free slots, longest first (pending is kept sorted).
    while (!halting && slots.size() < width && !pending.empty()) {
      const Pending p = pending.front();
      pending.erase(pending.begin());
      const pid_t pid = spawn_child(points[p.index], p.index);
      if (pid < 0) {
        PointRecord rec;
        rec.name = points[p.index].name;
        rec.index = static_cast<std::uint32_t>(p.index);
        rec.status = "failed";
        rec.category = "internal";
        rec.exit_code = kExitInternal;
        rec.error = std::string("fork failed: ") + std::strerror(errno);
        rec.attempts = p.attempt;
        handle_outcome(std::move(rec), p.index, p.attempt);
        continue;
      }
      Slot s;
      s.pid = pid;
      s.index = p.index;
      s.attempt = p.attempt;
      s.start = util::monotonic_now();
      if (cfg_.timeout_seconds > 0.0) {
        s.deadline = s.start + util::seconds_to_duration(cfg_.timeout_seconds);
        s.has_deadline = true;
      }
      slots.push_back(s);
    }

    // Reap: non-blocking wait on each known pid. Deliberately per-pid, not
    // waitpid(-1) — point bodies may fork children of their own and the
    // pool must never steal their exit statuses.
    bool reaped = false;
    for (std::size_t si = 0; si < slots.size();) {
      Slot& s = slots[si];
      int status = 0;
      const pid_t r = ::waitpid(s.pid, &status, WNOHANG);
      if (r < 0 && errno == EINTR) continue;  // retry this slot
      bool timed_out = false;
      if (r == 0) {
        if (s.has_deadline && util::monotonic_now() >= s.deadline) {
          // Per-child wall-clock watchdog: hung point gets SIGKILL; the
          // (now unblockable) exit is collected synchronously.
          ::kill(s.pid, SIGKILL);
          ::waitpid(s.pid, &status, 0);
          timed_out = true;
        } else {
          ++si;
          continue;
        }
      }
      PointRecord rec;
      if (r < 0) {
        rec.name = points[s.index].name;
        rec.index = static_cast<std::uint32_t>(s.index);
        rec.status = "failed";
        rec.category = "internal";
        rec.exit_code = kExitInternal;
        rec.error = std::string("waitpid failed: ") + std::strerror(errno);
      } else {
        rec = conclude_child(points[s.index], s.index, status, timed_out,
                             s.stop_forwarded);
      }
      rec.wall_ms = ms_since(s.start);
      rec.attempts = s.attempt;
      const std::size_t index = s.index;
      const std::uint32_t attempt = s.attempt;
      slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(si));
      handle_outcome(std::move(rec), index, attempt);
      reaped = true;
    }

    // Live progress + ETA. Rate = estimated cost retired per wall ms across
    // the whole pool, so the projection already accounts for parallelism.
    util::ProgressTicker::State st;
    st.done = summary.ok + summary.failed;
    st.failed = summary.failed;
    st.running = slots.size();
    st.total = points.size();
    st.jobs = jobs;
    double left_cost = 0.0;
    for (const Pending& p : pending) left_cost += est[p.index];
    for (const Slot& s : slots) left_cost += est[s.index];
    const double elapsed_ms = ms_since(pool_start);
    if (done_cost > 0.0 && elapsed_ms > 0.0) {
      st.eta_seconds = left_cost / (done_cost / elapsed_ms) / 1000.0;
    }
    ticker.update(st);

    if (!reaped) ::usleep(2000);
  }
  ticker.finish();
  return summary;
}

std::string Orchestrator::ckpt_dir_for(std::size_t index) const {
  return cfg_.work_dir + "/point-" + std::to_string(index) + ".ckpt.d";
}

Orchestrator::ChildFiles Orchestrator::child_files(std::size_t index) const {
  const std::string stem = cfg_.work_dir + "/point-" + std::to_string(index);
  return ChildFiles{stem + ".result.json", stem + ".stdout", stem + ".stderr"};
}

pid_t Orchestrator::spawn_child(const PointSpec& point, std::size_t index) {
  const ChildFiles files = child_files(index);
  std::remove(files.result.c_str());
  const std::string ckpt_dir = ckpt_dir_for(index);
  if (point.argv.empty()) ::mkdir(ckpt_dir.c_str(), 0755);  // EEXIST across retries

  // Flush before fork so buffered output is not emitted twice.
  std::fflush(stdout);
  std::fflush(stderr);

  const pid_t pid = ::fork();
  if (pid != 0) return pid;  // parent (or fork failure: -1, errno set)

  // Child. Keep the parent's streams clean; diagnostics land in per-point
  // files the parent harvests after exit.
  redirect_to_file(files.stdout_path, STDOUT_FILENO);
  redirect_to_file(files.stderr_path, STDERR_FILENO);
  if (!point.argv.empty()) {
    std::vector<char*> argv;
    argv.reserve(point.argv.size() + 1);
    for (const std::string& a : point.argv)
      argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "exec %s failed: %s\n", argv[0], std::strerror(errno));
    std::fflush(nullptr);
    ::_exit(kExitInternal);
  }
  try {
    if (!point.body) throw std::runtime_error("point has no body");
    point.body(ckpt_dir).write_file(files.result, -1);
    std::fflush(nullptr);
    ::_exit(kExitOk);
  } catch (...) {
    const ErrorInfo info = classify_current_exception();
    emit_error_line(point.name, info);
    std::fflush(nullptr);
    ::_exit(info.exit_code);
  }
}

PointRecord Orchestrator::conclude_child(const PointSpec& point, std::size_t index,
                                         int status, bool timed_out,
                                         bool stop_forwarded) {
  PointRecord rec;
  rec.name = point.name;
  rec.index = static_cast<std::uint32_t>(index);
  const ChildFiles files = child_files(index);

  if (timed_out) {
    rec.status = "timeout";
    rec.category = "timeout";
    rec.term_signal = SIGKILL;
    rec.error = "watchdog: no exit within " + format_seconds(cfg_.timeout_seconds) +
                " s wall clock; sent SIGKILL";
    return rec;
  }
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    if (stop_forwarded && sig == SIGTERM) {
      // Child without a SIGTERM handler (e.g. an exec'd bench) died to the
      // forwarded graceful stop — that is an interruption, not a crash.
      rec.status = "interrupted";
      rec.category = exit_category(kExitInterrupted);
      rec.exit_code = kExitInterrupted;
      rec.term_signal = sig;
      return rec;
    }
    rec.status = "crash";
    rec.category = "crash";
    rec.term_signal = sig;
    rec.error = "child killed by signal " + std::to_string(sig);
    if (const std::string detail = child_error(files.stderr_path); !detail.empty())
      rec.error += ": " + detail;
    return rec;
  }

  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : kExitInternal;
  rec.exit_code = code;
  if (code == kExitInterrupted) {
    rec.status = "interrupted";
    rec.category = exit_category(code);
    rec.error = child_error(files.stderr_path);
    return rec;
  }
  if (code != kExitOk) {
    rec.status = "failed";
    rec.category = exit_category(code);
    rec.error = child_error(files.stderr_path);
    if (rec.error.empty())
      rec.error = "child exited with code " + std::to_string(code);
    return rec;
  }

  if (point.argv.empty()) {
    rec.payload = read_whole_file(files.result);
    // write_file appends a newline; strip it so the payload splices cleanly
    // into the report.
    while (!rec.payload.empty() && rec.payload.back() == '\n') rec.payload.pop_back();
    if (rec.payload.empty()) {
      rec.status = "failed";
      rec.category = "internal";
      rec.exit_code = kExitInternal;
      rec.error = "child exited 0 but wrote no result file";
      return rec;
    }
    remove_tree(ckpt_dir_for(index));
  } else {
    // Exec points produce human-readable output, captured per point; the
    // report records where it went rather than duplicating it.
    util::Json payload = util::Json::object();
    payload["stdout_file"] = "point-" + std::to_string(index) + ".stdout";
    rec.payload = payload.dump(-1);
  }
  rec.status = "ok";
  rec.category = "ok";
  return rec;
}

std::string Orchestrator::child_error(const std::string& stderr_path) const {
  const std::string text = read_whole_file(stderr_path);
  if (text.empty()) return {};
  // Prefer the structured error record emitted by guarded_main / the forked
  // point body; fall back to a bounded tail of raw stderr.
  static constexpr std::string_view kMarker = "MEMSCHED_ERROR ";
  if (const std::size_t pos = text.rfind(kMarker); pos != std::string::npos) {
    const std::size_t begin = pos + kMarker.size();
    const std::size_t end = text.find('\n', begin);
    return text.substr(begin, end == std::string::npos ? std::string::npos
                                                       : end - begin);
  }
  constexpr std::size_t kTail = 512;
  std::string tail = text.size() > kTail ? text.substr(text.size() - kTail) : text;
  while (!tail.empty() && (tail.back() == '\n' || tail.back() == '\r')) tail.pop_back();
  return tail;
}

util::Json Orchestrator::report() const {
  util::Json doc = util::Json::object();
  doc["schema"] = "memsched-sweep-report-v1";
  doc["fingerprint"] = cfg_.fingerprint;

  util::Json points = util::Json::array();
  util::Json gaps = util::Json::array();
  std::size_t ok = 0;
  for (const PointRecord& r : manifest_.records()) {
    util::Json p = util::Json::object();
    p["name"] = r.name;
    p["status"] = r.status;
    p["category"] = r.category;
    p["attempts"] = r.attempts;
    p["exit_code"] = r.exit_code;
    p["term_signal"] = r.term_signal;
    if (r.ok()) {
      ++ok;
      // Verbatim splice of the recorded payload: no parse/re-emit round
      // trip, so resumed sweeps reproduce the exact bytes.
      p["result"] = util::Json::raw(r.payload.empty() ? "null" : r.payload);
    } else {
      p["error"] = r.error;
      gaps.push_back(r.name);
    }
    points.push_back(std::move(p));
  }
  doc["points"] = std::move(points);

  util::Json summary = util::Json::object();
  summary["total"] = manifest_.size();
  summary["ok"] = ok;
  summary["gap_count"] = manifest_.size() - ok;
  summary["gaps"] = std::move(gaps);
  doc["summary"] = std::move(summary);
  return doc;
}

util::Json Orchestrator::timing_report() const {
  util::Json doc = util::Json::object();
  doc["schema"] = "memsched-sweep-timing-report-v1";
  doc["jobs"] = run_jobs_;
  doc["wall_ms"] = run_wall_ms_;
  util::Json points = util::Json::object();
  for (const PointRecord& r : manifest_.records()) {
    // Resumed records carry no wall time (timing never round-trips through
    // the manifest); report only what this invocation actually measured.
    if (r.wall_ms > 0.0) points[r.name] = r.wall_ms;
  }
  doc["points"] = std::move(points);
  return doc;
}

}  // namespace memsched::harness
