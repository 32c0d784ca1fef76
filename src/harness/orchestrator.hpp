// Fault-tolerant sweep orchestrator: one N-way process pool.
//
// Runs a list of experiment points, each in its own forked child, under a
// wall-clock watchdog. Up to N children run concurrently (N = 1 is simply a
// pool of width one), reaped by a non-blocking waitpid loop and dispatched
// longest-first by each point's static cost hint, so the dispatch order
// depends only on the point list. A hung point is SIGKILLed and recorded as
// a structured "timeout" failure; a crashed point records its signal; a point
// that exits with one of the exit_codes.hpp codes records that diagnosis.
// Failed points are retried a bounded number of times, then recorded and
// *skipped* — the rest of the sweep still completes and the final report
// marks the gaps. After every completed point the manifest is checkpointed
// (records index-sorted, so the bytes never depend on completion order),
// which gives the determinism contract: manifest and report are
// byte-identical at any jobs= width, across kills and resumes. The manifest
// is the sweep's only state; wall-clock timing goes to the timing report,
// never into the manifest or report themselves.
#pragma once

#include <sys/types.h>

#include <csignal>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/manifest.hpp"
#include "util/json.hpp"

namespace memsched::harness {

/// One experiment point, always run in a forked child. Either a body
/// returning the point's JSON result (called in the child), or an external
/// command in `argv` (fork + exec; takes precedence when set).
///
/// `body` receives a per-point checkpoint directory (work_dir/point-<i>.ckpt.d)
/// that survives watchdog kills and retries, so a re-attempted point resumes
/// from its latest valid snapshot instead of starting over. The directory is
/// deleted once the point succeeds.
struct PointSpec {
  std::string name;
  std::function<util::Json(const std::string& ckpt_dir)> body;
  std::vector<std::string> argv;

  /// Static cost hint for longest-first dispatch (arbitrary units; only
  /// relative order matters). The grid builder uses trace length x core
  /// count; bench entries carry weights. 0 = unknown (treated as 1).
  double cost_hint = 0.0;
};

/// Dispatch order over point indices: longest expected first, index order
/// on ties (deterministic regardless of container quirks). `est[i]` is the
/// expected cost of point `i`; the pool sorts and re-inserts retries with
/// this comparator.
struct LongestFirst {
  const std::vector<double>& est;
  [[nodiscard]] bool operator()(std::size_t a, std::size_t b) const {
    if (est[a] != est[b]) return est[a] > est[b];
    return a < b;
  }
};

struct OrchestratorConfig {
  std::string manifest_path;  ///< empty = in-memory only (no resume)
  std::string fingerprint;    ///< sweep identity; resume refuses a mismatch
  std::string work_dir;       ///< scratch dir for per-point result/stderr files

  double timeout_seconds = 300.0;  ///< per-attempt wall-clock watchdog; 0 = none
  std::uint32_t max_attempts = 1;  ///< bounded retry (1 = no retry)
  bool verbose = true;   ///< per-point progress lines on stderr

  /// Process-pool width: up to this many forked points in flight, dispatched
  /// longest-first at every width; never more children than there
  /// are points to run. 0 = auto: MEMSCHED_JOBS from the environment, else
  /// hardware_concurrency.
  std::uint32_t jobs = 1;

  /// Cooperative graceful-stop flag (typically ckpt::stop_flag(), set by the
  /// SIGTERM/SIGINT handler). When it fires, every running child is
  /// forwarded SIGTERM — each checkpoints and exits "interrupted" — and the
  /// sweep stops WITHOUT recording those points, so the next invocation
  /// resumes them from their snapshots. Children that complete before the
  /// signal lands are still recorded.
  const volatile std::sig_atomic_t* stop = nullptr;
};

struct SweepSummary {
  std::size_t total = 0;
  std::size_t ok = 0;        ///< includes resumed points
  std::size_t failed = 0;
  std::size_t resumed = 0;   ///< replayed from the manifest, not re-run
  std::size_t executed = 0;  ///< actually run this invocation
  bool interrupted = false;  ///< graceful stop (SIGTERM/SIGINT) ended the sweep
  std::uint32_t jobs = 1;    ///< resolved pool width this run
  double wall_ms = 0.0;      ///< end-to-end wall clock of run()

  [[nodiscard]] bool complete() const {
    return !interrupted && ok + failed == total;
  }
};

/// Resolves a jobs request: nonzero passes through; 0 consults MEMSCHED_JOBS
/// (a value that is not an integer in [1, UINT32_MAX] is ignored), then
/// hardware_concurrency, with a floor of 1.
[[nodiscard]] std::uint32_t resolve_jobs(std::uint32_t requested);

class Orchestrator {
 public:
  explicit Orchestrator(OrchestratorConfig cfg);

  /// Runs (or resumes) the sweep. Points whose manifest record is already
  /// "ok" are skipped; previously failed points are re-attempted. Points run
  /// in the process pool at width resolve_jobs(jobs); manifest and report
  /// bytes are identical at every width.
  SweepSummary run(const std::vector<PointSpec>& points);

  [[nodiscard]] const Manifest& manifest() const { return manifest_; }

  /// Deterministic sweep report: recorded payloads are spliced back verbatim
  /// and wall-clock fields are excluded, so an interrupted-and-resumed sweep
  /// dumps byte-identical output to an uninterrupted one at any width.
  /// Failed points are listed with their diagnosis and summarized as gaps.
  [[nodiscard]] util::Json report() const;

  /// Machine-readable wall-clock record of the last run(): per-point wall
  /// times, end-to-end wall time, pool width. Deliberately a separate
  /// document from report() — timing differs run to run, the report must
  /// not.
  [[nodiscard]] util::Json timing_report() const;

 private:
  /// Paths of one point's scratch files under work_dir.
  struct ChildFiles {
    std::string result;
    std::string stdout_path;
    std::string stderr_path;
  };

  SweepSummary run_pool(const std::vector<PointSpec>& points, std::uint32_t jobs);

  /// Forks one child for `point`; the child never returns (it _exits with a
  /// contract code). Returns the child pid, or -1 with errno set.
  pid_t spawn_child(const PointSpec& point, std::size_t index);

  /// Builds the record for a reaped child from its wait status and scratch
  /// files (classification, payload harvest, ckpt-dir cleanup on success).
  PointRecord conclude_child(const PointSpec& point, std::size_t index, int status,
                             bool timed_out, bool stop_forwarded);

  [[nodiscard]] ChildFiles child_files(std::size_t index) const;

  /// Per-point checkpoint directory (created for every body point); kept
  /// across retries, removed once the point succeeds.
  [[nodiscard]] std::string ckpt_dir_for(std::size_t index) const;
  [[nodiscard]] std::string child_error(const std::string& stderr_path) const;

  OrchestratorConfig cfg_;
  Manifest manifest_;
  double run_wall_ms_ = 0.0;
  std::uint32_t run_jobs_ = 1;
};

}  // namespace memsched::harness
