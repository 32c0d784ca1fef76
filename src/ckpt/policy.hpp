// Checkpoint policy: when and where a simulation saves snapshots, and how a
// resumed run reports what it found.
#pragma once

#include <csignal>
#include <string>

#include "util/types.hpp"

namespace memsched::ckpt {

/// Outcome of the resume attempt, filled in by the run loop for callers that
/// want to surface diagnostics (the tools log MEMSCHED_ERROR on fallback).
struct ResumeInfo {
  bool attempted = false;  ///< a snapshot file existed and was opened
  bool resumed = false;    ///< state was restored from it
  std::string error;       ///< why the snapshot was rejected, if it was
};

/// Controls snapshotting for one run. Default-constructed policy is inert.
struct CheckpointPolicy {
  /// Snapshot file path; empty disables checkpointing entirely. A run that
  /// finds a file here restores from it first (fingerprint/CRC failures fall
  /// back to a fresh run, reported via `resume_info`).
  std::string path;

  /// Save a snapshot every `interval_ticks` bus ticks (0 = only on stop /
  /// completion).
  Tick interval_ticks = 0;

  /// Optional cooperative-stop flag (typically ckpt::stop_flag(), set by the
  /// SIGTERM/SIGINT handler). When it becomes nonzero the run saves a
  /// snapshot and throws CheckpointStop.
  const volatile std::sig_atomic_t* stop = nullptr;

  /// Free-form context mixed into the snapshot fingerprint so snapshots from
  /// different sub-runs of one experiment can never be confused.
  std::string context;

  /// Test hooks. `stop_at_tick` acts as if the stop flag fired at that tick;
  /// with `save_on_stop=false` the run aborts WITHOUT saving, emulating
  /// SIGKILL (resume must then come from an older periodic snapshot).
  Tick stop_at_tick = 0;
  bool save_on_stop = true;

  /// Out-param describing the resume attempt; optional.
  ResumeInfo* resume_info = nullptr;

  [[nodiscard]] bool enabled() const { return !path.empty(); }
};

/// Thrown by the run loop after a stop-triggered snapshot is written. The
/// harness maps it to ExitCode::kExitInterrupted ("interrupted"): the run
/// did not fail, it parked its state for a later resume.
class CheckpointStop : public std::exception {
 public:
  explicit CheckpointStop(std::string path) : path_(std::move(path)) {}
  [[nodiscard]] const char* what() const noexcept override {
    return "run interrupted; state checkpointed for resume";
  }
  [[nodiscard]] const std::string& snapshot_path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace memsched::ckpt
