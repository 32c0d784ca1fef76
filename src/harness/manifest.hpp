// Sweep checkpoint manifest.
//
// The orchestrator appends one record per experiment point and rewrites the
// manifest file — atomically, via tmp + rename — after every point, so a
// sweep killed at any instant resumes exactly where it stopped: completed
// points are replayed from their recorded payloads, the interrupted point
// re-runs. A fingerprint header ties the manifest to the sweep definition;
// resuming with a different point list or configuration is refused rather
// than silently mixing incompatible results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace memsched::harness {

/// Outcome of one experiment point (final across retries).
struct PointRecord {
  std::string name;
  std::uint32_t index = 0;  ///< position in the sweep's point list; the
                            ///< manifest is persisted sorted by this, so the
                            ///< on-disk bytes are independent of completion
                            ///< order under the parallel executor
  std::string status;    ///< "ok" | "failed" | "timeout" | "crash"
  std::string category;  ///< exit_category() of the verdict ("ok", "usage", ...)
  int exit_code = 0;     ///< child's exit code (0 unless it exited itself)
  int term_signal = 0;   ///< terminating signal (crash / timeout kill)
  std::uint32_t attempts = 0;
  double wall_ms = 0.0;  ///< wall clock of the final attempt; in-memory only —
                         ///< timing goes to the timing report, never into
                         ///< the manifest or report, so those stay
                         ///< byte-identical across jobs= settings
  std::string payload;   ///< serialized JSON result, verbatim (ok points)
  std::string error;     ///< structured error line / diagnostic (failed points)

  [[nodiscard]] bool ok() const { return status == "ok"; }
};

class Manifest {
 public:
  Manifest() = default;

  /// Binds to `path` and loads any existing records. Throws
  /// std::runtime_error if the file exists but is malformed or carries a
  /// different fingerprint (resuming a different sweep).
  void open(const std::string& path, const std::string& fingerprint);

  /// nullptr when no record with this name exists yet.
  [[nodiscard]] const PointRecord* find(const std::string& name) const;

  /// Stores `rec` (replacing a same-name record in place) and, when bound to
  /// a file, checkpoints the whole manifest atomically.
  void record(const PointRecord& rec);

  [[nodiscard]] const std::vector<PointRecord>& records() const { return records_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool bound() const { return !path_.empty(); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void save() const;

  std::string path_;
  std::string fingerprint_;
  std::vector<PointRecord> records_;
};

}  // namespace memsched::harness
