// Blessed wall-clock access for the harness layer.
//
// Simulated behaviour must never depend on host time — the byte-identical
// report/resume contracts (docs/robustness.md) hinge on it. Real time is
// still legitimately needed *around* the simulation: watchdog deadlines,
// retry backoff, ETA tickers, wall-clock columns in timing sidecars. All of
// that goes through this header, and memsched-lint (det-banned-call) bans
// raw std::chrono `*_clock::now()` everywhere else, so any host-time read
// that could leak into simulated state shows up in review as either a call
// into this file or an explicit suppression.
//
// Keep this wrapper thin and *obviously* side-effect free: it must never
// feed a value into Request/DRAM/scheduler state.
#pragma once

#include <chrono>

namespace memsched::util {

/// The one clock the harness uses: monotonic, immune to NTP steps.
using MonotonicClock = std::chrono::steady_clock;
using MonotonicTime = MonotonicClock::time_point;
using MonotonicDuration = MonotonicClock::duration;

/// The blessed "what time is it" — grep for callers to audit every
/// wall-clock read in the tree.
[[nodiscard]] inline MonotonicTime monotonic_now() { return MonotonicClock::now(); }

[[nodiscard]] inline double ms_between(MonotonicTime start, MonotonicTime end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

[[nodiscard]] inline double seconds_between(MonotonicTime start, MonotonicTime end) {
  return std::chrono::duration<double>(end - start).count();
}

[[nodiscard]] inline MonotonicDuration seconds_to_duration(double seconds) {
  return std::chrono::duration_cast<MonotonicDuration>(
      std::chrono::duration<double>(seconds));
}

}  // namespace memsched::util
