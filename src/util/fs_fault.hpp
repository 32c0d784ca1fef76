// Filesystem fault-injection seam for testing the persistence layer.
//
// util::atomic_file consults a thread-local hook object before touching the
// filesystem: the hook can shorten a write (exercising the partial-write
// loop) or fail an operation with a chosen errno (ENOSPC, EIO). No hook
// installed — the default — means zero behaviour change; the checks are a
// null-pointer test on a thread-local, so the production cost is negligible.
//
// The hook is deliberately THREAD-LOCAL and RAII-scoped (ScopedFsFaults):
// faults must be confined to the code path under test. A process-global hook
// would reach every writer in the process — the sweep manifest, timing
// sidecars, snapshots — not just the one a test means to break.
#pragma once

#include <cstddef>

namespace memsched::util {

/// Hook interface consulted by fault-aware filesystem code. The default
/// implementations are no-ops, so a hook only overrides what it perturbs.
class FsFaultHooks {
 public:
  virtual ~FsFaultHooks() = default;

  /// Upper bound for the byte count of one write(2) call. Returning less
  /// than `requested` forces a short write; implementations must return at
  /// least 1 so retry loops still make progress.
  [[nodiscard]] virtual std::size_t clamp_write(std::size_t requested) {
    return requested;
  }

  /// Errno to fail the named operation with ("open", "write", "fsync",
  /// "close", "rename"), or 0 to let it through.
  [[nodiscard]] virtual int fail_op(const char* op) {
    (void)op;
    return 0;
  }
};

/// The hooks installed for the current thread, or nullptr (the default).
[[nodiscard]] FsFaultHooks* fs_fault_hooks();

/// Installs `hooks` for the current thread, returning the previous value so
/// callers can restore it. Prefer ScopedFsFaults.
FsFaultHooks* set_fs_fault_hooks(FsFaultHooks* hooks);

/// RAII installer: hooks active inside the scope, previous hooks restored on
/// exit, so faults reach only the I/O issued inside it.
class ScopedFsFaults {
 public:
  explicit ScopedFsFaults(FsFaultHooks* hooks) : prev_(set_fs_fault_hooks(hooks)) {}
  ~ScopedFsFaults() { set_fs_fault_hooks(prev_); }
  ScopedFsFaults(const ScopedFsFaults&) = delete;
  ScopedFsFaults& operator=(const ScopedFsFaults&) = delete;

 private:
  FsFaultHooks* prev_;
};

}  // namespace memsched::util
