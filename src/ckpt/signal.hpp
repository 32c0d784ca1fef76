// Cooperative stop signal plumbing for SIGTERM/SIGINT.
//
// The handler only sets a sig_atomic_t flag (async-signal-safe); the
// simulation loop polls the flag at its watchdog cadence and performs the checkpoint-and-exit on the normal
// call stack, where throwing and file I/O are legal.
#pragma once

#include <csignal>

namespace memsched::ckpt {

/// Installs SIGTERM and SIGINT handlers that set the stop flag. Idempotent.
void install_stop_handlers();

/// The flag the handlers set; nonzero once a stop signal arrived. Pass
/// &stop_flag() — i.e. this reference — as CheckpointPolicy::stop.
const volatile std::sig_atomic_t& stop_flag();

/// True once a stop signal arrived.
bool stop_requested();

/// Clears the flag so tests can raise() a signal and then recover.
void reset_stop_for_tests();

}  // namespace memsched::ckpt
