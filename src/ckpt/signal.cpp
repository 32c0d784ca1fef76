#include "ckpt/signal.hpp"

namespace memsched::ckpt {

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_stop_signal(int /*signo*/) { g_stop = 1; }

}  // namespace

void install_stop_handlers() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  struct sigaction sa = {};
  sa.sa_handler = on_stop_signal;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

const volatile std::sig_atomic_t& stop_flag() { return g_stop; }

bool stop_requested() { return g_stop != 0; }

void reset_stop_for_tests() { g_stop = 0; }

}  // namespace memsched::ckpt
