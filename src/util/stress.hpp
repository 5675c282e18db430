// Global stress-hook point for schedule perturbation. The native pool
// (par::ThreadPool) calls gcg::stress_point() at every chunk boundary; in
// production the hook is null and the call is a single relaxed-ish
// atomic load plus an untaken branch. Test harnesses
// (check::StressSchedule) install a hook that injects deterministic,
// seeded yields/delays so sanitizers and parity tests explore far more
// interleavings than the OS scheduler would produce on its own.
//
// Install/uninstall MUST happen while the pools are quiescent (no
// parallel region in flight): workers dereference the hook object without
// taking a reference count, so tearing down a hook under running workers
// is a use-after-free. This is a test-only facility; the RAII wrapper in
// check/stress.hpp enforces the pairing.
#pragma once

#include "util/sync.hpp"

namespace gcg {

/// A perturbation callback plus the state it needs. The installer retains
/// ownership of both; the object must outlive the installation.
struct StressHook {
  void (*fn)(void* state, unsigned worker);
  void* state;
};

namespace detail {
extern sync::atomic<const StressHook*> g_stress_hook;
}  // namespace detail

/// Install `hook` (callers keep ownership; pass nullptr to uninstall).
/// Only legal while no parallel region is running.
void install_stress_hook(const StressHook* hook);

/// True if a hook is currently installed (diagnostics/tests).
bool stress_hook_installed();

/// Called by the pools at chunk boundaries. Near-free when no hook is
/// installed.
inline void stress_point(unsigned worker) {
  // order: acquire pairs with the release store in install_stress_hook so
  // a worker that observes the pointer also observes the pointee's fields.
  const StressHook* h = detail::g_stress_hook.load(std::memory_order_acquire);
  if (h != nullptr) h->fn(h->state, worker);
}

}  // namespace gcg
