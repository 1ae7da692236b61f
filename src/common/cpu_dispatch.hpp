#pragma once

#include "common/error.hpp"

namespace topil {

/// Instruction-set levels that every vector kernel is compiled for, each
/// level including the ones before it. Production calls run the
/// `widest_simd_isa()` variant; tests and benchmarks name a level to run
/// any other the CPU executes. No ifunc resolver runs before main, so
/// sanitizers that must start first (TSan) can run the program.
enum class SimdIsa { Baseline, Avx2, Avx512f };

/// The widest level this CPU executes, detected once per process.
inline SimdIsa widest_simd_isa() {
#if defined(__x86_64__)
  static const SimdIsa widest = [] {
    __builtin_cpu_init();
    if (!__builtin_cpu_supports("avx2")) return SimdIsa::Baseline;
    return __builtin_cpu_supports("avx512f") ? SimdIsa::Avx512f
                                             : SimdIsa::Avx2;
  }();
  return widest;
#else
  return SimdIsa::Baseline;
#endif
}

/// Whether this CPU executes the `isa` variant.
inline bool cpu_supports(SimdIsa isa) { return isa <= widest_simd_isa(); }

// The variants of a vector kernel. A kernel is a value whose
// `template <SimdIsa> run()` member is `[[gnu::always_inline]]`, so each
// variant compiles that one body for its own instruction set and register
// width. These are the only functions compiled for more than the
// baseline. Each is its own 64-byte-aligned entry, so code linked ahead of
// it cannot shift its loops (tools/hot_symbols.sh).
template <typename Kernel>
__attribute__((noinline, aligned(64))) void run_baseline(Kernel kernel) {
  kernel.template run<SimdIsa::Baseline>();
}

#if defined(__x86_64__)
template <typename Kernel>
__attribute__((target("avx2"), noinline, aligned(64))) void run_avx2(
    Kernel kernel) {
  kernel.template run<SimdIsa::Avx2>();
}

template <typename Kernel>
__attribute__((target("avx512f"), noinline, aligned(64))) void run_avx512f(
    Kernel kernel) {
  kernel.template run<SimdIsa::Avx512f>();
}
#endif

/// Runs the `isa` variant of `kernel`, or its `kWidest` variant where
/// `isa` is wider (a kernel whose wider variant would be no faster has
/// none). Throws InvalidArgument where this CPU cannot run `isa`.
template <SimdIsa kWidest = SimdIsa::Avx512f, typename Kernel>
void run_simd(const Kernel& kernel, SimdIsa isa) {
  TOPIL_REQUIRE(cpu_supports(isa),
                "this CPU cannot run the requested instruction-set variant");
#if defined(__x86_64__)
  if constexpr (kWidest == SimdIsa::Avx512f) {
    if (isa == SimdIsa::Avx512f) return run_avx512f(kernel);
  }
  if (isa >= SimdIsa::Avx2) return run_avx2(kernel);
#endif
  run_baseline(kernel);
}

}  // namespace topil
