#pragma once

namespace topil {

/// Instruction-set levels that a kernel is compiled for as explicit
/// `__attribute__((target(...)))` variants of one template body. A caller
/// picks its variant once, from `widest_simd_isa()`, and calls it through a
/// plain function pointer: no ifunc resolver runs before main, so
/// sanitizers that must start first (TSan) can run the program.
enum class SimdIsa { Baseline, Avx2 };

/// Whether this CPU executes the `isa` variant.
inline bool cpu_supports(SimdIsa isa) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  switch (isa) {
    case SimdIsa::Avx2:
      return __builtin_cpu_supports("avx2");
    case SimdIsa::Baseline:
      return true;
  }
  return false;
#else
  return isa == SimdIsa::Baseline;
#endif
}

/// The widest variant this CPU executes.
inline SimdIsa widest_simd_isa() {
  return cpu_supports(SimdIsa::Avx2) ? SimdIsa::Avx2 : SimdIsa::Baseline;
}

}  // namespace topil
