#pragma once

#include <string>
#include <vector>

#include "common/cpu_dispatch.hpp"

namespace topil {

/// Every instruction-set variant this CPU runs, narrowest first: the
/// variants a bit-identity test checks against its scalar reference.
inline std::vector<SimdIsa> executable_isas() {
  std::vector<SimdIsa> isas;
  for (const SimdIsa isa :
       {SimdIsa::Baseline, SimdIsa::Avx2, SimdIsa::Avx512f}) {
    if (cpu_supports(isa)) isas.push_back(isa);
  }
  return isas;
}

inline std::string isa_name(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::Avx512f:
      return "avx512f";
    case SimdIsa::Avx2:
      return "avx2";
    case SimdIsa::Baseline:
      return "baseline";
  }
  return "?";
}

}  // namespace topil
