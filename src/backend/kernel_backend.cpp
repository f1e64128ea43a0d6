#include "backend/kernel_backend.hpp"

#include "backend/native_simd.hpp"

namespace cj2k::backend {

const char* native_isa() {
#if defined(CJ2K_NATIVE_ISA_SSE2)
  return "sse2";
#elif defined(CJ2K_NATIVE_ISA_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

}  // namespace cj2k::backend
