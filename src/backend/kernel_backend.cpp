#include "backend/kernel_backend.hpp"

#include "backend/native_simd.hpp"

namespace cj2k::backend {

const char* to_string(BackendKind kind) {
  return kind == BackendKind::kNative ? "native" : "cell";
}

bool parse(std::string_view name, BackendKind& out) {
  if (name == "cell") {
    out = BackendKind::kCellModel;
    return true;
  }
  if (name == "native") {
    out = BackendKind::kNative;
    return true;
  }
  return false;
}

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
