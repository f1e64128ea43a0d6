// Kernel backend selection.  Every SPE row kernel (cellenc/kernels.hpp) is
// written once, as a template over a vector policy, and instantiated twice:
//
//  * cell::Simd — the counting Cell model.  Every op does the real 4-lane
//    arithmetic AND charges the SPE's op counters, so this instantiation is
//    the *timing truth* the simulated seconds come from.
//  * backend::HostVec (native_simd.hpp) — the same method names lowered to
//    SSE2/NEON, or to cell::Simd's lane loops uncounted elsewhere.  It
//    charges nothing; under it the simulated seconds of the SIMD stages
//    collapse and only the host wall clock is meaningful.
//
// A stage entry point (stage_mct*, stage_dwt*, stage_quant*) reads its
// BackendKind once and runs the matching instantiation; nothing dispatches
// per row.  The encoder always counts; kNative serves the kernel tests and
// the repository benchmark's counted-against-uncounted layer.  Byte identity between the two is structural — one kernel body —
// plus the lowering contract in native_simd.hpp; the golden vectors and the
// serial jp2k encoder remain the oracle both are tested against.
#pragma once

namespace cj2k::backend {

enum class BackendKind {
  kCellModel,  ///< Counting cell::Simd instantiation (timing truth; default).
  kNative,     ///< HostVec instantiation (wall-clock truth; no op counters).
};

/// A backend is fully described by its kind; the name stays for callers
/// that pass one to the stage entry points.
using KernelBackend = BackendKind;

constexpr KernelBackend cell_model() { return BackendKind::kCellModel; }
constexpr KernelBackend get(BackendKind kind) { return kind; }

/// Which instruction set HostVec was compiled against: "sse2", "neon", or
/// "scalar".
const char* native_isa();

}  // namespace cj2k::backend
