// cellcheck tier 3: a source-level lint pass for Cell-model violations the
// compiler cannot see.
//
// The pass is lexical (comments and string literals stripped, brace depth
// tracked), not a full parse — deliberately: it must stay dependency-free
// and fast enough to run as a ctest.  SPE-kernel regions are recognized by
// their parameter signature: any function or lambda taking a
// `cell::SpeContext&`, `cell::Simd&` or `cell::DmaEngine&` parameter is
// SPE-resident code (that is the repo's kernel calling convention), as is a
// function template taking one of its own type parameters by mutable
// reference — `template <class V> void k(V& s, ...)`, a kernel written once
// over a vector policy.  Inside such a region the SPE programming model
// applies:
//
//   spe-heap-alloc    — new/delete/malloc/free: SPE kernels own no heap;
//                       working memory comes from LocalStore::alloc.
//   spe-vector-growth — declaring std::vector or calling growth members
//                       (push_back/resize/...): hidden reallocation breaks
//                       the constant-Local-Store property of §2.
//   spe-mutex         — std::mutex/lock_guard/...: SPEs have no coherent
//                       shared memory; synchronization belongs to the PPE
//                       side of the work queue.
//   spe-thread        — std::thread: kernels do not spawn threads.
//   spe-trace-in-hot-loop — unconditional trace emission (emit_span/
//                       emit_instant/emit_flow_*/emit_counter) inside an
//                       SPE kernel: recording must never perturb the hot
//                       loop.  Gate the call on the same line (`if (trc)
//                       trc->emit_...`) or stage into the per-SPE
//                       DmaTraceLog and let the driver drain it after the
//                       stage joins (the pattern src/ uses; DESIGN.md §11).
//
// One rule applies everywhere, not just in SPE regions:
//
//   dma-literal-size  — a DMA call whose size argument is a bare integer
//                       literal >= 16 not derived from a named constant
//                       (kCacheLineBytes, kQuadWordBytes, DmaEngine::
//                       kMaxTransfer, ...) or sizeof: such sizes silently
//                       stop matching when the line geometry changes.
//                       Literals 1/2/4/8 (the MFC's naturally-aligned small
//                       transfers) are allowed.  The size argument is the
//                       last one for synchronous calls, the third for the
//                       *_async engine calls and the fourth for the
//                       dma_*_row_tagged helpers (the tag comes after it).
//                       Integer suffixes (0x80u, 4096UL) count as literals.
//
// The flow-aware tag-discipline pass (cellcheck tier 4) lives in flow.hpp
// and reuses the SPE-region scanner exposed below.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace cj2k::cellcheck {

struct Violation {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct LintOptions {
  /// Treat the whole input as one SPE region (used by rule unit tests).
  bool treat_all_as_spe = false;
};

/// Lints one translation unit given as text.  `path` is used only for
/// reporting.
std::vector<Violation> lint_source(const std::string& path,
                                   const std::string& text,
                                   const LintOptions& opt = {});

/// Reads and lints one file.  Throws cj2k-style std::runtime_error on I/O
/// failure.
std::vector<Violation> lint_file(const std::string& path,
                                 const LintOptions& opt = {});

/// Recursively lints every .cpp/.hpp/.h under `root` (skipping any path
/// component named "build*"), sorted by path for deterministic output.
std::vector<Violation> lint_tree(const std::string& root,
                                 const LintOptions& opt = {});

/// "file:line: [rule] message" per violation, one per line.
std::string format_violations(const std::vector<Violation>& vs);

/// Strips //- and /**/-comments and string/char literal contents (newlines
/// preserved).  Exposed for tests.
std::string strip_comments_and_strings(const std::string& text);

// --- Shared infrastructure (used by the tier-4 flow pass, flow.hpp) ---------

/// One outermost SPE-kernel region: the 1-based, inclusive line range over
/// which the SPE programming model applies (the line opening the region's
/// `{` is excluded, the line of the closing `}` included — matching the
/// per-line semantics the tier-3 rules always had).
struct SpeRegion {
  std::size_t first_line = 0;
  std::size_t last_line = 0;
};

/// Scans comment/string-stripped source text for SPE-kernel regions (any
/// function or lambda taking `SpeContext&` / `Simd&` / `DmaEngine&`, a
/// template taking its type parameter `V&`, or the body of a class that
/// stores a `DmaEngine&` member).
std::vector<SpeRegion> find_spe_regions(const std::string& stripped_text);

/// Splits a top-level argument list (text after the `(` at `open_pos`) into
/// arguments; returns false when the call does not close within `text`.
bool split_call_args(const std::string& text, std::size_t open_pos,
                     std::vector<std::string>& args, std::size_t& end_pos);

/// The .cpp/.hpp/.h files under `root` (skipping build*/ directories),
/// sorted by path for deterministic output.
std::vector<std::string> list_tree_sources(const std::string& root);

}  // namespace cj2k::cellcheck
