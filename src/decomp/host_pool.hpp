// The process-wide host worker pool (DESIGN.md §15): the paper's work queue
// over independent items (§3.2) on the host's cores, shared by every
// data-parallel loop that runs real host work — the SPE stages of
// cell::Machine, Tier-1 block coding, Tier-2 precinct streams and the
// decoder's blocks, inverse DWT and inverse colour transform.  It is the
// only place on the encode and decode paths that starts threads.
//
// Contract:
//  * parallel_for(n, fn) calls fn(index, slot) exactly once for every
//    index in [0, n) and returns when all calls have finished.
//  * slot < host_slots(), and no two threads share a slot within one call,
//    so fn may keep per-slot scratch in an array indexed by slot.  Which
//    index runs on which slot is not deterministic; results must not
//    depend on it.
//  * The calling thread drains its own job (as slot 0), so nested calls —
//    a parallel_for inside fn — and concurrent callers always progress,
//    however busy the workers are.
//  * After a call of fn throws, the job hands out no further indices.
//    Once every helper has left the job, the first exception is rethrown on
//    the caller with its original type.
//  * The host_slots() − 1 worker threads start on the first parallel_for
//    with more than one index, park on a condition variable while idle
//    (never spinning) and are joined at exit.  There is no size option.
#pragma once

#include <cstddef>
#include <functional>

namespace cj2k::decomp {

/// Slots per parallel_for: the calling thread plus the pool's workers,
/// max(1, std::thread::hardware_concurrency()).
std::size_t host_slots();

/// Runs fn(index, slot) for every index in [0, n) on the host pool (see the
/// contract above).
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace cj2k::decomp
