#pragma once
// Deterministic parallel execution for the evaluation pipeline.
//
// Everything SparkXD parallelizes is an index-addressed batch of independent
// work items (supply voltages of a sweep, Monte-Carlo fault-injection
// trials, test samples, burst chunks of a placement). parallel_for runs such
// a batch across worker threads with a shared atomic cursor. Determinism is
// a caller-side contract the whole framework follows: a work item never
// shares an Rng with its siblings — it forks its own stream from the item
// index (see Rng::fork / hash_combine) and writes only to its own output
// slot. Under that contract the result is bit-identical at every thread
// count, which tests/parallel_test.cpp locks in for the full pipeline.
//
// The worker count comes from the SPARKXD_THREADS env knob (common/env);
// SPARKXD_THREADS=1 restores the plain serial loop. Nested parallel_for
// calls (e.g. fault-injection trials inside a per-voltage sweep) execute
// inline on the calling worker, so the pool never oversubscribes and never
// deadlocks on itself.

#include <cstddef>
#include <functional>

namespace sparkxd {

/// Runs body(0) .. body(n-1) across up to thread_count() workers (dynamic
/// scheduling). Items must be independent and must not share mutable state
/// (fork Rng streams per item, write per-item slots). The first exception
/// thrown by any item is rethrown on the caller after all workers stop.
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// Number of contiguous ranges parallel_for_chunks splits [0, n) into:
/// min(thread_count(), max(n, 1)), or 1 inside a parallel region (nested
/// calls run inline, so splitting would only multiply per-chunk setup).
/// Size per-chunk output buffers with this, in the same scope that calls
/// parallel_for_chunks.
[[nodiscard]] std::size_t parallel_chunk_count(std::size_t n);

/// Splits [0, n) into contiguous ascending ranges and runs
/// body(begin, end, chunk_index) for each, in parallel. Use when per-item
/// work is small (amortizes per-item overhead) or when each worker needs a
/// private copy of some state (build it once per chunk). Concatenating
/// per-chunk outputs in chunk order always yields ascending item order,
/// independent of the thread count.
///
/// `n_chunks` = 0 uses parallel_chunk_count(n). Callers that size per-chunk
/// output buffers MUST pass the count they sized for — the knob behind
/// parallel_chunk_count is re-read from the environment on every call, so
/// two separate calls are not guaranteed to agree.
void parallel_for_chunks(
    const std::size_t n,
    const std::function<void(std::size_t begin, std::size_t end,
                             std::size_t chunk)>& body,
    std::size_t n_chunks = 0);

}  // namespace sparkxd
