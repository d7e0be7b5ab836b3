#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hpp"

namespace sparkxd {

namespace {
thread_local bool tl_in_parallel = false;
}  // namespace

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t k = std::min(thread_count(), n);
  if (k <= 1 || tl_in_parallel) {
    // Serial path (SPARKXD_THREADS=1, single item, or nested inside a
    // worker): same items in the same index order, no threads.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex err_mutex;
  std::exception_ptr first_error;

  const auto worker = [&]() {
    tl_in_parallel = true;
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(err_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
    tl_in_parallel = false;
  };

  std::vector<std::thread> threads;
  threads.reserve(k - 1);
  try {
    for (std::size_t t = 0; t + 1 < k; ++t) threads.emplace_back(worker);
  } catch (...) {
    // Thread exhaustion: degrade to however many workers started (plus the
    // caller) — items are pulled from the shared cursor either way. Without
    // this, unwinding past joinable threads would std::terminate.
  }
  worker();  // the caller is worker k-1
  tl_in_parallel = false;
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::size_t parallel_chunk_count(std::size_t n) {
  // Nested calls run inline on one worker, so splitting would only multiply
  // per-chunk setup (e.g. private state copies) with no parallelism to
  // show for it. Results are chunk-partition invariant by contract.
  if (tl_in_parallel) return 1;
  return std::min(thread_count(), std::max<std::size_t>(n, 1));
}

void parallel_for_chunks(
    const std::size_t n,
    const std::function<void(std::size_t begin, std::size_t end,
                             std::size_t chunk)>& body,
    std::size_t n_chunks) {
  if (n == 0) return;
  const std::size_t k =
      n_chunks ? std::min(n_chunks, std::max<std::size_t>(n, 1))
               : parallel_chunk_count(n);
  parallel_for(k, [&](std::size_t c) {
    const std::size_t begin = c * n / k;
    const std::size_t end = (c + 1) * n / k;
    if (begin < end) body(begin, end, c);
  });
}

}  // namespace sparkxd
