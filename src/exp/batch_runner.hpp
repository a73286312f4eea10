// Work-stealing campaign executor: the one engine every sweep, figure and
// batched campaign runs on.
//
// BatchRunner::map(count, fn) evaluates fn(0) .. fn(count-1); each call
// builds whatever it simulates (a HypervisorSystem per ablation row, a
// MulticoreSystem per interference row). BatchRunner::map(pool, count, fn)
// evaluates fn(i, system) where `system` is a pooled HypervisorSystem reset
// to its pristine pre-start state before every call (see SystemPool), so a
// same-topology campaign pays O(workers) constructions instead of O(runs).
// Both entry points share one loop: run indices are grouped into chunks and
// distributed over per-worker deques; a worker drains its own deque
// front-to-back and, when empty, steals a chunk from the *back* of another
// worker's deque -- the classic owner-FIFO/thief-LIFO split that keeps
// owners on their own cache-warm index range while idle workers take work
// farthest from the owner's current position.
//
// Requirements on fn: invoking it concurrently from several workers must be
// safe (treat captured state as read-only; construct simulators and
// generators inside the call, or use the leased pooled system).
//
// Determinism argument (the jobs-identity property): every run's inputs
// are a pure function of its index (seeds via derive_seed(), params via
// campaign tables) and, on the pooled entry point, of a pristine system
// state that is bit-identical on every slot (proven by the warm-start
// differential tests). Stealing only changes WHICH worker executes a chunk
// and WHEN -- never the per-index inputs -- and results land in a per-index
// slot merged in index order, so the output is bit-identical for any jobs
// count, chunk size, or steal interleaving. Errors rethrow
// lowest-index-first like a sequential run.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "exp/system_pool.hpp"

namespace rthv::exp {

struct BatchOptions {
  /// Worker threads; 0 = hardware_jobs(). Results are bit-identical for any
  /// value.
  std::size_t jobs = 1;
  /// Largest number of run indices per work item. Small chunks steal at
  /// finer grain (better tail balance), large chunks amortize deque
  /// traffic. A campaign too short to give every worker a full chunk is
  /// cut into smaller ones, so `jobs` workers always get work.
  std::size_t chunk = 16;
};

/// std::thread::hardware_concurrency with a fallback of 1.
[[nodiscard]] std::size_t hardware_jobs();

struct BatchStats {
  std::uint64_t runs = 0;
  std::uint64_t chunks = 0;
  std::uint64_t steals = 0;  // chunks executed by a non-owner worker
  SystemPool::Stats pool;    // pooled entry point only

  /// Fraction of chunks executed by a thief rather than their owner; 0 on
  /// a single worker or a perfectly balanced campaign.
  [[nodiscard]] double steal_ratio() const {
    return chunks == 0 ? 0.0 : static_cast<double>(steals) / static_cast<double>(chunks);
  }
};

/// A contiguous run-index chunk [begin, end).
struct RunRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// ceil(a / b) without the `a + b - 1` overflow; b must be non-zero.
[[nodiscard]] constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return a / b + (a % b != 0 ? 1 : 0);
}

/// Splits `count` run indices into `chunk`-sized RunRanges and deals them
/// out as one contiguous shard per worker (worker 0 gets the lowest chunks).
/// Every index appears exactly once; empty shards are legal when
/// jobs > ceil(count/chunk).
[[nodiscard]] std::vector<std::vector<RunRange>> plan_shards(std::size_t count,
                                                             std::size_t chunk,
                                                             std::size_t jobs);

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  [[nodiscard]] std::size_t jobs() const { return options_.jobs; }

  /// Runs fn(i) for every index; returns results in run-index order.
  template <typename Fn>
  auto map(std::size_t count, Fn fn) -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    return run<std::invoke_result_t<Fn&, std::size_t>>(
        count, [&fn] { return [&fn](std::size_t i) { return fn(i); }; });
  }

  /// Runs fn(i, system) for every index on systems leased from `pool`, one
  /// lease per worker, taken when the worker gets its first run; returns
  /// results in run-index order. Stats of the last map() call are
  /// available from stats() afterwards.
  template <typename Fn>
  auto map(SystemPool& pool, std::size_t count, Fn fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t, core::HypervisorSystem&>> {
    auto results = run<std::invoke_result_t<Fn&, std::size_t, core::HypervisorSystem&>>(
        count, [&fn, &pool] {
          return [&fn, &pool, lease = SystemPool::Lease{}](std::size_t i) mutable {
            if (!lease.valid()) lease = pool.acquire();
            return fn(i, lease.begin_run());
          };
        });
    stats_.pool = pool.stats();
    return results;
  }

  [[nodiscard]] const BatchStats& stats() const { return stats_; }

 private:
  /// The shared loop. `make_body()` runs once on each worker's own thread
  /// and returns the per-index callable, which owns that worker's resources
  /// (e.g. its pool lease) for the whole campaign.
  template <typename R, typename MakeBody>
  std::vector<R> run(std::size_t count, MakeBody make_body) {
    stats_ = BatchStats{};
    stats_.runs = count;
    if (count == 0) return {};

    struct WorkDeque {
      std::mutex mutex;
      std::deque<RunRange> chunks;
    };
    const std::size_t chunk = std::min(options_.chunk, ceil_div(count, options_.jobs));
    const auto shards =
        plan_shards(count, chunk, std::min(options_.jobs, ceil_div(count, chunk)));
    std::vector<WorkDeque> deques(shards.size());
    for (std::size_t w = 0; w < shards.size(); ++w) {
      deques[w].chunks.assign(shards[w].begin(), shards[w].end());
    }

    std::vector<std::optional<R>> produced(count);
    std::mutex error_mutex;
    std::size_t first_error_index = count;
    std::exception_ptr first_error;
    std::atomic<std::uint64_t> executed_chunks{0};
    std::atomic<std::uint64_t> stolen_chunks{0};

    auto worker = [&](std::size_t me) {
      auto body = make_body();
      for (;;) {
        std::optional<RunRange> range;
        bool stolen = false;
        {
          const std::lock_guard<std::mutex> lock(deques[me].mutex);
          if (!deques[me].chunks.empty()) {
            range = deques[me].chunks.front();
            deques[me].chunks.pop_front();
          }
        }
        for (std::size_t k = 1; k < deques.size() && !range; ++k) {
          WorkDeque& victim = deques[(me + k) % deques.size()];
          const std::lock_guard<std::mutex> lock(victim.mutex);
          if (!victim.chunks.empty()) {
            range = victim.chunks.back();
            victim.chunks.pop_back();
            stolen = true;
          }
        }
        if (!range) break;  // every deque empty: the campaign is drained
        executed_chunks.fetch_add(1, std::memory_order_relaxed);
        if (stolen) stolen_chunks.fetch_add(1, std::memory_order_relaxed);
        for (std::size_t i = range->begin; i < range->end; ++i) {
          try {
            produced[i].emplace(body(i));
          } catch (...) {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (i < first_error_index) {
              first_error_index = i;
              first_error = std::current_exception();
            }
          }
        }
      }
    };

    if (deques.size() == 1) {
      worker(0);  // single worker: run inline on the calling thread
    } else {
      // jthreads join on destruction -- also when starting a later worker
      // throws, in which case the started ones drain every deque first.
      std::vector<std::jthread> threads;
      threads.reserve(deques.size());
      for (std::size_t w = 0; w < deques.size(); ++w) threads.emplace_back(worker, w);
    }

    stats_.chunks = executed_chunks.load(std::memory_order_relaxed);
    stats_.steals = stolen_chunks.load(std::memory_order_relaxed);
    // Deterministic error reporting: rethrow the lowest-index failure,
    // matching what a sequential campaign would have thrown first.
    if (first_error) std::rethrow_exception(first_error);

    std::vector<R> results;
    results.reserve(count);
    for (auto& slot : produced) results.push_back(std::move(*slot));
    return results;
  }

  BatchOptions options_;
  BatchStats stats_;
};

}  // namespace rthv::exp
