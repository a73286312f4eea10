#include "exp/batch_runner.hpp"

#include <algorithm>
#include <thread>

namespace rthv::exp {

std::size_t hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

BatchRunner::BatchRunner(BatchOptions options) : options_(options) {
  if (options_.jobs == 0) options_.jobs = hardware_jobs();
  if (options_.chunk == 0) options_.chunk = 1;
}

std::vector<std::vector<RunRange>> plan_shards(std::size_t count, std::size_t chunk,
                                               std::size_t jobs) {
  if (chunk == 0) chunk = 1;
  if (jobs == 0) jobs = 1;
  std::vector<std::vector<RunRange>> shards(jobs);
  const std::size_t num_chunks = ceil_div(count, chunk);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    // Floor-division deal: worker w owns the contiguous chunk interval
    // [w*num_chunks/jobs, (w+1)*num_chunks/jobs) -- shard sizes differ by
    // at most one and lower indices go to lower workers.
    const std::size_t owner = c * jobs / num_chunks;
    const std::size_t begin = c * chunk;
    shards[owner].push_back(RunRange{begin, begin + std::min(chunk, count - begin)});
  }
  return shards;
}

}  // namespace rthv::exp
