// SpeedLLM -- host-side worker pool for data-parallel kernels.
//
// The CPU reference model and the quantized kernels split matmul rows
// across a fixed pool of workers (fork/join, static partitioning -- the
// shapes are regular so dynamic scheduling buys nothing and costs sync).
// The discrete-event simulator and the serving layers above it are
// single-threaded; only these kernels fan out.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace speedllm {

/// Fixed-size fork/join thread pool.
///
/// ParallelFor blocks until the whole batch completes. Nested calls
/// from inside a pool task run inline on the calling worker (detected via
/// a thread-local flag, so detection works even when the nested call
/// arrives through a different code path than the outer one). Distinct
/// external threads may call into the same pool concurrently: callers
/// serialize on an internal mutex, so each batch still gets the full pool
/// rather than silently degrading to inline execution.
class ThreadPool {
 public:
  /// threads == 0 picks hardware_concurrency (at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Runs fn(begin, end) over [0, n) split into roughly equal contiguous
  /// chunks, one per pool thread (the calling thread works too). Blocks
  /// until every chunk finishes. fn must be safe to call concurrently.
  /// Small ranges (n < 2 * num_threads()) run inline on the caller.
  void ParallelFor(std::int64_t n,
                   const std::function<void(std::int64_t, std::int64_t)>& fn);

  /// Process-wide pool sized to the machine; lazily constructed.
  static ThreadPool& Global();

 private:
  struct Task {
    const std::function<void(std::int64_t, std::int64_t)>* fn = nullptr;
    std::int64_t begin = 0;
    std::int64_t end = 0;
  };

  void WorkerLoop(unsigned worker_index);

  std::vector<std::thread> workers_;
  std::mutex caller_mu_;          // serializes concurrent external callers
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  std::vector<Task> tasks_;       // one slot per worker
  std::uint64_t epoch_ = 0;       // bumped per batch
  unsigned pending_ = 0;          // workers still running current batch
  bool shutdown_ = false;
};

}  // namespace speedllm
