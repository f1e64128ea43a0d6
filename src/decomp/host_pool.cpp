#include "decomp/host_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace cj2k::decomp {

namespace {

using Task = std::function<void(std::size_t, std::size_t)>;

/// One parallel_for call.  Lives on the caller's stack; the caller leaves
/// only after taking the job out of the pool's queue and seeing its helper
/// count drop to zero, so no worker touches it afterwards.
struct Job {
  Job(const Task& f, std::size_t count) : fn(f), n(count) {}

  const Task& fn;
  const std::size_t n;
  std::atomic<std::size_t> next{0};  ///< Next index to hand out.
  std::atomic<bool> failed{false};   ///< Stops handing out indices.
  std::mutex error_mu;
  std::exception_ptr error;          ///< First failure; guarded by error_mu.
  // Guarded by Pool::mu_:
  std::size_t slots_taken = 1;       ///< The caller holds slot 0.
  std::size_t helpers = 0;           ///< Workers currently inside the job.

  bool exhausted() const {
    return failed.load(std::memory_order_relaxed) ||
           next.load(std::memory_order_relaxed) >= n;
  }

  /// Runs indices as `slot` until none are left or a call has failed.
  void drain(std::size_t slot) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i, slot);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  }
};

class Pool {
 public:
  Pool() : slots_(std::max(1u, std::thread::hardware_concurrency())) {}

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  std::size_t slots() const { return slots_; }

  void run(std::size_t n, const Task& fn) {
    if (n == 0) return;
    Job job(fn, n);
    const bool shared = n > 1 && slots_ > 1;
    if (shared) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        while (threads_.size() + 1 < slots_) {
          threads_.emplace_back([this] { work(); });
        }
        queue_.push_back(&job);
      }
      work_cv_.notify_all();
    }
    job.drain(0);
    if (shared) {
      std::unique_lock<std::mutex> lock(mu_);
      const auto it = std::find(queue_.begin(), queue_.end(), &job);
      if (it != queue_.end()) queue_.erase(it);
      done_cv_.wait(lock, [&] { return job.helpers == 0; });
    }
    if (job.error) std::rethrow_exception(job.error);
  }

 private:
  /// Worker loop: join the oldest job that still has indices and a free
  /// slot, drain it, repeat; park while there is none.
  void work() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      Job* job = queue_.front();
      if (job->exhausted()) {
        queue_.erase(queue_.begin());
        continue;
      }
      const std::size_t slot = job->slots_taken++;
      if (job->slots_taken == slots_) queue_.erase(queue_.begin());
      ++job->helpers;
      lock.unlock();
      job->drain(slot);
      lock.lock();
      if (--job->helpers == 0) done_cv_.notify_all();
    }
  }

  const std::size_t slots_;
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< Workers: a job was queued, or stop.
  std::condition_variable done_cv_;  ///< Callers: a job's last helper left.
  std::vector<Job*> queue_;          ///< Jobs open to helpers, oldest first.
  bool stop_ = false;
  std::vector<std::thread> threads_;  // Last: joined before the rest dies.
};

Pool& pool() {
  static Pool p;
  return p;
}

}  // namespace

std::size_t host_slots() { return pool().slots(); }

void parallel_for(std::size_t n, const Task& fn) { pool().run(n, fn); }

}  // namespace cj2k::decomp
