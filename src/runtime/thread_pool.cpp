#include "runtime/thread_pool.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <utility>

namespace iprune::runtime {

namespace {

/// Set while a thread is executing pool work, so nested parallel_for
/// calls degrade to inline serial loops instead of deadlocking on the
/// queue they are themselves draining.
thread_local bool t_in_pool_task = false;

std::size_t hardware_lane_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) {
    return 1;
  }
  return hw > 16 ? 16 : static_cast<std::size_t>(hw);
}

}  // namespace

std::size_t parse_lane_count(const char* text, std::size_t fallback,
                             std::string* warning) {
  char* end = nullptr;
  const unsigned long value =
      text != nullptr ? std::strtoul(text, &end, 10) : 0;
  if (text != nullptr && end != text && *end == '\0' && value >= 1 &&
      value <= 256) {
    return static_cast<std::size_t>(value);
  }
  if (warning != nullptr) {
    *warning = "IPRUNE_THREADS='" +
               std::string(text != nullptr ? text : "") +
               "' is not an integer in [1, 256]; falling back to " +
               std::to_string(fallback) + " lane(s)";
  }
  return fallback;
}

std::size_t default_lane_count() {
  const std::size_t fallback = hardware_lane_count();
  const char* env = std::getenv("IPRUNE_THREADS");
  if (env == nullptr) {
    return fallback;
  }
  std::string warning;
  const std::size_t lanes = parse_lane_count(env, fallback, &warning);
  if (!warning.empty()) {
    // Warn once per process: default_lane_count() runs again for every
    // explicitly constructed pool, and a warning per pool would drown the
    // bench output the misconfiguration actually matters for.
    static bool warned = [&warning] {
      std::fprintf(stderr, "iprune: warning: %s\n", warning.c_str());
      return true;
    }();
    (void)warned;
  }
  return lanes;
}

/// Shared state of one parallel_for call. Participants (worker tasks plus
/// the calling thread) claim indices in ascending order from `next` and
/// record the lowest failing index; the caller waits until nothing is
/// running and nothing more will be claimed.
struct ThreadPool::ForLoop {
  std::size_t count = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::mutex mutex;
  std::condition_variable done;
  std::size_t next = 0;    // next unclaimed index
  std::size_t active = 0;  // bodies currently executing
  bool has_error = false;
  std::size_t error_index = 0;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(std::size_t lanes) {
  if (lanes == 0) {
    lanes = 1;
  }
  workers_.reserve(lanes - 1);
  for (std::size_t i = 0; i + 1 < lanes; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::worker_main() {
  t_in_pool_task = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping, queue drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::run_loop(ForLoop& loop) {
  std::unique_lock<std::mutex> lock(loop.mutex);
  while (loop.next < loop.count && !loop.has_error) {
    const std::size_t index = loop.next++;
    ++loop.active;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*loop.body)(index);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    --loop.active;
    if (error != nullptr && (!loop.has_error || index < loop.error_index)) {
      // Indices are claimed in ascending order, so the lowest-index error
      // is always claimed (and recorded) before the loop drains: the
      // rethrown error matches the serial loop's.
      loop.has_error = true;
      loop.error_index = index;
      loop.error = error;
    }
  }
  if (loop.active == 0) {
    loop.done.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) {
    return;
  }
  const std::size_t helpers =
      count > 1 ? std::min(workers_.size(), count - 1) : 0;
  if (helpers == 0 || t_in_pool_task) {
    // Serial path: ascending order, first error propagates immediately.
    for (std::size_t index = 0; index < count; ++index) {
      body(index);
    }
    return;
  }

  auto loop = std::make_shared<ForLoop>();
  loop->count = count;
  loop->body = &body;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < helpers; ++i) {
      queue_.emplace_back([loop] { run_loop(*loop); });
    }
  }
  wake_.notify_all();

  run_loop(*loop);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(loop->mutex);
    loop->done.wait(lock, [&] {
      return loop->active == 0 &&
             (loop->next >= loop->count || loop->has_error);
    });
    // A helper that wakes late may drop the last reference to the loop
    // state; taking the error out under the lock keeps the exception
    // object owned by this thread alone while the caller reads it.
    error = std::move(loop->error);
  }
  // `body` outlives every claimed index from here on: helper tasks that
  // wake late see next >= count (or has_error) and exit without touching
  // it; the shared_ptr keeps the loop state itself alive for them.
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

ThreadPool& ThreadPool::resolve(ThreadPool* pool) {
  return pool != nullptr ? *pool : shared();
}

}  // namespace iprune::runtime
