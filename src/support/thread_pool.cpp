#include "support/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <memory>

namespace cypress {

ThreadPool::ThreadPool(unsigned workers) {
  target_ = std::max(1u, workers);
  workers_.reserve(target_);
  for (unsigned i = 0; i < target_; ++i)
    workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::tryRunOne() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::workerLoop(unsigned id) {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this, id] {
        return stop_ || id >= target_ || !queue_.empty();
      });
      if (id >= target_) return;   // retired by resize(); others drain
      if (queue_.empty()) return;  // stop_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::resize(unsigned workers) {
  workers = std::max(1u, workers);
  std::vector<std::thread> retired;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (workers == target_) return;
    if (workers < target_) {
      for (size_t i = workers; i < workers_.size(); ++i)
        retired.push_back(std::move(workers_[i]));
      workers_.resize(workers);
    } else {
      for (unsigned i = target_; i < workers; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
    }
    target_ = workers;
  }
  cv_.notify_all();
  // A retired worker may be mid-task; it exits after finishing it.
  for (auto& t : retired) t.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

void ThreadPool::configureShared(unsigned workers) { shared().resize(workers); }

void parallelFor(size_t n, int threads, const std::function<void(size_t)>& fn,
                 ThreadPool* pool) {
  if (n == 0) return;
  const size_t lanes =
      std::min(n, static_cast<size_t>(std::max(threads, 1)));
  if (lanes <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (pool == nullptr) pool = &ThreadPool::shared();

  struct State {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining;
    std::vector<std::exception_ptr> errors;
  };
  auto st = std::make_shared<State>();
  st->remaining = lanes - 1;
  st->errors.resize(lanes);

  // Lane `lane` owns the contiguous index chunk [n*lane/lanes,
  // n*(lane+1)/lanes); a throwing index aborts only its own lane, like
  // the sequential loop would abort everything after it.
  auto runLane = [&fn, n, lanes](size_t lane, std::exception_ptr& err) {
    const size_t lo = n * lane / lanes;
    const size_t hi = n * (lane + 1) / lanes;
    try {
      for (size_t i = lo; i < hi; ++i) fn(i);
    } catch (...) {
      err = std::current_exception();
    }
  };

  for (size_t lane = 1; lane < lanes; ++lane) {
    pool->enqueue([st, lane, runLane] {
      runLane(lane, st->errors[lane]);
      {
        std::lock_guard<std::mutex> lk(st->mu);
        --st->remaining;
      }
      st->cv.notify_all();
    });
  }

  runLane(0, st->errors[0]);
  // Help drain the pool while waiting: the queued task we run may be a
  // lane of ours, a lane of a nested fan-out, or unrelated work — any of
  // them is progress, and it keeps a fully-blocked pool impossible.
  // Once every lane is done the errors move out under the lock: a worker
  // may still hold the last reference to `st`, and every exception_ptr
  // must be released on this thread, not in the State a worker frees.
  std::vector<std::exception_ptr> errors;
  while (true) {
    {
      std::lock_guard<std::mutex> lk(st->mu);
      if (st->remaining == 0) {
        errors = std::move(st->errors);
        break;
      }
    }
    if (!pool->tryRunOne()) {
      std::unique_lock<std::mutex> lk(st->mu);
      st->cv.wait_for(lk, std::chrono::milliseconds(1),
                      [&] { return st->remaining == 0; });
    }
  }
  for (const auto& err : errors)
    if (err) std::rethrow_exception(err);
}

}  // namespace cypress
