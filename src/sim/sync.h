// Synchronization primitives bridging callback-style completion (timers,
// packet arrival) into coroutines: one-shot futures, counting semaphores and
// wait groups. Single-threaded (see task.h); "blocking" means suspending the
// awaiting coroutine until another simulation event completes it.
#ifndef RENONFS_SRC_SIM_SYNC_H_
#define RENONFS_SRC_SIM_SYNC_H_

#include <coroutine>
#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "src/util/logging.h"

namespace renonfs {

// One-shot future/promise pair. Exactly one producer calls Set; at most one
// consumer awaits. Setting before the await is fine (value is buffered).
template <typename T>
class SimFuture {
 public:
  struct State {
    std::optional<T> value;
    std::coroutine_handle<> waiter;
  };

  SimFuture() : state_(std::make_shared<State>()) {}

  struct Awaiter {
    std::shared_ptr<State> state;
    bool await_ready() const noexcept { return state->value.has_value(); }
    void await_suspend(std::coroutine_handle<> handle) const noexcept {
      CHECK(!state->waiter) << "SimFuture awaited twice";
      state->waiter = handle;
    }
    T await_resume() const { return std::move(*state->value); }
  };
  Awaiter operator co_await() const { return Awaiter{state_}; }

  std::shared_ptr<State> state() const { return state_; }

 private:
  std::shared_ptr<State> state_;
};

template <typename T>
class SimPromise {
 public:
  SimPromise() = default;
  explicit SimPromise(const SimFuture<T>& future) : state_(future.state()) {}

  void Set(T value) {
    CHECK(state_) << "SimPromise with no future";
    CHECK(!state_->value.has_value()) << "SimPromise set twice";
    state_->value.emplace(std::move(value));
    if (state_->waiter) {
      auto waiter = std::exchange(state_->waiter, nullptr);
      waiter.resume();
    }
  }

  bool valid() const { return state_ != nullptr; }

 private:
  std::shared_ptr<typename SimFuture<T>::State> state_;
};

// Counting semaphore with FIFO wakeup. Models bounded concurrency resources
// such as the client's pool of biod daemons or the server's nfsd slots.
class Semaphore {
 public:
  explicit Semaphore(size_t count) : count_(count) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  struct Awaiter {
    Semaphore& semaphore;
    bool await_ready() const noexcept {
      if (semaphore.count_ > 0) {
        --semaphore.count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> handle) { semaphore.waiters_.push_back(handle); }
    void await_resume() const noexcept {}
  };
  Awaiter Acquire() { return Awaiter{*this}; }

  // Non-suspending acquire; returns false if no permit is available.
  bool TryAcquire() {
    if (count_ > 0) {
      --count_;
      return true;
    }
    return false;
  }

  void Release() {
    if (!waiters_.empty()) {
      auto handle = waiters_.front();
      waiters_.pop_front();
      handle.resume();  // permit transfers directly to the waiter
    } else {
      ++count_;
    }
  }

  size_t available() const { return count_; }

 private:
  size_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Completion counter: Add() before starting background work, Done() when it
// finishes, Wait() suspends until the count returns to zero. Used e.g. to
// drain outstanding asynchronous writes at file close.
class WaitGroup {
 public:
  void Add(size_t n = 1) { outstanding_ += n; }

  void Done() {
    CHECK_GT(outstanding_, 0u);
    --outstanding_;
    if (outstanding_ == 0) {
      auto waiters = std::move(waiters_);
      waiters_.clear();
      for (auto handle : waiters) {
        handle.resume();
      }
    }
  }

  struct Awaiter {
    WaitGroup& group;
    bool await_ready() const noexcept { return group.outstanding_ == 0; }
    void await_suspend(std::coroutine_handle<> handle) { group.waiters_.push_back(handle); }
    void await_resume() const noexcept {}
  };
  Awaiter Wait() { return Awaiter{*this}; }

  size_t outstanding() const { return outstanding_; }

 private:
  size_t outstanding_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_SIM_SYNC_H_
