#pragma once
// Coroutine type for simulated processes.
//
// A `Task` starts suspended, and every `co_await` inside it hands control
// back to the event loop until some event resumes it.  It is used two ways:
//  * as a rank's top-level program, whose owner schedules its handle on
//    the Engine; the promise captures exceptions so the simulation runner
//    can rethrow them on the host after the event loop drains;
//  * awaited by another coroutine, to compose programs out of reusable
//    pieces (e.g. the algorithmic collectives in smpi/coll_algorithms.hpp).
//    It resumes its caller on completion via symmetric transfer and
//    rethrows its exception there:
//
//   sim::Task doPhase(Rank& self) { co_await self.barrier(); ... }
//   sim::Task program(Rank& self) { co_await doPhase(self); ... }

#include <coroutine>
#include <exception>
#include <utility>

#include "sim/small_function.hpp"
#include "support/arena.hpp"
#include "support/expect.hpp"

namespace bgp::sim {

class Task {
 public:
  struct promise_type {
    std::exception_ptr exception;
    SmallFn onDone;  // set by the owner before first resume
    std::coroutine_handle<> continuation;  // the awaiting caller, if any

    // Coroutine frames come from the thread arena: a 131k-rank world
    // spawns one frame per rank up front, and the arena turns that burst
    // (and the per-rank free at teardown) into bump-pointer traffic.
    static void* operator new(std::size_t n) {
      return support::arenaAllocate(n);
    }
    static void operator delete(void* p, std::size_t n) noexcept {
      support::arenaDeallocate(p, n);
    }

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        auto& p = h.promise();
        if (p.onDone) p.onDone();
        // Remain suspended at final-suspend (the owning Task destroys us)
        // and resume whoever co_awaited us.
        return p.continuation ? p.continuation : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  bool finished() const {
    BGP_REQUIRE(valid());
    return handle_.done();  // suspended at its final suspend point
  }
  std::coroutine_handle<> handle() const {
    BGP_REQUIRE(valid());
    return handle_;
  }
  /// Registers a callback invoked (once) when the coroutine completes or
  /// exits with an exception.  Must be set before the task first runs.
  void setOnDone(SmallFn fn) {
    BGP_REQUIRE(valid());
    handle_.promise().onDone = std::move(fn);
  }
  /// Rethrows the coroutine's exception, if it exited with one.
  void rethrowIfFailed() const {
    BGP_REQUIRE(valid());
    if (handle_.promise().exception)
      std::rethrow_exception(handle_.promise().exception);
  }

  // Awaiting a Task runs its body, then resumes the caller.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) {
    BGP_REQUIRE_MSG(valid(), "awaiting an empty Task");
    handle_.promise().continuation = caller;
    return handle_;  // symmetric transfer into the awaited body
  }
  void await_resume() const { rethrowIfFailed(); }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace bgp::sim
