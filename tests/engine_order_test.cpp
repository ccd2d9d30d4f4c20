// Event-ordering stress for the ladder-queue engine: schedules adversarial
// time patterns from inside running handlers and asserts the pop sequence
// equals a reference (time, seq) priority queue — i.e. strict time order
// with FIFO tie-break, the determinism contract every Simulation relies on.

#include <cmath>
#include <coroutine>
#include <cstdint>
#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "support/rng.hpp"

namespace {

using bgp::Rng;
using bgp::sim::Engine;

struct RefQueue {
  struct Ev {
    double time;
    std::uint64_t seq;
    std::uint64_t id;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, Later> q;
  std::uint64_t seq = 0;
  void push(double t, std::uint64_t id) { q.push(Ev{t, seq++, id}); }
  Ev pop() {
    Ev e = q.top();
    q.pop();
    return e;
  }
};

// Runs `budget` self-rescheduling events whose deltas come from `nextDt`,
// mirroring every schedule into RefQueue, and checks the pop order.
template <typename NextDt>
void stress(int seed, std::uint64_t budget, NextDt nextDt) {
  Engine e;
  RefQueue ref;
  Rng rng(seed);
  std::uint64_t nextId = 0;
  std::vector<std::uint64_t> popped;

  struct Ctx {
    Engine& e;
    RefQueue& ref;
    Rng& rng;
    std::uint64_t& nextId;
    std::uint64_t& budget;
    std::vector<std::uint64_t>& popped;
    NextDt nextDt;

    void schedule() {
      --budget;
      const double t = e.now() + nextDt(rng, budget);
      const std::uint64_t id = nextId++;
      ref.push(t, id);
      e.scheduleCallback(t, [this, id] { fire(id); });
    }
    void fire(std::uint64_t id) {
      popped.push_back(id);
      // 0-2 children per event keeps the pending population churning.
      const int fan = static_cast<int>(rng.uniform() * 3);
      for (int i = 0; i <= fan && budget != 0; ++i) schedule();
    }
  } ctx{e, ref, rng, nextId, budget, popped, nextDt};

  for (int i = 0; i < 64 && ctx.budget != 0; ++i) ctx.schedule();
  e.run();

  ASSERT_EQ(popped.size(), nextId);
  for (std::size_t i = 0; i < popped.size(); ++i) {
    const auto r = ref.pop();
    ASSERT_EQ(r.id, popped[i]) << "pop " << i << " out of order";
  }
}

constexpr std::uint64_t kBudget = 60000;

TEST(EngineOrder, RandomDeltas) {
  stress(1, kBudget,
         [](Rng& r, std::uint64_t) { return 1e-6 * (1.0 + r.uniform()); });
}

// Half the events land at exactly now(): exercises the same-time FIFO fast
// path against events merged from the ladder structures.
TEST(EngineOrder, ZeroDelayHeavy) {
  stress(2, kBudget, [](Rng& r, std::uint64_t) {
    return r.uniform() < 0.5 ? 0.0 : 1e-6 * r.uniform();
  });
}

// Quantized deltas: many distinct timestamps shared by many events each,
// so correctness hinges on the FIFO tie-break surviving bucket sorts.
TEST(EngineOrder, QuantizedTies) {
  stress(3, kBudget, [](Rng& r, std::uint64_t) {
    return 1e-6 * static_cast<int>(r.uniform() * 4);
  });
}

// Near-term traffic plus far-future stragglers: forces events through the
// unsorted far-future band and its later conversion into rungs.
TEST(EngineOrder, BimodalHorizon) {
  stress(4, kBudget, [](Rng& r, std::uint64_t) {
    return r.uniform() < 0.9 ? 1e-6 * r.uniform() : 1e-3 * (1.0 + r.uniform());
  });
}

// Alternating bursts of identical timestamps and spread timestamps.
TEST(EngineOrder, EqualTimeBursts) {
  stress(5, kBudget, [](Rng& r, std::uint64_t b) {
    return (b / 1000) % 2 == 0 ? 0.0 : 1e-6 * (1.0 + r.uniform());
  });
}

// Sub-ulp spreads: bucket spans degenerate to zero width, so the engine
// must fall back to sorted adoption instead of subdividing forever.
TEST(EngineOrder, DegenerateTinySpreads) {
  stress(6, kBudget,
         [](Rng& r, std::uint64_t) { return 1e-18 * r.uniform(); });
}

// Coroutine resumes and callbacks share one slot pool and one inline
// callback path; interleaving them (including same-time resumes) must not
// disturb the (time, seq) order.
struct Mixed {
  Engine& e;
  RefQueue& ref;
  Rng& rng;
  std::uint64_t nextId = 0;
  std::uint64_t budget = 0;
  std::vector<std::uint64_t> popped;

  double delta() {
    const double u = rng.uniform();
    if (u < 0.3) return 0.0;
    if (u < 0.6) return 1e-6 * static_cast<int>(rng.uniform() * 4);
    return 1e-6 * rng.uniform();
  }
  void scheduleCallback() {
    if (budget == 0) return;
    --budget;
    const double t = e.now() + delta();
    const std::uint64_t id = nextId++;
    ref.push(t, id);
    e.scheduleCallback(t, [this, id] {
      popped.push_back(id);
      if (rng.uniform() < 0.6) scheduleCallback();
    });
  }
};

struct Sleep {
  Mixed& m;
  double t;
  std::uint64_t id = 0;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    id = m.nextId++;
    m.ref.push(t, id);
    m.e.schedule(t, h);
  }
  void await_resume() const { m.popped.push_back(id); }
};

bgp::sim::Task sleeper(Mixed& m, int hops) {
  for (int i = 0; i < hops; ++i) {
    co_await Sleep{m, m.e.now() + m.delta()};
    m.scheduleCallback();  // a callback chain per resume
  }
}

TEST(EngineOrder, CoroutineResumesInterleavedWithCallbacks) {
  Engine e;
  RefQueue ref;
  Rng rng(8);
  Mixed m{e, ref, rng};
  m.budget = 20000;
  std::vector<bgp::sim::Task> tasks;
  for (int i = 0; i < 48; ++i) {
    tasks.push_back(sleeper(m, 200));
    const std::uint64_t id = m.nextId++;
    ref.push(0.0, id);
    e.scheduleCallback(0.0, [&m, id, h = tasks.back().handle()] {
      m.popped.push_back(id);
      h.resume();
    });
  }
  for (int i = 0; i < 64; ++i) m.scheduleCallback();
  e.run();
  for (const auto& t : tasks) EXPECT_TRUE(t.finished());
  ASSERT_EQ(m.popped.size(), m.nextId);
  for (std::size_t i = 0; i < m.popped.size(); ++i)
    ASSERT_EQ(ref.pop().id, m.popped[i]) << "pop " << i << " out of order";
}

// Epochs of clustered times: each epoch nests event clusters at spans
// 128^-k, so every rung's first bucket overflows into a finer rung and
// the ladder goes at least 6 rungs deep.  Afterwards the drained buckets
// must have released their storage.
TEST(EngineOrder, ClusteredEpochsDriveDeepLadderAndReleaseStorage) {
  Engine e;
  RefQueue ref;
  Rng rng(9);
  std::uint64_t nextId = 0;
  std::vector<std::uint64_t> popped;
  for (int epoch = 0; epoch < 4; ++epoch) {
    const double base = e.now() + 1.0;
    for (int i = 0; i < 20000; ++i) {
      const int level = static_cast<int>(rng.uniform() * 7);
      const double t = base + std::ldexp(rng.uniform(), -7 * level);
      const std::uint64_t id = nextId++;
      ref.push(t, id);
      e.scheduleCallback(t, [&popped, id] { popped.push_back(id); });
    }
    e.run();
  }
  ASSERT_EQ(popped.size(), nextId);
  for (std::size_t i = 0; i < popped.size(); ++i)
    ASSERT_EQ(ref.pop().id, popped[i]) << "pop " << i << " out of order";
  EXPECT_GE(e.ladderDepth(), 6u);
  EXPECT_LE(e.retainedKeyCapacity(), 2 * e.peakPending());
}

// Negative zero must compare equal to +0.0 delay (bit pattern differs).
TEST(EngineOrder, NegativeZeroDelay) {
  Engine e;
  std::vector<int> order;
  e.scheduleCallback(0.0, [&] {
    order.push_back(1);
    e.scheduleCallback(e.now() + (-0.0), [&] { order.push_back(2); });
    e.scheduleCallback(e.now(), [&] { order.push_back(3); });
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

}  // namespace
