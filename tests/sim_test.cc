#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/cpu.h"
#include "src/sim/disk.h"
#include "src/sim/scheduler.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/util/pool.h"
#include "src/util/rng.h"

namespace renonfs {
namespace {

TEST(SchedulerTest, EventsFireInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.Schedule(Milliseconds(30), [&]() { order.push_back(3); });
  sched.Schedule(Milliseconds(10), [&]() { order.push_back(1); });
  sched.Schedule(Milliseconds(20), [&]() { order.push_back(2); });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), Milliseconds(30));
}

TEST(SchedulerTest, SameInstantIsFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.Schedule(Milliseconds(5), [&order, i]() { order.push_back(i); });
  }
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  auto handle = sched.Schedule(Milliseconds(5), [&]() { fired = true; });
  EXPECT_TRUE(handle.pending());
  sched.Cancel(handle);
  sched.Run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(handle.pending());
}

TEST(SchedulerTest, RunUntilStopsAndAdvancesClock) {
  Scheduler sched;
  int count = 0;
  sched.Schedule(Milliseconds(10), [&]() { ++count; });
  sched.Schedule(Milliseconds(100), [&]() { ++count; });
  sched.RunUntil(Milliseconds(50));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sched.now(), Milliseconds(50));
  sched.Run();
  EXPECT_EQ(count, 2);
}

TEST(SchedulerTest, NestedScheduling) {
  Scheduler sched;
  SimTime second_fire = 0;
  sched.Schedule(Milliseconds(1), [&]() {
    sched.Schedule(Milliseconds(2), [&]() { second_fire = sched.now(); });
  });
  sched.Run();
  EXPECT_EQ(second_fire, Milliseconds(3));
}

TEST(TimerTest, RestartReplacesDeadline) {
  Scheduler sched;
  int fires = 0;
  Timer timer(sched, [&]() { ++fires; });
  timer.Start(Milliseconds(10));
  timer.Start(Milliseconds(50));  // restart: first deadline cancelled
  sched.RunUntil(Milliseconds(20));
  EXPECT_EQ(fires, 0);
  sched.Run();
  EXPECT_EQ(fires, 1);
}

TEST(TimerTest, StopPreventsFire) {
  Scheduler sched;
  int fires = 0;
  Timer timer(sched, [&]() { ++fires; });
  timer.Start(Milliseconds(10));
  timer.Stop();
  sched.Run();
  EXPECT_EQ(fires, 0);
}

CoTask<int> ReturnAfterDelay(Scheduler& sched, SimTime delay, int value) {
  co_await sched.Delay(delay);
  co_return value;
}

TEST(CoTaskTest, AwaitReturnsValue) {
  Scheduler sched;
  int result = 0;
  auto outer = [](Scheduler& s, int& out) -> CoTask<void> {
    out = co_await ReturnAfterDelay(s, Milliseconds(5), 42);
  }(sched, result);
  sched.Run();
  EXPECT_TRUE(outer.done());
  EXPECT_EQ(result, 42);
}

TEST(CoTaskTest, ImmediateCompletionAwaitable) {
  Scheduler sched;
  int result = 0;
  auto outer = [](Scheduler& s, int& out) -> CoTask<void> {
    // Completes synchronously; the awaiter must not hang.
    out = co_await ReturnAfterDelay(s, 0, 7);
  }(sched, result);
  sched.Run();
  EXPECT_TRUE(outer.done());
  EXPECT_EQ(result, 7);
}

TEST(CoTaskTest, DetachedTaskRunsToCompletion) {
  Scheduler sched;
  bool finished = false;
  auto task = [](Scheduler& s, bool& done_flag) -> CoTask<void> {
    co_await s.Delay(Milliseconds(3));
    done_flag = true;
  }(sched, finished);
  task.Detach();
  sched.Run();
  EXPECT_TRUE(finished);
}

TEST(CoTaskTest, SequentialDelaysAccumulate) {
  Scheduler sched;
  SimTime finish = -1;
  auto task = [](Scheduler& s, SimTime& out) -> CoTask<void> {
    co_await s.Delay(Milliseconds(10));
    co_await s.Delay(Milliseconds(10));
    co_await s.Delay(Milliseconds(10));
    out = s.now();
  }(sched, finish);
  task.Detach();
  sched.Run();
  EXPECT_EQ(finish, Milliseconds(30));
}

TEST(SimFutureTest, SetBeforeAwait) {
  Scheduler sched;
  SimFuture<int> future;
  SimPromise<int> promise(future);
  promise.Set(9);
  int got = 0;
  auto task = [](SimFuture<int> f, int& out) -> CoTask<void> { out = co_await f; }(future, got);
  sched.Run();
  EXPECT_TRUE(task.done());
  EXPECT_EQ(got, 9);
}

TEST(SimFutureTest, SetAfterAwaitResumes) {
  Scheduler sched;
  SimFuture<std::string> future;
  SimPromise<std::string> promise(future);
  std::string got;
  auto task =
      [](SimFuture<std::string> f, std::string& out) -> CoTask<void> { out = co_await f; }(future,
                                                                                           got);
  sched.Schedule(Milliseconds(4), [&]() { promise.Set("hello"); });
  sched.Run();
  EXPECT_EQ(got, "hello");
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Scheduler sched;
  Semaphore sem(2);
  int active = 0;
  int peak = 0;
  auto worker = [](Scheduler& s, Semaphore& sm, int& act, int& pk) -> CoTask<void> {
    co_await sm.Acquire();
    ++act;
    pk = std::max(pk, act);
    co_await s.Delay(Milliseconds(10));
    --act;
    sm.Release();
  };
  std::vector<CoTask<void>> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back(worker(sched, sem, active, peak));
  }
  sched.Run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
  // 6 jobs, 2 at a time, 10ms each -> 30ms.
  EXPECT_EQ(sched.now(), Milliseconds(30));
}

TEST(SemaphoreTest, TryAcquire) {
  Semaphore sem(1);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
}

TEST(WaitGroupTest, WaitsForAll) {
  Scheduler sched;
  WaitGroup group;
  SimTime done_at = -1;
  group.Add(3);
  for (int i = 1; i <= 3; ++i) {
    sched.Schedule(Milliseconds(i * 10), [&]() { group.Done(); });
  }
  auto waiter = [](Scheduler& s, WaitGroup& g, SimTime& out) -> CoTask<void> {
    co_await g.Wait();
    out = s.now();
  }(sched, group, done_at);
  waiter.Detach();
  sched.Run();
  EXPECT_EQ(done_at, Milliseconds(30));
}

TEST(WaitGroupTest, EmptyWaitReturnsImmediately) {
  Scheduler sched;
  WaitGroup group;
  bool done = false;
  auto waiter = [](WaitGroup& g, bool& out) -> CoTask<void> {
    co_await g.Wait();
    out = true;
  }(group, done);
  EXPECT_TRUE(done);
  EXPECT_TRUE(waiter.done());
}

TEST(CpuTest, FifoSerialization) {
  Scheduler sched;
  CpuResource cpu(sched);
  std::vector<SimTime> completions;
  cpu.Charge(Milliseconds(10), [&]() { completions.push_back(sched.now()); });
  cpu.Charge(Milliseconds(5), [&]() { completions.push_back(sched.now()); });
  sched.Run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], Milliseconds(10));
  EXPECT_EQ(completions[1], Milliseconds(15));
  EXPECT_EQ(cpu.busy_accum(), Milliseconds(15));
}

TEST(CpuTest, SpeedFactorScalesCost) {
  Scheduler sched;
  CpuResource fast(sched, 10.0);
  SimTime done_at = -1;
  fast.Charge(Milliseconds(10), [&]() { done_at = sched.now(); });
  sched.Run();
  EXPECT_EQ(done_at, Milliseconds(1));
}

TEST(CpuTest, IdleGapThenNewWork) {
  Scheduler sched;
  CpuResource cpu(sched);
  SimTime done_at = -1;
  sched.Schedule(Milliseconds(100), [&]() {
    cpu.Charge(Milliseconds(10), [&]() { done_at = sched.now(); });
  });
  sched.Run();
  // Work starts at 100ms (CPU idle before), not queued behind idle time.
  EXPECT_EQ(done_at, Milliseconds(110));
  EXPECT_EQ(cpu.busy_accum(), Milliseconds(10));
}

TEST(DiskTest, LatencyIncludesTransfer) {
  Scheduler sched;
  DiskProfile profile;
  profile.avg_access = Milliseconds(30);
  profile.transfer_bytes_per_sec = 1024 * 1024;  // 1 MB/s
  DiskModel disk(sched, profile);
  SimTime done_at = -1;
  disk.Submit(1024 * 1024, [&]() { done_at = sched.now(); });
  sched.Run();
  EXPECT_EQ(done_at, Milliseconds(30) + Seconds(1));
  EXPECT_EQ(disk.ops_completed(), 1u);
}

TEST(DiskTest, OpsQueue) {
  Scheduler sched;
  DiskProfile profile;
  profile.avg_access = Milliseconds(10);
  profile.transfer_bytes_per_sec = 1e12;  // negligible transfer
  DiskModel disk(sched, profile);
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    disk.Submit(0, [&]() { completions.push_back(sched.now()); });
  }
  sched.Run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[2], Milliseconds(30));
}

// --- timing-wheel edge cases ------------------------------------------------
// The wheel must fire in exact (time, seq) order; these pin the corners where
// a wheel implementation most easily drifts.

TEST(SchedulerWheelTest, CancelAtSameTickFromEarlierEvent) {
  Scheduler sched;
  bool b_fired = false;
  Scheduler::EventHandle b;
  // Same instant, lower sequence number: fires first and cancels b before
  // the batch reaches it.
  sched.Schedule(Milliseconds(5), [&]() { sched.Cancel(b); });
  b = sched.Schedule(Milliseconds(5), [&]() { b_fired = true; });
  sched.Run();
  EXPECT_FALSE(b_fired);
}

TEST(SchedulerWheelTest, HandleNotPendingInsideOwnCallback) {
  Scheduler sched;
  Scheduler::EventHandle handle;
  bool pending_inside = true;
  handle = sched.Schedule(Milliseconds(1), [&]() {
    pending_inside = handle.pending();
    sched.Cancel(handle);  // self-cancel mid-fire must be a no-op
  });
  sched.Run();
  EXPECT_FALSE(pending_inside);
  EXPECT_EQ(sched.events_executed(), 1u);
}

TEST(SchedulerWheelTest, SameTickFifoAcrossWheelLevels) {
  Scheduler sched;
  std::vector<int> order;
  // seq 0 sits at a high wheel level until the cursor approaches, then
  // cascades into the same level-0 slot as the late-scheduled seq for the
  // identical instant. FIFO order (by scheduling sequence) must survive.
  sched.Schedule(Milliseconds(100), [&]() { order.push_back(0); });
  sched.Schedule(Milliseconds(99), [&]() {
    sched.Schedule(Milliseconds(1), [&]() { order.push_back(1); });
  });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SchedulerWheelTest, ReservedSeqKeepsSameInstantOrder) {
  Scheduler sched;
  constexpr uint64_t kOutside = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(sched.current_seq(), kOutside);
  std::vector<std::pair<int, uint64_t>> fired;  // (id, current_seq inside)
  sched.Schedule(Milliseconds(1), [&]() { fired.emplace_back(0, sched.current_seq()); });
  // A reserved seq is one no event takes: the event scheduled next for the
  // same instant still fires after every event scheduled before it.
  const uint64_t reserved = sched.ReserveSeq();
  sched.Schedule(Milliseconds(1), [&]() { fired.emplace_back(1, sched.current_seq()); });
  sched.Run();
  EXPECT_EQ(reserved, 1u);
  EXPECT_EQ(fired, (std::vector<std::pair<int, uint64_t>>{{0, 0}, {1, 2}}));
  EXPECT_EQ(sched.current_seq(), kOutside);
  EXPECT_EQ(sched.events_executed(), 2u);
}

TEST(SchedulerWheelTest, FarFutureOverflowCascades) {
  Scheduler sched;
  std::vector<SimTime> fired_at;
  auto log = [&]() { fired_at.push_back(sched.now()); };
  sched.Schedule(SimTime{1} << 60, log);  // top wheel levels
  sched.Schedule(SimTime{1} << 40, log);
  sched.Schedule(Milliseconds(1), log);
  sched.Run();
  ASSERT_EQ(fired_at.size(), 3u);
  EXPECT_EQ(fired_at[0], Milliseconds(1));
  EXPECT_EQ(fired_at[1], SimTime{1} << 40);
  EXPECT_EQ(fired_at[2], SimTime{1} << 60);
  EXPECT_EQ(sched.now(), SimTime{1} << 60);
}

TEST(SchedulerWheelTest, RunUntilDeadlineMidSlot) {
  Scheduler sched;
  int fired = 0;
  // Raw nanosecond ticks sharing one level-1 span; the deadline lands
  // exactly on the middle event (which must fire) and strictly before the
  // third (which must not).
  sched.Schedule(Nanoseconds(100), [&]() { ++fired; });
  sched.Schedule(Nanoseconds(120), [&]() { ++fired; });
  sched.Schedule(Nanoseconds(121), [&]() { ++fired; });
  sched.RunUntil(Nanoseconds(120));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.now(), Nanoseconds(120));
  sched.Run();
  EXPECT_EQ(fired, 3);
}

TEST(SchedulerWheelTest, RunUntilCapInsideWideSlot) {
  Scheduler sched;
  std::vector<std::pair<char, SimTime>> fired;
  // A sits in a wide slot whose span holds the deadline. The cursor may jump
  // into that slot only as far as the deadline; had it jumped on to A, B
  // (scheduled after the deadline, before A) would land behind it.
  sched.Schedule(Seconds(1), [&]() { fired.emplace_back('A', sched.now()); });
  sched.RunUntil(Milliseconds(999));
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(sched.now(), Milliseconds(999));
  sched.Schedule(Microseconds(500), [&]() { fired.emplace_back('B', sched.now()); });
  sched.Run();
  EXPECT_EQ(fired, (std::vector<std::pair<char, SimTime>>{
                       {'B', Milliseconds(999) + Microseconds(500)}, {'A', Seconds(1)}}));
}

TEST(SchedulerWheelTest, CancelledTailThenRescheduleEarlier) {
  Scheduler sched;
  auto handle = sched.Schedule(Seconds(10), []() {});
  sched.Cancel(handle);
  sched.Run();  // drains the cancelled node; the clock must not move
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.now(), 0);
  // The wheel cursor drifted to the cancelled tick; a new near event must
  // still land relative to the (unmoved) clock and fire on time.
  bool fired = false;
  sched.Schedule(Milliseconds(1), [&]() { fired = true; });
  sched.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sched.now(), Milliseconds(1));
}

// The ordering contract in its plainest form: events in a map keyed by
// (fire time, scheduling sequence). Cancel erases the key; RunUntil fires
// every key <= the deadline in key order, then moves the clock to the
// deadline. It offers the part of the Scheduler API the seeded script below
// uses.
class ReferenceQueue {
 public:
  using EventHandle = std::pair<SimTime, uint64_t>;

  SimTime now() const { return now_; }
  EventHandle Schedule(SimTime delay, std::function<void()> fn) {
    const EventHandle key{now_ + delay, next_seq_++};
    events_.emplace(key, std::move(fn));
    return key;
  }
  void Cancel(const EventHandle& key) { events_.erase(key); }
  void RunUntil(SimTime deadline) {
    while (!events_.empty() && events_.begin()->first.first <= deadline) {
      auto event = events_.extract(events_.begin());
      now_ = event.key().first;
      event.mapped()();
    }
    now_ = std::max(now_, deadline);
  }
  void RunFor(SimTime duration) { RunUntil(now_ + duration); }
  void Run() { RunUntil(std::numeric_limits<SimTime>::max()); }

 private:
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  std::map<EventHandle, std::function<void()>> events_;
};

// One seeded script of bursts, cancels, and bounded drains; returns the
// (id, fire-time) log. `delay(rng)` draws each event's delay and `drain(rng)`
// each RunFor span.
template <typename Queue, typename DelayDraw, typename DrainDraw>
std::vector<std::pair<int, SimTime>> RunScript(Queue& queue, DelayDraw delay, DrainDraw drain) {
  Rng rng(42);
  std::vector<std::pair<int, SimTime>> log;
  std::vector<typename Queue::EventHandle> handles;
  int next_id = 0;
  for (int round = 0; round < 200; ++round) {
    const uint64_t burst = 1 + rng.UniformUint64(8);
    for (uint64_t i = 0; i < burst; ++i) {
      const int id = next_id++;
      handles.push_back(
          queue.Schedule(delay(rng), [&log, &queue, id]() { log.emplace_back(id, queue.now()); }));
    }
    if (rng.Bernoulli(0.3)) {
      queue.Cancel(handles[rng.UniformUint64(handles.size())]);
    }
    queue.RunFor(drain(rng));
  }
  queue.Run();
  return log;
}

// Delays are uniform over [0, 2 ms) on a `grid` and drains over [0, 1 ms):
// on a 50 us grid a burst often puts several events on one instant, so the
// (time, seq) tie rule is exercised under random cancels and cascades, not
// only on hand-built ties.
template <typename Queue>
std::vector<std::pair<int, SimTime>> RunSeededScript(Queue& queue, SimTime grid) {
  return RunScript(
      queue,
      [grid](Rng& rng) {
        return static_cast<SimTime>(
                   rng.UniformUint64(static_cast<uint64_t>(Milliseconds(2) / grid))) *
               grid;
      },
      [](Rng& rng) {
        return static_cast<SimTime>(rng.UniformUint64(static_cast<uint64_t>(Milliseconds(1))));
      });
}

// Log-uniform over [1, 2^max_log2) ns: a power of two, then a uniform
// offset below it.
SimTime LogUniform(Rng& rng, uint64_t max_log2) {
  const uint64_t octave = uint64_t{1} << rng.UniformUint64(max_log2);
  return static_cast<SimTime>(octave + rng.UniformUint64(octave));
}

TEST(SchedulerWheelTest, MatchesReferenceQueueOnSeededRandomSchedule) {
  // The wheel and the reference queue must produce identical (id, fire-time)
  // logs. This is the determinism contract the scenario replay subsystem
  // leans on.
  Scheduler wheel;
  ReferenceQueue reference;
  const auto wheel_log = RunSeededScript(wheel, Microseconds(50));
  const auto reference_log = RunSeededScript(reference, Microseconds(50));
  EXPECT_EQ(wheel_log, reference_log);
  ASSERT_FALSE(wheel_log.empty());
  size_t same_instant = 0;
  for (size_t i = 1; i < wheel_log.size(); ++i) {
    same_instant += wheel_log[i].second == wheel_log[i - 1].second ? 1 : 0;
  }
  EXPECT_GT(same_instant, 0u);  // the script really does produce ties
}

TEST(SchedulerWheelTest, MatchesReferenceQueueOnEveryWheelLevel) {
  // The same comparison with log-uniform draws. Delays reach 2^61 ns, so
  // events sit on all 11 levels at once (level 10 starts at 2^60); drains
  // reach 2^40 ns, so RunFor deadlines fall inside wide slots, where the
  // cursor must stop at the deadline, and later cancels hit nodes that the
  // stop just re-dealt.
  const auto delay = [](Rng& rng) { return LogUniform(rng, 61); };
  const auto drain = [](Rng& rng) { return LogUniform(rng, 40); };
  Scheduler wheel;
  ReferenceQueue reference;
  const auto wheel_log = RunScript(wheel, delay, drain);
  const auto reference_log = RunScript(reference, delay, drain);
  EXPECT_EQ(wheel_log, reference_log);
  ASSERT_FALSE(wheel_log.empty());
  EXPECT_GE(wheel_log.back().second, SimTime{1} << 60);  // the top level fired too
}

TEST(SchedulerWheelTest, MatchesLegacyHeapOnSeededRandomSchedule) {
  // The same script at 1 ns resolution is the one the wheel was once run
  // against the std::priority_queue heap backend with; the heap's log had 913
  // entries and the FNV-1a digest below. The heap is gone, so its log is
  // pinned here: traces recorded before the wheel replaced it must still
  // replay in the order they were recorded.
  Scheduler wheel;
  const auto log = RunSeededScript(wheel, 1);
  uint64_t digest = 14695981039346656037ull;
  for (const auto& [id, at] : log) {
    for (const uint64_t word : {static_cast<uint64_t>(id), static_cast<uint64_t>(at)}) {
      digest = (digest ^ word) * 1099511628211ull;
    }
  }
  EXPECT_EQ(log.size(), 913u);
  EXPECT_EQ(digest, 0xe1505cb7a4f7f213ull);
}

TEST(SchedulerWheelTest, EventPoolRecyclesNodes) {
  Scheduler sched;
  for (int i = 0; i < 10000; ++i) {
    sched.Schedule(Nanoseconds(1), []() {});
    sched.Run();
  }
  const Scheduler::PoolStats stats = sched.pool_stats();
  EXPECT_EQ(stats.nodes_total, 256u);  // one slab; churn never grew the arena
  EXPECT_EQ(stats.nodes_in_use, 0u);
  EXPECT_EQ(stats.nodes_free, 256u);
  EXPECT_LE(stats.high_water, 2u);
  EXPECT_EQ(stats.callable_heap_allocs, 0u);  // stateless lambda stays inline
}

TEST(SchedulerWheelTest, TimerRestartIsAllocationFree) {
  Scheduler sched;
  uint64_t fires = 0;
  Timer timer(sched, [&fires]() { ++fires; });
  for (int i = 0; i < 10000; ++i) {
    timer.Start(Microseconds(10));
    if ((i & 7) == 0) {
      sched.RunFor(Microseconds(5));
    }
  }
  sched.Run();
  const Scheduler::PoolStats stats = sched.pool_stats();
  EXPECT_EQ(stats.nodes_total, 256u);
  EXPECT_EQ(stats.nodes_in_use, 0u);
  EXPECT_EQ(stats.callable_heap_allocs, 0u);
  EXPECT_GE(fires, 1u);
}

TEST(FixedPoolTest, RecyclesBlocksAndTracksHighWater) {
  FixedPool pool("sim-test-pool", 64, 8, 4);
  void* a = pool.Allocate();
  void* b = pool.Allocate();
  pool.Free(a);
  void* c = pool.Allocate();
  EXPECT_EQ(pool.stats().in_use, 2u);
  EXPECT_EQ(pool.stats().high_water, 2u);
  if (FixedPool::bypass()) {
    // Sanitized build: every block is a fresh heap allocation by design.
    EXPECT_EQ(pool.stats().recycles, 0u);
  } else {
    EXPECT_EQ(c, a);  // the freed block came back off the freelist
    EXPECT_EQ(pool.stats().recycles, 1u);
    EXPECT_EQ(pool.stats().fresh_allocs, 2u);
  }
  EXPECT_EQ(FixedPool::Find("sim-test-pool"), &pool);
  pool.Free(b);
  pool.Free(c);
  EXPECT_EQ(pool.stats().in_use, 0u);
}

}  // namespace
}  // namespace renonfs
