// Unit tests: discrete-event queue ordering, cancellation, the simulator
// executive, and timers.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/sharded_executive.hpp"
#include "sim/timer.hpp"

namespace mhrp::sim {

/// Test-only backdoor into the queue's internals: forcing a slot's
/// generation counter near its wraparound point (2^32 schedule/cancel
/// cycles through one slot would otherwise take hours), and reading the
/// size of its internal storage.
struct EventQueueTestPeer {
  static void set_slot_generation(EventQueue& q, std::uint32_t slot,
                                  std::uint32_t generation) {
    q.slots_[slot].generation = generation;
  }
  static std::uint32_t slot_of(const EventHandle& h) { return h.slot_; }
  static std::uint32_t generation_of(const EventHandle& h) {
    return h.generation_;
  }
  /// Cancelled events whose slots are still linked into a bucket.
  static std::size_t dead_linked(const EventQueue& q) { return q.dead_; }
  /// Entries held by the internal structures: slab slots, bucket pool,
  /// time heap, index cells and parked closures.
  static std::size_t storage(const EventQueue& q) {
    return q.slots_.size() + q.buckets_.size() + q.heap_.size() +
           q.index_.size() + q.closures_.capacity();
  }
  /// Control closures parked in the closure slab.
  static std::size_t parked_closures(const EventQueue& q) {
    return q.closures_.live();
  }
  /// Pending events whose record names a parked closure.
  static std::size_t closure_events(const EventQueue& q) {
    std::size_t n = 0;
    for (const EventQueue::Slot& slot : q.slots_) {
      if (slot.live && slot.event.fn == &EventQueue::run_closure) ++n;
    }
    return n;
  }
};

namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  (void)q.schedule(30, [&] { order.push_back(3); });
  (void)q.schedule(10, [&] { order.push_back(1); });
  (void)q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    auto fired = q.pop();
    fired.action();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakFifoBySchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    (void)q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  auto handle = q.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(handle.pending());
  EXPECT_TRUE(q.cancel(handle));
  EXPECT_FALSE(handle.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(handle));  // double cancel is a no-op
  EXPECT_FALSE(ran);
}

TEST(EventQueue, SizeTracksLiveEventsOnly) {
  EventQueue q;
  auto a = q.schedule(1, [] {});
  auto b = q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop().action();
  EXPECT_EQ(q.size(), 0u);
  (void)b;
}

// A control closure waits in the queue's closure slab; cancelling its
// event destroys it (and what it captured) at once, and firing frees it.
TEST(EventQueue, ClosureSlabReleasesOnCancelAndFire) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  auto cancelled = q.schedule(10, [token] { (void)token; });
  auto fired = q.schedule(20, [token] { (void)token; });
  EXPECT_EQ(token.use_count(), 3);
  EXPECT_EQ(EventQueueTestPeer::parked_closures(q), 2u);
  EXPECT_TRUE(q.cancel(cancelled));
  EXPECT_EQ(token.use_count(), 2);
  q.pop().action();
  EXPECT_FALSE(fired.pending());
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(EventQueueTestPeer::parked_closures(q), 0u);
}

// Every parked closure belongs to a pending event once each popped
// record has been run or scheduled again; a record dropped unrun leaves
// its closure parked, which audit builds report at the next pop.
TEST(EventQueue, ParkedClosuresMatchPendingClosureEvents) {
  EventQueue q;
  const auto balanced = [&q] {
    return EventQueueTestPeer::parked_closures(q) ==
           EventQueueTestPeer::closure_events(q);
  };
  int runs = 0;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(q.schedule(10 + i, [&runs] { ++runs; }));
  }
  EXPECT_TRUE(q.cancel(handles[3]));
  q.pop().action();
  const EventQueue::Fired again = q.pop();  // replayed, not run
  (void)q.schedule(again.when + 100, again.action);
  EXPECT_TRUE(balanced());
  EXPECT_EQ(EventQueueTestPeer::parked_closures(q), 6u);

  const EventQueue::Fired dropped = q.pop();
  (void)dropped;
  EXPECT_FALSE(balanced());
#ifdef MHRP_AUDIT
  EXPECT_THROW((void)q.pop(), std::logic_error);
#endif
}

// A typed Event is copied into its slot as is: it fires its own
// function, carries its category, and the queue parks nothing for it.
TEST(EventQueue, TypedEventFiresItsFunctionWithItsArgument) {
  EventQueue q;
  std::vector<std::uint32_t> seen;
  const auto record = [](void* obj, std::uint32_t arg) {
    static_cast<std::vector<std::uint32_t>*>(obj)->push_back(arg);
  };
  (void)q.schedule(5, Event{record, &seen, 42, EventCategory::kLinkDelivery});
  (void)q.schedule(5, [&] { seen.push_back(1); });
  (void)q.schedule(5, Event{record, &seen, 43, EventCategory::kLinkDelivery});
  EXPECT_EQ(EventQueueTestPeer::parked_closures(q), 1u);
  std::vector<EventCategory> categories;
  while (!q.empty()) {
    const EventQueue::Fired fired = q.pop();
    categories.push_back(fired.action.category);
    fired.action();
  }
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{42, 1, 43}));
  EXPECT_EQ(categories,
            (std::vector<EventCategory>{EventCategory::kLinkDelivery,
                                        EventCategory::kGeneral,
                                        EventCategory::kLinkDelivery}));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  auto handle = q.schedule(10, [] {});
  q.pop().action();
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(q.cancel(handle));
}

TEST(EventQueue, DefaultHandleIsInvalidAndNotPending) {
  EventQueue q;
  EventHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, HandleStaysDistinctAcrossSlotReuse) {
  EventQueue q;
  // `a` occupies the first slab slot; cancelling frees it for reuse.
  auto a = q.schedule(10, [] {});
  ASSERT_TRUE(q.cancel(a));
  // `b` reuses the same slot with a bumped generation: the old handle
  // must not come back to life, and cancelling it must not kill `b`.
  auto b = q.schedule(20, [] {});
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(b.pending());
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(b));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PendingSurvivesHeapOfStaleEntries) {
  EventQueue q;
  // Pile several cancelled entries for the same slot into the heap; the
  // one live event must still pop, alone.
  for (int i = 0; i < 8; ++i) {
    auto h = q.schedule(5, [] {});
    q.cancel(h);
  }
  int fired = 0;
  auto live = q.schedule(7, [&] { ++fired; });
  EXPECT_TRUE(live.pending());
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(live.pending());
}

TEST(EventQueue, GenerationWraparound) {
  EventQueue q;
  auto scrap = q.schedule(1, [] {});
  q.pop().action();  // slot 0 is now free
  EXPECT_FALSE(scrap.pending());
  EventQueueTestPeer::set_slot_generation(q, 0, 0xFFFFFFFFu);

  auto old_gen = q.schedule(10, [] {});  // generation 0xFFFFFFFF
  ASSERT_EQ(EventQueueTestPeer::slot_of(old_gen), 0u);
  EXPECT_TRUE(old_gen.pending());
  q.pop().action();  // fires; generation wraps to 0
  EXPECT_FALSE(old_gen.pending());

  auto wrapped = q.schedule(20, [] {});  // same slot, generation 0
  ASSERT_EQ(EventQueueTestPeer::slot_of(wrapped), 0u);
  EXPECT_EQ(EventQueueTestPeer::generation_of(wrapped), 0u);
  EXPECT_TRUE(wrapped.pending());
  EXPECT_FALSE(old_gen.pending());  // 0xFFFFFFFF != 0: still dead
  EXPECT_FALSE(q.cancel(old_gen));
  EXPECT_TRUE(q.cancel(wrapped));
}

TEST(EventQueue, GenerationWrapsWhileCancelledSlotIsStillLinked) {
  EventQueue q;
  (void)q.schedule(1, [] {});
  q.pop().action();  // slot 0 is now free
  EventQueueTestPeer::set_slot_generation(q, 0, 0xFFFFFFFFu);

  std::vector<int> order;
  auto doomed = q.schedule(10, [&] { order.push_back(0); });
  ASSERT_EQ(EventQueueTestPeer::slot_of(doomed), 0u);
  ASSERT_TRUE(q.cancel(doomed));  // generation wraps to 0; slot stays linked
  EXPECT_EQ(EventQueueTestPeer::dead_linked(q), 1u);
  EXPECT_FALSE(doomed.pending());

  // The linked slot must not be handed out again before it is unlinked.
  auto peer = q.schedule(10, [&] { order.push_back(1); });
  EXPECT_NE(EventQueueTestPeer::slot_of(peer), 0u);
  EXPECT_TRUE(peer.pending());
  EXPECT_FALSE(q.cancel(doomed));
  EXPECT_TRUE(peer.pending());

  q.pop().action();  // unlinks the dead slot, fires `peer`
  EXPECT_EQ(EventQueueTestPeer::dead_linked(q), 0u);
  EXPECT_EQ(order, (std::vector<int>{1}));

  // Both slots are free again; the next two schedules take them, and
  // the one on slot 0 starts from the wrapped generation 0.
  auto a = q.schedule(20, [&] { order.push_back(2); });
  auto b = q.schedule(20, [&] { order.push_back(3); });
  const EventHandle& on_zero = EventQueueTestPeer::slot_of(a) == 0 ? a : b;
  ASSERT_EQ(EventQueueTestPeer::slot_of(on_zero), 0u);
  EXPECT_EQ(EventQueueTestPeer::generation_of(on_zero), 0u);
  EXPECT_FALSE(doomed.pending());  // 0xFFFFFFFF != 0
  EXPECT_FALSE(q.cancel(doomed));
  EXPECT_TRUE(on_zero.pending());
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelSelfInsideFiringActionReturnsFalse) {
  EventQueue q;
  EventHandle self;
  bool cancel_result = true;
  self = q.schedule(10, [&] { cancel_result = q.cancel(self); });
  q.pop().action();
  EXPECT_FALSE(cancel_result);  // the firing event is no longer pending
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelPeerInsideFiringActionPreventsIt) {
  EventQueue q;
  bool peer_ran = false;
  EventHandle peer;
  (void)q.schedule(10, [&] { EXPECT_TRUE(q.cancel(peer)); });
  peer = q.schedule(10, [&] { peer_ran = true; });
  while (!q.empty()) q.pop().action();
  EXPECT_FALSE(peer_ran);
}

TEST(EventQueue, FifoSurvivesInterleavedCancellation) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 12; ++i) {
    handles.push_back(q.schedule(5, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 12; i += 2) q.cancel(handles[std::size_t(i)]);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7, 9, 11}));
}

// Differential test: seeded random mixes of schedule (many events per
// timestamp, plus far-future timers), cancel, pending queries, pop and
// pop_if_due, with actions that schedule at the current time, cancel
// themselves and cancel peers, and bursts of far-future timers armed and
// disarmed (which trigger compaction, also from inside actions), checked
// step by step against a reference model ordered by (when, seq). Slot
// generations start just below the wrap point, so cancelled-but-linked
// slots wrap too.
class QueueModel {
 public:
  struct Key {
    Time when;
    std::uint64_t seq;
    auto operator<=>(const Key&) const = default;
  };

  std::size_t add(Time when) {
    keys_.push_back(Key{when, next_seq_++});
    live_.insert({keys_.back(), keys_.size() - 1});
    return keys_.size() - 1;
  }
  bool pending(std::size_t id) const {
    return live_.count({keys_[id], id}) != 0;
  }
  bool cancel(std::size_t id) { return live_.erase({keys_[id], id}) != 0; }
  std::size_t pop() {
    const std::size_t id = live_.begin()->second;
    live_.erase(live_.begin());
    return id;
  }
  [[nodiscard]] Time next_time() const { return live_.begin()->first.when; }
  [[nodiscard]] std::size_t size() const { return live_.size(); }

 private:
  std::vector<Key> keys_;
  std::set<std::pair<Key, std::size_t>> live_;
  std::uint64_t next_seq_ = 0;
};

void run_differential(std::uint32_t seed) {
  SCOPED_TRACE(testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  auto draw = [&rng](std::uint32_t n) {
    return std::uniform_int_distribution<std::uint32_t>(0, n - 1)(rng);
  };
  EventQueue q;
  QueueModel model;
  std::vector<EventHandle> handles;
  std::vector<std::size_t> fired;
  Time now = 0;

  // Park some slots on the free list with generations near 2^32.
  for (int i = 0; i < 8; ++i) (void)q.schedule(0, [] {});
  while (!q.empty()) q.pop().action();
  for (std::uint32_t slot = 0; slot < 8; ++slot) {
    EventQueueTestPeer::set_slot_generation(q, slot, 0xFFFFFFFFu - draw(3));
  }

  std::function<void(std::size_t)> on_fire;
  auto schedule_at = [&](Time when) {
    const std::size_t id = model.add(when);
    handles.push_back(q.schedule(when, [&on_fire, id] { on_fire(id); }));
    ASSERT_EQ(handles.size(), id + 1);
  };
  auto schedule_random = [&] {
    static constexpr Time kDelays[] = {0, 0, 1, 1, 1, 2, 5, 5, 10, 40};
    if (draw(5) == 0) {
      schedule_at(now + seconds(10) + draw(50));  // far-future timer
    } else {
      schedule_at(now + kDelays[draw(10)]);
    }
  };
  auto cancel_random = [&] {
    if (handles.empty()) return;
    const std::size_t id = draw(std::uint32_t(handles.size()));
    ASSERT_EQ(q.cancel(handles[id]), model.cancel(id)) << "cancel " << id;
  };
  // Far-future timers armed and disarmed: what piles up dead slots and
  // drives compaction.
  auto churn = [&](std::uint32_t n) {
    for (; n > 0; --n) {
      schedule_at(now + seconds(20) + draw(100));
      ASSERT_TRUE(q.cancel(handles.back()));
      ASSERT_TRUE(model.cancel(handles.size() - 1));
    }
  };
  on_fire = [&](std::size_t id) {
    fired.push_back(id);
    EXPECT_FALSE(handles[id].pending());
    switch (draw(7)) {
      case 0: schedule_at(now); break;  // same time, from inside the action
      case 1: EXPECT_FALSE(q.cancel(handles[id])); break;  // cancel self
      case 2: cancel_random(); break;
      case 3: schedule_random(); break;
      case 4: churn(draw(8)); break;
      default: break;
    }
  };
  auto pop_and_fire = [&](std::optional<EventQueue::Fired> got) {
    if (!got) return;
    const std::size_t expect = model.pop();
    const std::size_t before = fired.size();
    now = got->when;
    got->action();
    ASSERT_EQ(fired.size(), before + 1);
    ASSERT_EQ(fired.back(), expect);
  };

  for (int step = 0; step < 4000; ++step) {
    const std::uint32_t op = draw(16);
    if (op < 6) {
      schedule_random();
    } else if (op < 9) {
      cancel_random();
    } else if (op < 10) {
      if (!handles.empty()) {
        const std::size_t id = draw(std::uint32_t(handles.size()));
        ASSERT_EQ(handles[id].pending(), model.pending(id)) << "id " << id;
      }
    } else if (op < 13) {
      if (!q.empty()) pop_and_fire(q.pop());
    } else if (op < 14) {
      churn(draw(32));
    } else {
      const Time deadline = now + Time(draw(4));
      const bool due = model.size() != 0 && model.next_time() <= deadline;
      auto got = q.pop_if_due(deadline);
      ASSERT_EQ(got.has_value(), due);
      pop_and_fire(std::move(got));
    }
    ASSERT_EQ(q.size(), model.size());
    if (!q.empty()) {
      ASSERT_EQ(q.next_time(), model.next_time());
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  while (!q.empty()) {
    pop_and_fire(q.pop());
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(model.size(), 0u);
  for (std::size_t id = 0; id < handles.size(); ++id) {
    ASSERT_FALSE(handles[id].pending()) << "id " << id;
  }
}

TEST(EventQueue, MatchesWhenSeqReferenceUnderRandomChurn) {
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    run_differential(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Cancelled far-future timers must not pile up: storage stays bounded
// by the live events plus a constant, whether each timer takes a fresh
// timestamp (a new bucket) or shares one.
TEST(EventQueue, StorageStaysBoundedUnderCancelChurn) {
  for (const bool distinct_times : {true, false}) {
    SCOPED_TRACE(distinct_times ? "distinct times" : "one shared time");
    EventQueue q;
    for (int i = 0; i < 4; ++i) (void)q.schedule(seconds(1) + i, [] {});
    std::size_t peak = 0;
    for (int i = 0; i < 100'000; ++i) {
      auto h = q.schedule(seconds(3600) + (distinct_times ? i : 0), [] {});
      ASSERT_TRUE(q.cancel(h));
      peak = std::max(peak, EventQueueTestPeer::storage(q));
    }
    EXPECT_EQ(q.size(), 4u);
    EXPECT_LE(peak, 8 * (q.size() + 64));
    int fired = 0;
    while (!q.empty()) {
      q.pop().action();
      ++fired;
    }
    EXPECT_EQ(fired, 4);
  }
}

TEST(Simulator, ClockFollowsEvents) {
  ShardedExecutive sim(1);
  Time seen = -1;
  (void)sim.after(millis(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, millis(5));
  EXPECT_EQ(sim.now(), millis(5));
}

TEST(Simulator, RunUntilStopsAtDeadlineAndAdvancesClock) {
  ShardedExecutive sim(1);
  int count = 0;
  (void)sim.after(millis(1), [&] { ++count; });
  (void)sim.after(millis(100), [&] { ++count; });
  sim.run_until(millis(10));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), millis(10));
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, EventsScheduleMoreEvents) {
  ShardedExecutive sim(1);
  std::vector<Time> times;
  std::function<void(int)> chain = [&](int depth) {
    times.push_back(sim.now());
    if (depth > 0) {
      (void)sim.after(millis(2), [&chain, depth] { chain(depth - 1); });
    }
  };
  (void)sim.after(0, [&] { chain(3); });
  sim.run();
  EXPECT_EQ(times, (std::vector<Time>{0, millis(2), millis(4), millis(6)}));
}

TEST(Simulator, StopInterruptsRun) {
  ShardedExecutive sim(1);
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    (void)sim.after(millis(i), [&sim, &count] {
      if (++count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, PastEventsClampToNow) {
  ShardedExecutive sim(1);
  (void)sim.after(millis(10), [] {});
  sim.run();
  bool ran = false;
  (void)sim.at(millis(1), [&] { ran = true; });  // in the past now
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), millis(10));
}

TEST(PeriodicTimer, FiresRepeatedlyUntilStopped) {
  ShardedExecutive sim(1);
  int fires = 0;
  PeriodicTimer timer(sim, millis(10), [&] { ++fires; });
  timer.start();
  sim.run_until(millis(55));
  EXPECT_EQ(fires, 5);
  timer.stop();
  sim.run_until(millis(200));
  EXPECT_EQ(fires, 5);
}

TEST(PeriodicTimer, ActionMayStopItself) {
  ShardedExecutive sim(1);
  int fires = 0;
  PeriodicTimer timer(sim, millis(10), [&] {
    if (++fires == 3) timer.stop();
  });
  timer.start();
  sim.run_until(seconds(1));
  EXPECT_EQ(fires, 3);
}

TEST(OneShotTimer, ArmRearmsAndCancels) {
  ShardedExecutive sim(1);
  int fires = 0;
  OneShotTimer timer(sim, [&] { ++fires; });
  timer.arm(millis(10));
  timer.arm(millis(20));  // replaces the first
  sim.run_until(millis(15));
  EXPECT_EQ(fires, 0);
  sim.run_until(millis(25));
  EXPECT_EQ(fires, 1);
  timer.arm(millis(10));
  timer.cancel();
  sim.run_until(millis(100));
  EXPECT_EQ(fires, 1);
}

TEST(TimerDestruction, CancelsPendingWork) {
  ShardedExecutive sim(1);
  int fires = 0;
  {
    PeriodicTimer timer(sim, millis(10), [&] { ++fires; });
    timer.start();
  }
  sim.run_until(seconds(1));
  EXPECT_EQ(fires, 0);
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(seconds(2), 2'000'000);
  EXPECT_EQ(millis(3), 3'000);
  EXPECT_EQ(from_seconds(1.5), 1'500'000);
  EXPECT_DOUBLE_EQ(to_seconds(2'500'000), 2.5);
}

}  // namespace
}  // namespace mhrp::sim
