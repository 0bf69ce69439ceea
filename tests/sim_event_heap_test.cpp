// EventHeap: the engine's 4-ary key heap over a callback slab, with
// move-out pop and O(log n) cancellation.  The core property test drives
// random schedule/pop/cancel interleavings against a reference model (a
// plain sorted multiset over (when, seq) — the exact strict-weak order
// std::priority_queue used in the old engine) and requires identical
// pop order, including the seq tie-breaks the simulator's FIFO
// determinism contract rests on.
#include "sim/event_heap.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/engine.hpp"

namespace acc::sim {
namespace {

using Key = std::pair<std::int64_t, std::uint64_t>;  // (when ns, seq)

TEST(EventHeap, PopsInWhenSeqOrder) {
  EventHeap heap;
  std::vector<int> order;
  // Deliberate time ties: seq must break them FIFO.
  heap.push(Time::micros(5), 0, [&order] { order.push_back(0); });
  heap.push(Time::micros(1), 1, [&order] { order.push_back(1); });
  heap.push(Time::micros(5), 2, [&order] { order.push_back(2); });
  heap.push(Time::micros(1), 3, [&order] { order.push_back(3); });
  while (!heap.empty()) {
    auto e = heap.pop();
    e.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3, 0, 2}));
}

TEST(EventHeap, PopMovesTheCallbackOut) {
  EventHeap heap;
  auto owned = std::make_unique<int>(9);
  int seen = 0;
  heap.push(Time::zero(), 0,
            [p = std::move(owned), &seen]() { seen = *p; });
  auto e = heap.pop();
  EXPECT_TRUE(heap.empty());
  e.fn();
  EXPECT_EQ(seen, 9);
}

TEST(EventHeap, CancelRemovesExactlyThatEvent) {
  EventHeap heap;
  std::vector<int> order;
  heap.push(Time::micros(1), 0, [&order] { order.push_back(0); });
  const auto h = heap.push_cancelable(Time::micros(2), 1,
                                      [&order] { order.push_back(1); });
  heap.push(Time::micros(3), 2, [&order] { order.push_back(2); });
  EXPECT_TRUE(heap.pending(h));
  EXPECT_TRUE(heap.cancel(h));
  EXPECT_FALSE(heap.pending(h));
  EXPECT_FALSE(heap.cancel(h));  // second cancel is a no-op
  while (!heap.empty()) heap.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(EventHeap, CancelAfterFireIsExpired) {
  EventHeap heap;
  const auto h = heap.push_cancelable(Time::micros(1), 0, [] {});
  heap.pop().fn();
  EXPECT_FALSE(heap.pending(h));
  EXPECT_FALSE(heap.cancel(h));
}

TEST(EventHeap, SlotReuseExpiresStaleHandles) {
  EventHeap heap;
  const auto first = heap.push_cancelable(Time::micros(1), 0, [] {});
  ASSERT_TRUE(heap.cancel(first));
  // The freed slot is reused by the next cancelable push; the old handle
  // must not be able to kill the new occupant.
  const auto second = heap.push_cancelable(Time::micros(2), 1, [] {});
  EXPECT_EQ(first.slot, second.slot);
  EXPECT_FALSE(heap.cancel(first));
  EXPECT_TRUE(heap.pending(second));
  EXPECT_TRUE(heap.cancel(second));
  EXPECT_EQ(heap.live_slots(), 0u);
}

TEST(EventHeap, PlainPushReusingACancelSlotExpiresTheHandle) {
  EventHeap heap;
  int fired = 0;
  const auto h = heap.push_cancelable(Time::micros(1), 0, [] {});
  heap.pop().fn();
  // The plain push takes the freed slab slot (the only free one), so the
  // next cancelable push lands in a fresh slot.
  heap.push(Time::micros(2), 1, [&fired] { ++fired; });
  const auto next = heap.push_cancelable(Time::micros(3), 2, [] {});
  EXPECT_NE(next.slot, h.slot);
  EXPECT_FALSE(heap.pending(h));
  EXPECT_FALSE(heap.cancel(h));
  EXPECT_EQ(heap.size(), 2u);
  EXPECT_EQ(heap.live_slots(), 2u);
  heap.pop().fn();
  EXPECT_EQ(fired, 1);  // the stale cancel did not kill the plain event
  EXPECT_TRUE(heap.pending(next));
}

TEST(EventHeap, CanceledCallbackIsDestroyedNotLeaked) {
  auto tracked = std::make_shared<int>(0);
  EventHeap heap;
  const auto h = heap.push_cancelable(Time::micros(1), 0,
                                      [keep = tracked] { (void)keep; });
  EXPECT_EQ(tracked.use_count(), 2);
  EXPECT_TRUE(heap.cancel(h));
  EXPECT_EQ(tracked.use_count(), 1);
}

// ---------------------------------------------------------------------
// Property test against the reference model
// ---------------------------------------------------------------------

/// Reference model: an ordered set over (when, seq) — the same
/// strict-weak order the old std::priority_queue<Scheduled, ..., Later>
/// imposed.  Supports exact-min pop and arbitrary erase (cancel).
class ReferenceModel {
 public:
  void push(Key k) { keys_.insert(k); }
  bool empty() const { return keys_.empty(); }
  Key pop() {
    Key k = *keys_.begin();
    keys_.erase(keys_.begin());
    return k;
  }
  void erase(Key k) { keys_.erase(k); }

 private:
  std::set<Key> keys_;
};

TEST(EventHeapProperty, RandomInterleavingsMatchReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    EventHeap heap;
    ReferenceModel model;
    std::vector<std::pair<Key, EventHeap::Handle>> cancelable;
    std::uint64_t next_seq = 0;
    std::vector<Key> popped_heap, popped_model;

    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t action = rng.below(10);
      if (action < 5) {
        // Schedule (half of them cancelable).  Few distinct times, so
        // ties are the common case, as in the engine.
        const Time when = Time::micros(static_cast<std::int64_t>(
            rng.below(16)));
        const Key k{when.as_nanos(), next_seq};
        if (rng.below(2) == 0) {
          const auto h = heap.push_cancelable(when, next_seq, [] {});
          cancelable.emplace_back(k, h);
        } else {
          heap.push(when, next_seq, [] {});
        }
        model.push(k);
        ++next_seq;
      } else if (action < 8) {
        if (heap.empty()) continue;
        ASSERT_FALSE(model.empty());
        const auto e = heap.pop();
        popped_heap.emplace_back(e.when.as_nanos(), e.seq);
        popped_model.push_back(model.pop());
        ASSERT_EQ(popped_heap.back(), popped_model.back())
            << "divergence at step " << step << " seed " << seed;
      } else {
        if (cancelable.empty()) continue;
        const std::size_t pick = static_cast<std::size_t>(
            rng.below(cancelable.size()));
        const auto [k, h] = cancelable[pick];
        cancelable.erase(cancelable.begin() +
                         static_cast<std::ptrdiff_t>(pick));
        // The pick may already have been popped; cancel() and the model
        // must agree on whether it was still queued.
        const bool was_pending = heap.pending(h);
        EXPECT_EQ(heap.cancel(h), was_pending);
        if (was_pending) model.erase(k);
      }
    }
    // Drain: remaining contents must agree exactly.
    while (!heap.empty()) {
      ASSERT_FALSE(model.empty());
      const auto e = heap.pop();
      ASSERT_EQ((Key{e.when.as_nanos(), e.seq}), model.pop());
    }
    EXPECT_TRUE(model.empty());
    EXPECT_EQ(heap.live_slots(), 0u);
  }
}

TEST(EventHeapProperty, MatchesStdPriorityQueueWithoutCancels) {
  // The exact legacy comparison: same pushes into a std::priority_queue
  // with the old Later comparator must pop identically.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.first != b.first) return a.first > b.first;
      return a.second > b.second;
    }
  };
  for (std::uint64_t seed = 20; seed <= 24; ++seed) {
    Rng rng(seed);
    EventHeap heap;
    std::priority_queue<Key, std::vector<Key>, Later> legacy;
    for (std::uint64_t seq = 0; seq < 600; ++seq) {
      const Time when =
          Time::micros(static_cast<std::int64_t>(rng.below(32)));
      heap.push(when, seq, [] {});
      legacy.emplace(when.as_nanos(), seq);
    }
    while (!legacy.empty()) {
      ASSERT_FALSE(heap.empty());
      const auto e = heap.pop();
      EXPECT_EQ((Key{e.when.as_nanos(), e.seq}), legacy.top());
      legacy.pop();
    }
    EXPECT_TRUE(heap.empty());
  }
}

// ---------------------------------------------------------------------
// Engine-level: reserve() determinism and TimerHandle semantics
// ---------------------------------------------------------------------

#ifndef ACC_TRACE_DISABLED
TEST(EngineReserve, DigestIdenticalWithAndWithoutReserve) {
  // reserve() is pure capacity: the traced digest of a workload must be
  // bit-identical whether or not (and however much) the caller reserved.
  auto digest_of = [](std::size_t reserve_events) {
    Engine eng;
    eng.tracer().enable();
    if (reserve_events > 0) eng.reserve(reserve_events);
    Rng rng(99);
    for (int i = 0; i < 500; ++i) {
      eng.schedule(Time::micros(static_cast<std::int64_t>(rng.below(64))),
                   [&eng] {
                     eng.schedule(Time::micros(1), [] {});
                   });
    }
    eng.run();
    return eng.tracer().digest();
  };
  const auto unreserved = digest_of(0);
  EXPECT_EQ(digest_of(64), unreserved);
  EXPECT_EQ(digest_of(4096), unreserved);
}
#endif  // ACC_TRACE_DISABLED

TEST(EngineDispatch, CallbackGrowingTheSlabDispatchesInOrder) {
  // One running callback schedules 10,000 events into an unreserved
  // engine, so the callback slab reallocates many times while that
  // callback is still executing.  Every capture holds a shared_ptr: a
  // callback lost, duplicated or destroyed twice across the growth shows
  // up in the use count.
  constexpr int kEvents = 10000;
  auto tracked = std::make_shared<int>(0);
  Engine eng;
  std::vector<std::int64_t> delay_ns(kEvents);
  std::vector<std::pair<std::int64_t, int>> fired;  // (now ns, index)
  eng.schedule(Time::zero(), [&] {
    Rng rng(5);
    for (int i = 0; i < kEvents; ++i) {
      delay_ns[static_cast<std::size_t>(i)] =
          static_cast<std::int64_t>(rng.below(64));
      eng.schedule(Time::nanos(delay_ns[static_cast<std::size_t>(i)]),
                   [keep = tracked, &fired, &eng, i] {
                     (void)keep;
                     fired.emplace_back(eng.now().as_nanos(), i);
                   });
    }
    EXPECT_EQ(tracked.use_count(), kEvents + 1);
  });
  eng.run();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kEvents));
  for (std::size_t k = 0; k < fired.size(); ++k) {
    const auto [when, i] = fired[k];
    EXPECT_EQ(when, delay_ns[static_cast<std::size_t>(i)]);
    // (when, seq) order: seq grows with i, so (when, i) strictly rises.
    if (k > 0) {
      EXPECT_LT(fired[k - 1], fired[k]) << "at dispatch " << k;
    }
  }
  EXPECT_EQ(tracked.use_count(), 1);
}

TEST(EngineTimer, CancelableTimerNeverFiresOnceCanceled) {
  Engine eng;
  int fired = 0;
  auto h = eng.schedule_cancelable(Time::millis(5), [&fired] { ++fired; });
  eng.schedule(Time::millis(1), [&h] { EXPECT_TRUE(h.cancel()); });
  eng.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(eng.events_canceled(), 1u);
  // The canceled event never dispatched but did consume a seq slot and
  // is gone from the queue.
  EXPECT_EQ(eng.events_executed(), 1u);
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(EngineTimer, DefaultAndExpiredHandlesAreNoOps) {
  TimerHandle none;
  EXPECT_FALSE(none.pending());
  EXPECT_FALSE(none.cancel());

  Engine eng;
  auto h = eng.schedule_cancelable(Time::millis(1), [] {});
  EXPECT_TRUE(h.pending());
  eng.run();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());
  EXPECT_EQ(eng.events_canceled(), 0u);
}

TEST(EngineTimer, CancellationDoesNotDisturbOtherDispatchOrder) {
  // Same schedule with the timer firing vs canceled: the surviving
  // events keep identical (time, FIFO) order and timestamps.
  auto run_once = [](bool cancel) {
    Engine eng;
    std::vector<std::pair<int, std::int64_t>> order;
    for (int i = 0; i < 6; ++i) {
      eng.schedule(Time::micros(10 * (i % 3)), [&order, &eng, i] {
        order.emplace_back(i, eng.now().as_nanos());
      });
    }
    auto h = eng.schedule_cancelable(Time::micros(15),
                                     [&order, &eng] {
                                       order.emplace_back(99, eng.now().as_nanos());
                                     });
    if (cancel) h.cancel();
    eng.run();
    return order;
  };
  auto with_timer = run_once(false);
  auto without_timer = run_once(true);
  // Remove the timer's own entry from the fired variant; the rest must
  // match exactly.
  std::erase_if(with_timer, [](const auto& e) { return e.first == 99; });
  EXPECT_EQ(with_timer, without_timer);
}

}  // namespace
}  // namespace acc::sim
