// The engine's event queue: a 4-ary min-heap of compact (when, seq) keys
// over a slab of callbacks, with move-out pop and O(log n) cancellation.
//
// Why not std::priority_queue:
//   * top() is const, so popping an event forced a copy of its callback
//     (and the callbacks are now move-only InlineCallbacks anyway);
//   * no reserve(), so a warm run re-grows the backing vector from zero;
//   * no cancellation — defensive timers (TCP RTO, INIC go-back-N) had
//     to fire as stale no-ops, churning the heap long after the workload
//     finished.
//
// Why keys and a slab: the heap orders 24-byte Keys; each key names the
// slab slot that holds its 64-byte InlineCallback.  A sift level then
// compares four children in 96 contiguous bytes and moves keys with
// plain copies, while the callback is relocated twice in its life — into
// its slot at push(), out of it at pop() — plus once more each time the
// slab grows (reallocates) while it is queued.  An engine reserve()d for
// its peak queue depth never grows the slab, so there it is exactly
// twice.  Sifting whole (key, callback) entries instead would touch 384
// bytes per level and relocate the callback through an indirect call at
// every level.
//
// Why 4-ary: the heap is a flat vector, so a node's four children share
// one or two cache lines; halving the tree depth trades a few extra
// comparisons per level for half the dependent cache misses on the
// sift-down path, which dominates pop.  Ordering is EXACTLY the old
// queue's strict-weak order on (when, seq) — same schedule in, same
// dispatch order out, bit-identical digests.
//
// Cancellation uses stable handles naming a slab slot plus its
// generation.  The generation advances whenever the slot is released, so
// a handle outliving its event (fired, canceled, slot reused) is
// recognized as expired instead of killing a stranger.  A cancelable key
// keeps its slot's heap_index current as sifts move it; plain keys pay
// nothing on the sift path but one predictable branch.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/callback.hpp"

namespace acc::sim {

class EventHeap {
 public:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// What the heap orders.  `idx` names the slab slot holding the
  /// event's callback; `cancelable` keys keep that slot's heap_index
  /// current so cancel() can find them.
  struct Key {
    Time when = Time::zero();
    std::uint64_t seq = 0;
    std::uint32_t idx = kNoSlot;
    std::uint32_t cancelable = 0;
  };
  static_assert(sizeof(Key) == 24, "four sibling keys should span 96 bytes");

  /// One popped event: its key and the callback moved out of the slab.
  struct Event {
    Time when;
    std::uint64_t seq;
    InlineCallback fn;
  };

  /// Names one cancelable event.  Default-constructed handles (and
  /// handles whose event fired or was canceled) are expired: cancel()
  /// on them is a no-op returning false.
  struct Handle {
    std::uint32_t slot = kNoSlot;
    std::uint64_t generation = 0;
  };

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Pre-grows the key heap and the callback slab so a run with a known
  /// event-count profile never reallocates mid-flight.  Purely capacity
  /// — never observable in dispatch order.
  void reserve(std::size_t events) {
    heap_.reserve(events);
    slab_.reserve(events);
  }

  /// The minimum key by (when, seq).  Valid only when !empty().
  const Key& top() const {
    assert(!heap_.empty());
    return heap_.front();
  }

  /// Removes and returns the minimum event.  The callback is moved out of
  /// its slot before anything runs it: a running callback may push, and
  /// a push may grow (reallocate) the slab.
  Event pop() {
    assert(!heap_.empty());
    const Key k = heap_.front();
    Event out{k.when, k.seq, std::move(slab_[k.idx].fn)};
    release(k.idx);
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
    return out;
  }

  void push(Time when, std::uint64_t seq, InlineCallback&& fn) {
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Key{when, seq, claim(std::move(fn)), 0});
  }

  Handle push_cancelable(Time when, std::uint64_t seq, InlineCallback&& fn) {
    const std::uint32_t idx = claim(std::move(fn));
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Key{when, seq, idx, 1});
    return Handle{idx, slab_[idx].generation};
  }

  /// True while the handle's event is still queued.
  bool pending(Handle h) const {
    return h.slot < slab_.size() && slab_[h.slot].generation == h.generation;
  }

  /// Removes the handle's event from the heap without running it; its
  /// callback is destroyed once the heap is consistent again.  Returns
  /// false (and does nothing) when the event already fired or was
  /// already canceled.
  bool cancel(Handle h) {
    if (!pending(h)) return false;
    const std::size_t i = slab_[h.slot].heap_index;
    const InlineCallback doomed = std::move(slab_[h.slot].fn);
    release(h.slot);
    const Key last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) {
      // Re-insert the displaced tail key at the hole: it may need to
      // move either direction depending on where the hole was.
      if (i > 0 && less(last, heap_[parent(i)])) {
        sift_up(i, last);
      } else {
        sift_down(i, last);
      }
    }
    return true;
  }

  /// Slab slots currently holding a queued event's callback, counted
  /// from the free list (tests; O(slab size)).
  std::size_t live_slots() const {
    std::size_t free = 0;
    for (std::uint32_t s = free_head_; s != kNoSlot; s = slab_[s].next_free) {
      ++free;
    }
    return slab_.size() - free;
  }

 private:
  struct Slot {
    InlineCallback fn;
    std::uint64_t generation = 0;  // advances at every release
    std::uint32_t heap_index = 0;  // maintained for cancelable keys only
    std::uint32_t next_free = kNoSlot;
  };

  static constexpr std::size_t kArity = 4;
  static std::size_t parent(std::size_t i) { return (i - 1) / kArity; }
  static std::size_t first_child(std::size_t i) { return i * kArity + 1; }

  static bool less(const Key& a, const Key& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  /// Writes `k` into heap_[i] and keeps a cancelable key's back-pointer
  /// current.
  void place(std::size_t i, const Key& k) {
    heap_[i] = k;
    if (k.cancelable) slab_[k.idx].heap_index = static_cast<std::uint32_t>(i);
  }

  /// Sifts `k` from the hole at `i` toward the root by moving greater
  /// ancestors down into it (hole insertion: one copy per level, not a
  /// swap).
  void sift_up(std::size_t i, const Key& k) {
    while (i > 0) {
      const std::size_t p = parent(i);
      if (!less(k, heap_[p])) break;
      place(i, heap_[p]);
      i = p;
    }
    place(i, k);
  }

  void sift_down(std::size_t i, const Key& k) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = first_child(i);
      if (first >= n) break;
      const std::size_t last = std::min(first + kArity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (less(heap_[c], heap_[best])) best = c;
      }
      if (!less(heap_[best], k)) break;
      place(i, heap_[best]);
      i = best;
    }
    place(i, k);
  }

  /// Moves `fn` into a free slab slot (recycled first) and returns it.
  std::uint32_t claim(InlineCallback&& fn) {
    std::uint32_t idx = free_head_;
    if (idx != kNoSlot) {
      free_head_ = slab_[idx].next_free;
    } else {
      idx = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back();
    }
    slab_[idx].fn = std::move(fn);
    return idx;
  }

  /// Expires every outstanding handle to the slot and recycles it.  The
  /// slot's callback must already be moved out.
  void release(std::uint32_t idx) {
    Slot& s = slab_[idx];
    assert(!s.fn);
    ++s.generation;
    s.next_free = free_head_;
    free_head_ = idx;
  }

  std::vector<Key> heap_;
  std::vector<Slot> slab_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace acc::sim
