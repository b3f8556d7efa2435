// Cancellable discrete-event queue with deterministic ordering.
//
// Events that share a timestamp fire in the order they were scheduled
// (FIFO by sequence number), which makes every simulation run exactly
// reproducible — a property the integration and property tests rely on.
//
// A slot holds one Event: a plain function, the object it acts on, a
// 32-bit argument and the profiler tag, 24 bytes that copy as three
// words. Hot-path callers (link deliveries) schedule Events directly,
// their argument naming an entry in a slab the caller owns. A rare
// control closure (a timer, a fault, the workload) is parked in the
// queue's own closure slab and scheduled as an Event that names its
// slot, so the queue has one event kind.
//
// Events live in a slab of slots addressed by {slot index, generation}
// handles, recycled through a free list, so scheduling allocates nothing
// beyond amortized vector growth. The queue is bucketed by timestamp:
// each distinct pending time owns one bucket {when, head, tail}, a FIFO
// of slots linked through the slot's `next` field (the same field links
// a free slot into the free list). A binary min-heap orders the buckets'
// times, and a flat open-addressed index maps a time to its bucket, with
// a shortcut for the last bucket appended to (a broadcast to a cell
// schedules one delivery per host at the same instant). Appends happen
// in schedule() call order, so a bucket's FIFO *is* sequence order and
// no sequence number is stored. Links all cost the same latency in the
// scenarios, so events cluster on shared times: a schedule into an
// existing time is O(1), and only a new distinct time pays an O(log b)
// heap push, b being the number of distinct pending times.
//
// Cancellation is amortized O(1): it bumps the slot's generation and
// marks the slot dead, leaving it linked; pop frees dead slots as it
// reaches them. When dead slots outnumber live ones (past a small
// floor), one O(n) pass unlinks them all and rebuilds the heap and
// index, so storage stays proportional to the live events however many
// timers were cancelled. A handle whose generation no longer matches its
// slot refers to an event that already fired or was cancelled — slot
// reuse cannot resurrect it (short of 2^32 reuses of one slot between a
// handle's creation and its last use, which no simulation approaches).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_category.hpp"
#include "sim/time.hpp"
#include "util/annotations.hpp"

namespace mhrp::sim {

class EventQueue;
struct EventQueueTestPeer;

/// What an event-queue slot holds: `fn(obj, arg)` runs the event, and
/// `category` tags it for the profiler. The argument is typically an
/// index into a slab that `obj` owns.
struct Event {
  void (*fn)(void* obj, std::uint32_t arg) = nullptr;
  void* obj = nullptr;
  std::uint32_t arg = 0;
  EventCategory category = EventCategory::kGeneral;

  void operator()() const { fn(obj, arg); }
};
// A heap-owning closure must not come back onto the delivery lane: the
// record stays plain data, three words wide.
static_assert(std::is_trivially_copyable_v<Event>);
static_assert(sizeof(Event) <= 24);

/// An index-addressed store with a free list: emplace() returns a u32
/// index that stays valid until take()/release() frees it, however the
/// storage grows meanwhile. Freed indices are reused last-in first-out,
/// and the storage keeps its high-water mark, so a warm slab allocates
/// nothing. The free list always has room for every index, so freeing
/// never allocates (nor throws).
template <typename T>
class Slab {
 public:
  template <typename... Args>
  MHRP_HOT_PATH std::uint32_t emplace(Args&&... args) {
    ++live_;
    if (free_.empty()) {
      // mhrp-lint: allow(hotpath-alloc) amortized, to the high-water mark
      items_.emplace_back(std::in_place, std::forward<Args>(args)...);
      // mhrp-lint: allow(hotpath-alloc) grows with items_, see release()
      free_.reserve(items_.capacity());
      return static_cast<std::uint32_t>(items_.size() - 1);
    }
    const std::uint32_t index = free_.back();
    free_.pop_back();
    // mhrp-lint: allow(hotpath-alloc) optional::emplace: in place
    items_[index].emplace(std::forward<Args>(args)...);
    return index;
  }

  [[nodiscard]] T& operator[](std::uint32_t index) { return *items_[index]; }

  /// Move the entry out and free its index.
  MHRP_HOT_PATH T take(std::uint32_t index) {
    T value = std::move(*items_[index]);
    release(index);
    return value;
  }

  /// Destroy the entry and free its index.
  MHRP_HOT_PATH void release(std::uint32_t index) noexcept {
    items_[index].reset();
    // mhrp-lint: allow(hotpath-alloc) within the capacity emplace() reserved
    free_.push_back(index);
    --live_;
  }

  /// Entries held now.
  [[nodiscard]] std::size_t live() const { return live_; }
  /// Entries the storage holds room for: the high-water mark of live().
  [[nodiscard]] std::size_t capacity() const { return items_.size(); }

 private:
  std::vector<std::optional<T>> items_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
};

/// Opaque handle identifying a scheduled event so it can be cancelled or
/// queried. Default-constructed handles refer to no event. Handles are
/// trivially copyable and never dangle into freed memory, but they hold a
/// pointer to their queue: using a non-default handle after its queue is
/// destroyed is undefined.
class EventHandle {
 public:
  EventHandle() = default;

  /// True when the handle refers to an event that has neither fired nor
  /// been cancelled.
  [[nodiscard]] bool pending() const;

  /// True when the handle was obtained from a schedule() call (i.e. it
  /// identifies some event, pending or not); default handles are invalid.
  [[nodiscard]] bool valid() const { return queue_ != nullptr; }

 private:
  friend class EventQueue;
  friend struct EventQueueTestPeer;
  EventHandle(const EventQueue* queue, std::uint32_t slot,
              std::uint32_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}

  const EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// Timestamp-bucketed event queue over a slab of event slots: one FIFO
/// per distinct pending time, a min-heap over those times. Cancellation
/// is amortized O(1); cancelled slots are unlinked lazily.
class EventQueue {
 public:
  using Action = std::function<void()>;

  EventQueue() : index_(kMinIndex) {}
  // Handles point at their queue, so the queue must not move or be copied.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule the control closure `action` at absolute time `when`: it
  /// waits in the closure slab, and the slot holds an Event naming it.
  /// Times may not decrease relative to already-popped events; the
  /// executive enforces that. `category` tags the event for profiler
  /// attribution; it does not affect ordering. Dropping the returned
  /// handle forfeits the only way to cancel the event — cast to void at
  /// intentional fire-and-forget sites.
  [[nodiscard]] EventHandle schedule(
      Time when, Action action,
      EventCategory category = EventCategory::kGeneral) {
    serial_.assert_held();
    const std::uint32_t closure = closures_.emplace(std::move(action));
    return schedule(when, Event{&run_closure, this, closure, category});
  }

  /// Schedule `event` at absolute time `when`. The queue copies the
  /// record and nothing else: whatever `event.arg` names stays the
  /// caller's to free, when the event runs or, if it is cancelled, never
  /// (so a caller that cancels must own that cleanup).
  [[nodiscard]] MHRP_HOT_PATH EventHandle schedule(Time when, Event event) {
    serial_.assert_held();
    std::uint32_t slot = free_head_;
    if (slot != kNone) {
      free_head_ = slots_[slot].next;
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      // mhrp-lint: allow(hotpath-alloc) amortized slab growth (file comment)
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.event = event;
    note_closure_event(event, +1);
    s.live = true;
    s.next = kNone;
    Bucket& b = buckets_[bucket_for(when)];
    if (b.head == kNone) {
      b.head = slot;
    } else {
      slots_[b.tail].next = slot;
    }
    b.tail = slot;
    ++live_;
    return EventHandle(this, slot, s.generation);
  }

  /// Cancel a pending event. Returns true when the event was pending and
  /// is now cancelled; false when it already fired or was cancelled, or
  /// when the handle is default-constructed / from another queue.
  MHRP_HOT_PATH bool cancel(const EventHandle& handle) {
    serial_.assert_held();
    if (!pending(handle)) return false;
    Slot& s = slots_[handle.slot_];
    if (s.event.fn == &run_closure) closures_.release(s.event.arg);
    note_closure_event(s.event, -1);
    s.live = false;
    ++s.generation;  // wraps at 2^32, see file comment
    --live_;
    ++dead_;  // still linked into its bucket until pop or compact() frees it
    if (dead_ > live_ && dead_ >= kCompactFloor) compact();
    return true;
  }

  /// True when `handle` names an event of this queue that has neither
  /// fired nor been cancelled.
  [[nodiscard]] MHRP_HOT_PATH bool pending(const EventHandle& handle) const {
    serial_.assert_held();
    if (handle.queue_ != this) return false;
    const Slot& s = slots_[handle.slot_];
    return s.live && s.generation == handle.generation_;
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Timestamp of the next live event. Requires !empty().
  [[nodiscard]] MHRP_HOT_PATH Time next_time() {
    serial_.assert_held();
    return buckets_[front_bucket()].when;
  }

  /// A popped event: its firing time and its record; `action()` runs it.
  /// The record of a control closure names a closure-slab slot, which
  /// running it frees; scheduling the record again instead keeps the
  /// closure parked.
  struct Fired {
    Time when;
    Event action;
  };

  /// Remove and return the next live event. Requires !empty(). The slot
  /// is released before returning, so the event's handle reports
  /// non-pending while the event runs (and cancelling it returns false).
  /// The record must be run or scheduled again: a dropped control-closure
  /// record leaves its closure parked for good (audit builds check).
  [[nodiscard]] MHRP_HOT_PATH Fired pop() {
    serial_.assert_held();
    check_closures();
    return take_head(front_bucket());
  }

  /// pop() when the next live event is due by `deadline` (inclusive);
  /// nothing otherwise, including when the queue is empty. The executive
  /// loops use it to find the front bucket once per event.
  [[nodiscard]] MHRP_HOT_PATH std::optional<Fired> pop_if_due(Time deadline) {
    serial_.assert_held();
    check_closures();
    if (live_ == 0) return std::nullopt;
    const std::uint32_t b = front_bucket();
    if (buckets_[b].when > deadline) return std::nullopt;
    return take_head(b);
  }

 private:
  friend struct EventQueueTestPeer;  // wraparound and storage tests

  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  // compact() runs once dead slots outnumber live ones and number at
  // least this many, so a queue holding a handful of events does not
  // compact on every cancel. Each pass is paid for by the >= max(live,
  // floor) cancels since the last one.
  static constexpr std::uint32_t kCompactFloor = 64;
  static constexpr std::size_t kMinIndex = 16;  // power of two

  struct Slot {
    Event event;
    std::uint32_t generation = 0;
    std::uint32_t next = kNone;  // bucket FIFO link, or free-list link
    bool live = false;
  };

  /// The Event::fn of a control closure: moves the closure out of its
  /// slab slot, freeing the slot, and runs it.
  static void run_closure(void* queue, std::uint32_t closure) {
    EventQueue& q = *static_cast<EventQueue*>(queue);
    q.serial_.assert_held();
    const Action action = q.closures_.take(closure);
    action();
  }

  /// Audit builds count the pending events that name a parked closure
  /// and check, before every pop, that the closure slab holds exactly
  /// those: a popped closure record must have been run (which frees its
  /// closure) or scheduled again before the next pop.
  void note_closure_event(const Event& event, int delta)
      MHRP_REQUIRES(serial_) {
#ifdef MHRP_AUDIT
    if (event.fn != &run_closure) return;
    if (delta > 0) {
      ++closure_events_;
    } else {
      --closure_events_;
    }
#else
    (void)event;
    (void)delta;
#endif
  }
  void check_closures() const MHRP_REQUIRES(serial_) {
#ifdef MHRP_AUDIT
    if (closures_.live() != closure_events_) {
      throw std::logic_error(
          "EventQueue: a popped closure event was neither run nor "
          "rescheduled; its closure stays parked");
    }
#endif
  }

  /// The FIFO of one pending time. A free bucket links the bucket free
  /// list through `head`.
  struct Bucket {
    Time when;
    std::uint32_t head;
    std::uint32_t tail;
  };

  /// A time-heap entry; times in the heap are distinct, so `when` alone
  /// orders it.
  struct HeapItem {
    Time when;
    std::uint32_t bucket;
  };

  /// An index cell; `bucket == kNone` marks it empty.
  struct IndexEntry {
    Time when = 0;
    std::uint32_t bucket = kNone;
  };

  /// The bucket of time `when`, created (heap push, index insert) when
  /// no pending event has that time yet.
  MHRP_HOT_PATH std::uint32_t bucket_for(Time when) MHRP_REQUIRES(serial_) {
    if (last_ != kNone && buckets_[last_].when == when) return last_;
    const std::size_t mask = index_.size() - 1;
    std::size_t i = home(when);
    for (; index_[i].bucket != kNone; i = (i + 1) & mask) {
      if (index_[i].when == when) return last_ = index_[i].bucket;
    }
    std::uint32_t b = free_bucket_;
    if (b != kNone) {
      free_bucket_ = buckets_[b].head;
    } else {
      b = static_cast<std::uint32_t>(buckets_.size());
      // mhrp-lint: allow(hotpath-alloc) amortized bucket-pool growth; pool size tracks distinct pending times
      buckets_.emplace_back();
    }
    buckets_[b] = Bucket{when, kNone, kNone};
    index_[i] = IndexEntry{when, b};
    // mhrp-lint: allow(hotpath-alloc) amortized time-heap growth; entries are POD
    heap_.push_back(HeapItem{when, b});
    sift_up(heap_.size() - 1);
    // mhrp-lint: allow(hotpath-alloc) amortized index growth: doubles past load 1/2
    if (2 * heap_.size() > index_.size()) rebuild_index(2 * index_.size());
    return last_ = b;
  }

  /// The front bucket with a live head: frees the dead slots at the
  /// front and retires buckets left empty. Requires !empty().
  std::uint32_t front_bucket() MHRP_REQUIRES(serial_) {
    while (true) {
      const std::uint32_t b = heap_.front().bucket;
      Bucket& bucket = buckets_[b];
      while (bucket.head != kNone && !slots_[bucket.head].live) {
        const std::uint32_t dead = bucket.head;
        bucket.head = slots_[dead].next;
        free_slot(dead);
        --dead_;
      }
      if (bucket.head != kNone) return b;
      remove_front_bucket();
    }
  }

  /// Unlink and release the live head of bucket `b`. The emptied bucket
  /// stays at the front until the next front_bucket() call, so an action
  /// that schedules at the current time appends to it.
  Fired take_head(std::uint32_t b) MHRP_REQUIRES(serial_) {
    Bucket& bucket = buckets_[b];
    const std::uint32_t slot = bucket.head;
    Slot& s = slots_[slot];
    bucket.head = s.next;
    Fired fired{bucket.when, s.event};
    note_closure_event(s.event, -1);
    s.live = false;
    ++s.generation;  // wraps at 2^32, see file comment
    free_slot(slot);
    --live_;
    return fired;
  }

  void free_slot(std::uint32_t slot) MHRP_REQUIRES(serial_) {
    slots_[slot].next = free_head_;
    free_head_ = slot;
  }

  void free_bucket(std::uint32_t b) MHRP_REQUIRES(serial_) {
    if (last_ == b) last_ = kNone;
    buckets_[b].head = free_bucket_;
    free_bucket_ = b;
  }

  void remove_front_bucket() MHRP_REQUIRES(serial_) {
    const std::uint32_t b = heap_.front().bucket;
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    index_erase(buckets_[b].when);
    free_bucket(b);
  }

  /// Unlink every dead slot, retire the buckets left empty, and rebuild
  /// the time heap and the index over the survivors. Firing order is
  /// untouched: live slots keep their relative order in each bucket.
  void compact() MHRP_REQUIRES(serial_) {
    std::size_t kept = 0;
    for (std::size_t h = 0; h < heap_.size(); ++h) {
      const HeapItem item = heap_[h];
      Bucket& bucket = buckets_[item.bucket];
      std::uint32_t head = kNone;
      std::uint32_t tail = kNone;
      for (std::uint32_t i = bucket.head; i != kNone;) {
        const std::uint32_t next = slots_[i].next;
        if (slots_[i].live) {
          slots_[i].next = kNone;
          if (tail == kNone) {
            head = i;
          } else {
            slots_[tail].next = i;
          }
          tail = i;
        } else {
          free_slot(i);
        }
        i = next;
      }
      bucket.head = head;
      bucket.tail = tail;
      if (head == kNone) {
        free_bucket(item.bucket);
      } else {
        heap_[kept++] = item;
      }
    }
    heap_.resize(kept);
    for (std::size_t i = kept / 2; i-- > 0;) sift_down(i);
    dead_ = 0;
    rebuild_index(std::bit_ceil(std::max(kMinIndex, 4 * kept)));
  }

  // --- when -> bucket index: linear probing, backward-shift erase ----

  [[nodiscard]] std::size_t home(Time when) const MHRP_REQUIRES(serial_) {
    // Fibonacci hashing: times are multiples of link latencies, so the
    // high bits of the product spread them where the low bits would not.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(when) * 0x9E3779B97F4A7C15ull) >>
        index_shift_);
  }

  /// Re-create the index with `capacity` cells (a power of two) over the
  /// buckets in the time heap.
  void rebuild_index(std::size_t capacity) MHRP_REQUIRES(serial_) {
    std::vector<IndexEntry>(capacity).swap(index_);
    index_shift_ = 64 - std::countr_zero(capacity);
    const std::size_t mask = capacity - 1;
    for (const HeapItem& item : heap_) {
      std::size_t i = home(item.when);
      while (index_[i].bucket != kNone) i = (i + 1) & mask;
      index_[i] = IndexEntry{item.when, item.bucket};
    }
  }

  void index_erase(Time when) MHRP_REQUIRES(serial_) {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = home(when);
    while (index_[i].when != when || index_[i].bucket == kNone) {
      i = (i + 1) & mask;
    }
    // Shift later members of the probe run back over the hole, so no
    // tombstones are needed.
    for (std::size_t j = (i + 1) & mask; index_[j].bucket != kNone;
         j = (j + 1) & mask) {
      const std::size_t want = home(index_[j].when);
      // The entry at j may fill hole i unless its home lies in (i, j].
      const bool stays = i <= j ? (i < want && want <= j)
                                : (i < want || want <= j);
      if (!stays) {
        index_[i] = index_[j];
        i = j;
      }
    }
    index_[i].bucket = kNone;
  }

  // --- time heap -----------------------------------------------------

  void sift_up(std::size_t i) MHRP_REQUIRES(serial_) {
    const HeapItem item = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (heap_[parent].when <= item.when) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = item;
  }

  void sift_down(std::size_t i) MHRP_REQUIRES(serial_) {
    const HeapItem item = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1].when < heap_[child].when) {
        ++child;
      }
      if (item.when <= heap_[child].when) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = item;
  }

  // All mutable queue state is owned by one logical serial domain: the
  // queue's shard, run by one thread at a time. The phantom capability
  // documents that invariant and lets a clang -Wthread-safety build
  // verify it at zero runtime cost.
  util::ExecutiveSerial serial_;
  std::vector<Slot> slots_ MHRP_GUARDED_BY(serial_);
  Slab<Action> closures_ MHRP_GUARDED_BY(serial_);
  std::vector<Bucket> buckets_ MHRP_GUARDED_BY(serial_);
  std::vector<HeapItem> heap_ MHRP_GUARDED_BY(serial_);
  std::vector<IndexEntry> index_ MHRP_GUARDED_BY(serial_);
  int index_shift_ MHRP_GUARDED_BY(serial_) = 64 - std::countr_zero(kMinIndex);
  std::uint32_t free_head_ MHRP_GUARDED_BY(serial_) = kNone;
  std::uint32_t free_bucket_ MHRP_GUARDED_BY(serial_) = kNone;
  std::uint32_t last_ MHRP_GUARDED_BY(serial_) = kNone;  // last appended bucket
  std::size_t dead_ MHRP_GUARDED_BY(serial_) = 0;  // cancelled, still linked
  // Pending events naming a parked closure; counted in audit builds only.
  std::size_t closure_events_ MHRP_GUARDED_BY(serial_) = 0;
  std::size_t live_ = 0;  // read by empty()/size() observers
};

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->pending(*this);
}

}  // namespace mhrp::sim
