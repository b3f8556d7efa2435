// ShardedExecutive: the simulation executive (DESIGN.md §13). Every
// node lives on exactly one shard; each shard owns a slab EventQueue and
// its own clock.
//
// One shard runs inline: run_until() executes events on the caller's
// thread in (time, seq) order, one at a time, with no worker, barrier or
// mailbox. stop() ends the run after the current event, and an event
// profiler may be installed.
//
// Two or more shards each get one persistent worker thread and
// synchronize conservatively in windows of width W = the executive's
// lookahead (the minimum cross-shard link latency, scenario-provided):
// every event in [T, T+W) can be executed with no input from any other
// shard, because anything another shard sends from inside the same
// window arrives at T+W or later. Each window runs three phases,
// separated by one std::barrier:
//
//   A  the coordinator publishes the window end E = min-next-event + W
//      and releases the workers;
//   B  each worker executes its local events with timestamp < E in
//      (time, seq) order, exactly like the inline loop;
//      cross-shard work lands in per-(source,target) SPSC mailboxes;
//   C  each worker drains its own inboxes in ascending source-shard
//      order into its queue, so sequence numbers — and therefore
//      same-timestamp FIFO order — are assigned deterministically.
//
// Determinism contract: for a FIXED shard count, runs are byte-identical
// (mailbox drain order and per-shard (time, seq) order are both
// deterministic). Across DIFFERENT shard counts, same-timestamp
// interleaving at shared nodes differs (a cross-shard send is sequenced
// at inbox-drain time, not transmit time), so data-plane counters may
// wobble by a few packets; only simulated-time-keyed observables —
// movement, registration completions, series merged on a canonical
// (time, mobile) key — are comparable. See DESIGN.md §13 for the full
// contract.
//
// Cross-shard sends are subject to the lookahead contract: a post()
// whose timestamp lands inside the still-open window throws
// LookaheadViolation (see executive.hpp) — never a silent clamp.
#pragma once

#include <array>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <ctime>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_category.hpp"
#include "sim/event_queue.hpp"
#include "sim/executive.hpp"
#include "sim/profiler.hpp"
#include "sim/time.hpp"
#include "util/annotations.hpp"

namespace mhrp::sim {

class ShardedExecutive final : public Executive {
 public:
  /// `shards` queues (and, from two shards, as many worker threads);
  /// `lookahead` is the conservative window width W (>= 1 microsecond) —
  /// set it to the minimum latency of any cross-shard link before the
  /// first multi-shard run.
  explicit ShardedExecutive(ShardId shards, Time lookahead = millis(1))
      : lookahead_(lookahead),
        barrier_(static_cast<std::ptrdiff_t>(shards) + 1) {
    if (shards < 1) {
      throw std::invalid_argument("ShardedExecutive: shards < 1");
    }
    if (lookahead_ < 1) {
      throw std::invalid_argument("ShardedExecutive: lookahead < 1us");
    }
    shards_.reserve(shards);
    for (ShardId s = 0; s < shards; ++s) {
      shards_.push_back(std::make_unique<Shard>(*this, s, shards));
    }
  }

  ~ShardedExecutive() override { shutdown_workers(); }

  /// Narrow the window width. Must be called while quiesced (between
  /// runs); the scenario layer calls it once partitioning is known.
  void set_lookahead(Time lookahead) {
    if (lookahead < 1) {
      throw std::invalid_argument("ShardedExecutive: lookahead < 1us");
    }
    lookahead_ = lookahead;
  }
  [[nodiscard]] Time lookahead() const override { return lookahead_; }

  /// Per-shard work accounting, read while quiesced. `busy_ns` is the
  /// running thread's own CPU time (CLOCK_THREAD_CPUTIME_ID) spent
  /// executing events and draining inboxes — barrier waits excluded — so
  /// executed/busy_ns is the shard's event rate independent of how many
  /// cores the host actually granted (bench_shard reports the sum).
  struct ShardStats {
    std::uint64_t executed = 0;
    std::uint64_t busy_ns = 0;
  };
  [[nodiscard]] std::vector<ShardStats> shard_stats() const {
    std::vector<ShardStats> stats;
    stats.reserve(shards_.size());
    for (const auto& shard : shards_) {
      stats.push_back({shard->executed, shard->busy_ns});
    }
    return stats;
  }

  /// The per-shard scheduling facade. Nodes assigned to shard `s` hold
  /// this as their sim::Executive&, so everything they schedule — even
  /// at construction time, before any worker exists — lands on their
  /// own shard's queue.
  [[nodiscard]] Executive& shard_view(ShardId shard) {
    return shards_.at(shard)->view;
  }

  // ---- Executive ----

  [[nodiscard]] Time now() const override {
    const Shard* s = current_shard();
    return s != nullptr ? s->now : floor_;
  }

  [[nodiscard]] EventHandle at(
      Time when, Action action,
      EventCategory category = EventCategory::kGeneral) override {
    return schedule_local(calling_shard(), when, std::move(action), category);
  }

  [[nodiscard]] EventHandle at(Time when, Event event) override {
    return schedule_local(calling_shard(), when, event);
  }

  [[nodiscard]] ShardSlot& shard_slot() override {
    return calling_shard().slot;
  }

  bool cancel(const EventHandle& handle) override {
    if (Shard* s = current_shard()) {
      // Mid-run, only the calling shard's own events are cancellable; a
      // handle owned by another shard's queue reports false (the same
      // answer as an event that already fired), never races that queue.
      return s->queue.cancel(handle);
    }
    for (auto& shard : shards_) {  // quiesced: find the owning queue
      if (shard->queue.cancel(handle)) return true;
    }
    return false;
  }

  void post(ShardId target, Time when, Action action,
            EventCategory category = EventCategory::kGeneral) override {
    if (target >= shards_.size()) {
      throw std::out_of_range("ShardedExecutive::post: shard out of range");
    }
    Shard& to = *shards_[target];
    Shard* from = current_shard();
    if (from == nullptr || from == &to) {
      // Quiesced (no window open), or shard-local: plain scheduling.
      Shard& s = from != nullptr ? *from : to;
      (void)schedule_local(s, when, std::move(action), category);
      return;
    }
    const Time window_end = window_end_.load(std::memory_order_relaxed);
    if (when < window_end) throw LookaheadViolation(when, window_end);
    to.inbox[from->id].push(when, category, std::move(action));
  }

  [[nodiscard]] ShardId shard_count() const override {
    return static_cast<ShardId>(shards_.size());
  }

  [[nodiscard]] ShardId shard_id() const override {
    const Shard* s = current_shard();
    return s != nullptr ? s->id : 0;
  }

  std::size_t run() override {
    return run_until(std::numeric_limits<Time>::max());
  }

  std::size_t run_until(Time deadline) override {
    if (current_shard() != nullptr) {
      throw std::logic_error(
          "ShardedExecutive::run_until called from inside a shard event");
    }
    if (shards_.size() == 1) {
      return profiler_ == nullptr ? run_inline<false>(deadline)
                                  : run_inline<true>(deadline);
    }
    start_workers();
    const std::uint64_t before = total_executed();
    stopped_.store(false, std::memory_order_relaxed);

    constexpr Time kMax = std::numeric_limits<Time>::max();
    // First timestamp NOT covered by this run (deadline is inclusive).
    const Time limit = deadline == kMax ? kMax : deadline + 1;
    while (!stopped_.load(std::memory_order_relaxed)) {
      Time next = kMax;
      for (auto& shard : shards_) {
        if (!shard->queue.empty()) {
          next = std::min(next, shard->queue.next_time());
        }
      }
      if (next >= limit) break;  // drained, or nothing left in range
      const Time window_end =
          next >= limit - lookahead_ ? limit : next + lookahead_;
      window_end_.store(window_end, std::memory_order_relaxed);
      barrier_.arrive_and_wait();  // A: window published, workers go
      barrier_.arrive_and_wait();  // B: local events < end executed
      barrier_.arrive_and_wait();  // C: inboxes drained
      if (has_error()) {
        std::exception_ptr err;
        {
          const std::lock_guard<std::mutex> lock(error_mu_);
          err = std::exchange(error_, nullptr);
        }
        shutdown_workers();
        std::rethrow_exception(err);
      }
    }

    if (!stopped_.load(std::memory_order_relaxed) && deadline != kMax) {
      // As inline: a drained run leaves the clock at the deadline, so
      // subsequent after() calls are deadline-relative.
      for (auto& shard : shards_) {
        if (shard->now < deadline) shard->now = deadline;
      }
      floor_ = deadline;
    } else {
      Time reached = floor_;
      for (auto& shard : shards_) reached = std::max(reached, shard->now);
      floor_ = reached;
    }
    return static_cast<std::size_t>(total_executed() - before);
  }

  std::size_t run_for(Time duration) override {
    return run_until(floor_ + duration);
  }

  void stop() override { stopped_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] std::size_t pending_events() const override {
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard->queue.size();
    return total;
  }

  /// Install (or clear, with nullptr) an event-loop profiler; it takes
  /// effect at the next run. Only one shard can be profiled: per-event
  /// wall times from concurrent workers would interleave meaninglessly,
  /// so from two shards up a profiler is refused. Clearing is always
  /// accepted so generic teardown paths need not special-case the count.
  void set_profiler(EventLoopProfiler* profiler) override {
    if (profiler != nullptr && shards_.size() > 1) {
      throw std::logic_error(
          "ShardedExecutive: profiler needs one shard; profile unsharded");
    }
    profiler_ = profiler;
  }

 private:
  struct Shard;

  /// Bounded SPSC mailbox for one (source shard -> target shard) pair.
  /// The ring alone carries the common case; a burst past the ring's
  /// capacity spills into the overflow vector, which is safe because the
  /// producer only writes it during the execute phase and the consumer
  /// only reads it after the phase-B barrier (a happens-before edge).
  class Mailbox {
   public:
    void push(Time when, EventCategory category, Action action) {
      const std::size_t tail = tail_.load(std::memory_order_relaxed);
      if (tail - head_.load(std::memory_order_acquire) < kCapacity) {
        Item& slot = ring_[tail & (kCapacity - 1)];
        slot.when = when;
        slot.category = category;
        slot.action = std::move(action);
        tail_.store(tail + 1, std::memory_order_release);
      } else {
        overflow_.push_back(Item{when, category, std::move(action)});
      }
    }

    /// Drain FIFO into `fn`. Caller is the consumer side, past the
    /// phase-B barrier.
    template <typename Fn>
    void drain(Fn&& fn) {
      std::size_t head = head_.load(std::memory_order_relaxed);
      const std::size_t tail = tail_.load(std::memory_order_acquire);
      while (head != tail) {
        Item& slot = ring_[head & (kCapacity - 1)];
        fn(slot.when, slot.category, std::move(slot.action));
        slot.action = nullptr;
        ++head;
      }
      head_.store(head, std::memory_order_release);
      for (Item& item : overflow_) {
        fn(item.when, item.category, std::move(item.action));
      }
      overflow_.clear();
    }

   private:
    struct Item {
      Time when = 0;
      EventCategory category = EventCategory::kGeneral;
      Action action;
    };
    static constexpr std::size_t kCapacity = 256;  // power of two

    std::array<Item, kCapacity> ring_{};
    std::atomic<std::size_t> head_{0};
    std::atomic<std::size_t> tail_{0};
    std::vector<Item> overflow_;
  };

  /// The facade a shard's nodes hold as their Executive. Scheduling pins
  /// to the owning shard no matter which thread calls (construction-time
  /// calls come from the quiesced main thread); mid-run, only the
  /// owning shard's worker may schedule through it.
  class ShardView final : public Executive {
   public:
    explicit ShardView(ShardedExecutive& owner, Shard& shard)
        : owner_(owner), shard_(shard) {}

    [[nodiscard]] Time now() const override { return shard_.now; }

    [[nodiscard]] EventHandle at(
        Time when, Action action,
        EventCategory category = EventCategory::kGeneral) override {
      check_owner();
      return owner_.schedule_local(shard_, when, std::move(action), category);
    }

    [[nodiscard]] EventHandle at(Time when, Event event) override {
      check_owner();
      return owner_.schedule_local(shard_, when, event);
    }

    [[nodiscard]] ShardSlot& shard_slot() override { return shard_.slot; }

    [[nodiscard]] EventHandle after(
        Time delay, Action action,
        EventCategory category = EventCategory::kGeneral) override {
      return at(shard_.now + (delay < 0 ? 0 : delay), std::move(action),
                category);
    }

    bool cancel(const EventHandle& handle) override {
      return shard_.queue.cancel(handle);
    }

    void post(ShardId target, Time when, Action action,
              EventCategory category = EventCategory::kGeneral) override {
      owner_.post(target, when, std::move(action), category);
    }

    [[nodiscard]] ShardId shard_count() const override {
      return owner_.shard_count();
    }
    [[nodiscard]] ShardId shard_id() const override { return shard_.id; }
    [[nodiscard]] Time lookahead() const override {
      return owner_.lookahead();
    }

    std::size_t run() override { return owner_.run(); }
    std::size_t run_until(Time deadline) override {
      return owner_.run_until(deadline);
    }
    std::size_t run_for(Time duration) override {
      return owner_.run_for(duration);
    }
    void stop() override { owner_.stop(); }
    [[nodiscard]] std::size_t pending_events() const override {
      return shard_.queue.size();
    }
    void set_profiler(EventLoopProfiler* profiler) override {
      owner_.set_profiler(profiler);
    }

   private:
    void check_owner() const {
      Shard* current = owner_.current_shard();
      if (current != nullptr && current != &shard_) {
        throw std::logic_error(
            "cross-shard at() through a foreign shard view; use post()");
      }
    }

    ShardedExecutive& owner_;
    Shard& shard_;
  };

  struct Shard {
    Shard(ShardedExecutive& exec, ShardId shard_id, ShardId shard_count)
        : owner(&exec), id(shard_id), view(exec, *this), inbox(shard_count) {}

    ShardedExecutive* const owner;
    const ShardId id;
    /// The shard's serial domain: its queue, clock, and executed counter
    /// are touched only by its worker mid-window, and only by the
    /// quiesced coordinator between windows (barrier happens-before).
    util::ExecutiveSerial serial;
    ShardSlot slot{nullptr, nullptr};  // declared before the queue: outlives it
    EventQueue queue;
    Time now = kTimeZero;
    std::uint64_t executed = 0;
    std::uint64_t busy_ns = 0;
    ShardView view;
    std::vector<Mailbox> inbox;  // indexed by source shard
    std::thread worker;
  };

  [[nodiscard]] Shard* current_shard() const {
    Shard* s = tls_shard_;
    return (s != nullptr && s->owner == this) ? s : nullptr;
  }

  /// The calling shard mid-run; shard 0 while quiesced.
  [[nodiscard]] Shard& calling_shard() {
    Shard* s = current_shard();
    return s != nullptr ? *s : *shards_.front();
  }

  /// Schedule onto `shard` (an Event, or a closure and its category).
  template <typename... Args>
  [[nodiscard]] EventHandle schedule_local(Shard& shard, Time when,
                                           Args&&... event) {
    if (when < shard.now) when = shard.now;  // local clamp
    return shard.queue.schedule(when, std::forward<Args>(event)...);
  }

  /// Marks the calling thread as running `shard` for the length of an
  /// inline run, so current_shard() — and with it the run_until guard
  /// and ShardView's foreign-view check — behaves as on a worker. The
  /// previous mark is restored on exit, exceptions included.
  class InlineScope {
   public:
    explicit InlineScope(Shard& shard)
        : previous_(std::exchange(tls_shard_, &shard)) {}
    ~InlineScope() { tls_shard_ = previous_; }
    InlineScope(const InlineScope&) = delete;
    InlineScope& operator=(const InlineScope&) = delete;

   private:
    Shard* previous_;
  };

  /// The one-shard run: events with timestamp <= deadline, one at a time
  /// on the caller's thread, until the queue drains or stop() is called.
  /// A drained run leaves the clock at the deadline. Instantiated with
  /// and without profiling so the unprofiled loop carries no per-event
  /// check.
  template <bool kProfiled>
  std::size_t run_inline(Time deadline) {
    Shard& shard = *shards_.front();
    shard.serial.assert_held();
    const std::uint64_t busy_start = thread_cpu_ns();
    stopped_.store(false, std::memory_order_relaxed);
    std::size_t executed = 0;
    {
      const InlineScope scope(shard);
      while (!stopped_.load(std::memory_order_relaxed)) {
        auto fired = shard.queue.pop_if_due(deadline);
        if (!fired) break;
        shard.now = fired->when;
        if constexpr (kProfiled) {
          const auto started = profiler_->begin_event();
          fired->action();
          profiler_->end_event(fired->action.category, started);
        } else {
          fired->action();
        }
        ++executed;
      }
    }
    if (!stopped_.load(std::memory_order_relaxed) &&
        deadline != std::numeric_limits<Time>::max() && shard.now < deadline) {
      shard.now = deadline;
    }
    floor_ = shard.now;
    shard.executed += executed;
    shard.busy_ns += thread_cpu_ns() - busy_start;
    return executed;
  }

  /// Execute the shard's local events with timestamp < `window_end`,
  /// advancing its clock — phase B of the window. Newly scheduled local
  /// events inside the window run in the same pass, exactly as they
  /// would inline.
  void run_window(Shard& shard, Time window_end)
      MHRP_REQUIRES(shard.serial) {
    // window_end is exclusive; times are integers.
    while (auto fired = shard.queue.pop_if_due(window_end - 1)) {
      shard.now = fired->when;
      fired->action();
      ++shard.executed;
    }
  }

  /// Drain this shard's inboxes in ascending source-shard order — phase
  /// C. The fixed order makes sequence-number assignment (and therefore
  /// same-timestamp FIFO order) deterministic for a fixed shard count.
  void drain_inboxes(Shard& shard) MHRP_REQUIRES(shard.serial) {
    for (Mailbox& mail : shard.inbox) {
      mail.drain([&shard](Time when, EventCategory category, Action action) {
        if (when < shard.now) when = shard.now;  // defensive; cannot fire
        (void)shard.queue.schedule(when, std::move(action), category);
      });
    }
  }

  [[nodiscard]] static std::uint64_t thread_cpu_ns() {
    timespec ts{};
    // CPU-time accounting for bench_shard's aggregate event rate; the
    // value never feeds simulation state or replay digests.
    // mhrp-lint: allow(wallclock) per-thread CPU time for bench stats only
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }

  void worker_main(Shard& shard) {
    tls_shard_ = &shard;
    shard.serial.assert_held();
    while (true) {
      barrier_.arrive_and_wait();  // A: window published (or shutdown)
      if (shutdown_.load(std::memory_order_relaxed)) break;
      const Time window_end = window_end_.load(std::memory_order_relaxed);
      const std::uint64_t busy_start = thread_cpu_ns();
      try {
        run_window(shard, window_end);
      } catch (...) {
        record_error();
      }
      barrier_.arrive_and_wait();  // B
      try {
        drain_inboxes(shard);
      } catch (...) {
        record_error();
      }
      shard.busy_ns += thread_cpu_ns() - busy_start;
      barrier_.arrive_and_wait();  // C
    }
    tls_shard_ = nullptr;
  }

  void start_workers() {
    if (started_) return;
    shutdown_.store(false, std::memory_order_relaxed);
    for (auto& shard : shards_) {
      shard->worker = std::thread([this, s = shard.get()] { worker_main(*s); });
    }
    started_ = true;
  }

  void shutdown_workers() {
    if (!started_) return;
    shutdown_.store(true, std::memory_order_relaxed);
    barrier_.arrive_and_wait();  // release workers at phase A; they exit
    for (auto& shard : shards_) {
      if (shard->worker.joinable()) shard->worker.join();
    }
    started_ = false;
  }

  [[nodiscard]] bool has_error() {
    const std::lock_guard<std::mutex> lock(error_mu_);
    return error_ != nullptr;
  }

  void record_error() {
    const std::lock_guard<std::mutex> lock(error_mu_);
    if (error_ == nullptr) error_ = std::current_exception();
  }

  [[nodiscard]] std::uint64_t total_executed() const {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) total += shard->executed;
    return total;
  }

  inline static thread_local Shard* tls_shard_ = nullptr;

  Time lookahead_;
  Time floor_ = kTimeZero;  // completed time, read while quiesced
  std::vector<std::unique_ptr<Shard>> shards_;
  std::barrier<> barrier_;
  std::atomic<Time> window_end_{0};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> shutdown_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;
  bool started_ = false;
  EventLoopProfiler* profiler_ = nullptr;
};

}  // namespace mhrp::sim
