// ShardedExecutive: the simulation executive (DESIGN.md §13). The
// contract under test, in order of importance:
//
//  * one shard runs inline on the caller's thread: stop() ends the run
//    after the current event, a profiler is accepted, and run_until()
//    from inside an event is refused (its golden digests live in
//    test_golden_digest);
//  * for a FIXED shard count, runs are byte-identical (the window
//    protocol and the fixed inbox drain order make sequence assignment
//    deterministic), including with the fault plane armed;
//  * a cross-shard post() whose timestamp lands inside the still-open
//    window is a hard LookaheadViolation — never a silent clamp into
//    the past (clamping would make results depend on worker timing);
//  * cancel() across shards is rejected (returns false, same answer as
//    an already-fired event) rather than racing a foreign queue;
//  * a frame crossing shards travels by value in the mailbox and
//    arrives on the receiving shard once and intact.
//
// Plus the HookHandle RAII registration that replaced Topology's old
// index-token hook scheme, which shares the {slot, generation} design
// of sim::EventHandle.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "net/interface.hpp"
#include "net/link.hpp"
#include "net/udp.hpp"
#include "scenario/scale_world.hpp"
#include "scenario/topology.hpp"
#include "scenario/tracer.hpp"
#include "sim/executive.hpp"
#include "sim/sharded_executive.hpp"
#include "sim/profiler.hpp"

namespace mhrp::sim {
namespace {

TEST(ShardedExecutive, ConstructorValidates) {
  EXPECT_THROW(ShardedExecutive(0), std::invalid_argument);
  EXPECT_THROW(ShardedExecutive(2, 0), std::invalid_argument);
  EXPECT_NO_THROW(ShardedExecutive(4, millis(1)));
}

TEST(ShardedExecutive, RunsLocalEventsInTimeOrder) {
  ShardedExecutive exec(1);
  std::vector<int> fired;
  (void)exec.at(millis(2), [&] { fired.push_back(2); });
  (void)exec.at(millis(1), [&] { fired.push_back(1); });
  (void)exec.at(millis(1), [&] { fired.push_back(10); });  // FIFO at ties
  EXPECT_EQ(exec.run_until(millis(5)), 3u);
  EXPECT_EQ(fired, (std::vector<int>{1, 10, 2}));
  EXPECT_EQ(exec.now(), millis(5));  // drained run leaves clock at deadline
  EXPECT_EQ(exec.pending_events(), 0u);
}

TEST(ShardedExecutive, CrossShardPostRunsOnTargetShard) {
  ShardedExecutive exec(2, millis(1));
  std::uint32_t observed_shard = 99;
  Time observed_at = -1;
  // Quiesced posts go straight to the target queue; this one arms a
  // mid-run cross-shard post back the other way.
  exec.post(1, millis(1), [&] {
    exec.post(0, exec.now() + exec.lookahead(), [&] {
      observed_shard = exec.shard_id();
      observed_at = exec.now();
    });
  });
  (void)exec.run_until(millis(10));
  EXPECT_EQ(observed_shard, 0u);
  EXPECT_EQ(observed_at, millis(2));
}

TEST(ShardedExecutive, PostAtExactlyWindowEndIsLegal) {
  // From an event at time t in window [T, E), posting at now+lookahead
  // can land exactly on E — the first instant the target shard has not
  // yet committed to. That boundary must be accepted.
  ShardedExecutive exec(2, millis(1));
  bool ran = false;
  exec.post(0, 0, [&] {
    exec.post(1, exec.now() + exec.lookahead(), [&] { ran = true; });
  });
  (void)exec.run_until(millis(10));
  EXPECT_TRUE(ran);
}

TEST(ShardedExecutive, LookaheadViolationIsHardErrorNotClamp) {
  // A cross-shard send timestamped inside the still-open window would
  // have to arrive "in the past" of a shard that may already have run
  // beyond it. The executive refuses — LookaheadViolation surfaces on
  // the driver — rather than clamping, which would silently order the
  // event by worker timing instead of by simulated time.
  ShardedExecutive exec(2, millis(1));
  exec.post(0, 0, [&] {
    exec.post(1, exec.now() + 1, [] {});  // 1us ahead, window is 1ms wide
  });
  try {
    (void)exec.run_until(millis(10));
    FAIL() << "expected LookaheadViolation";
  } catch (const LookaheadViolation& v) {
    EXPECT_EQ(v.when(), 1);
    EXPECT_EQ(v.window_end(), millis(1));
    EXPECT_NE(std::string(v.what()).find("lookahead"), std::string::npos);
  }
}

TEST(ShardedExecutive, QuiescedPostIsNotALookaheadViolation) {
  // Between runs no window is open: driver-side posts (scenario setup)
  // schedule directly, with the local clamp-to-now semantics.
  ShardedExecutive exec(2, millis(1));
  bool ran = false;
  exec.post(1, 0, [&] { ran = true; });
  (void)exec.run_until(millis(1));
  EXPECT_TRUE(ran);
}

TEST(ShardedExecutive, CancelAcrossShardIsRejected) {
  ShardedExecutive exec(2, millis(1));
  bool victim_ran = false;
  bool cancel_result = true;
  const EventHandle victim =
      exec.shard_view(0).at(millis(5), [&] { victim_ran = true; });
  // Same-shard mid-run cancels still work; a foreign shard's handle is
  // rejected without touching that shard's queue.
  exec.post(1, millis(1), [&] { cancel_result = exec.cancel(victim); });
  (void)exec.run_until(millis(10));
  EXPECT_FALSE(cancel_result);
  EXPECT_TRUE(victim_ran);

  // Quiesced, the driver owns every queue, so cancel finds the owner.
  bool later_ran = false;
  const EventHandle later =
      exec.shard_view(1).at(millis(20), [&] { later_ran = true; });
  EXPECT_TRUE(exec.cancel(later));
  (void)exec.run_until(millis(30));
  EXPECT_FALSE(later_ran);
}

TEST(ShardedExecutive, ForeignShardViewAtThrowsMidRun) {
  ShardedExecutive exec(2, millis(1));
  bool threw = false;
  exec.post(1, millis(1), [&] {
    try {
      (void)exec.shard_view(0).at(millis(5), [] {});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  (void)exec.run_until(millis(10));
  EXPECT_TRUE(threw);
}

class ShardRecordingSink final : public net::FrameSink {
 public:
  explicit ShardRecordingSink(ShardedExecutive& exec) : exec_(exec) {}
  void on_frame(net::Interface& iface, net::Frame frame) override {
    (void)iface;
    shards.push_back(exec_.shard_id());
    times.push_back(exec_.now());
    frames.push_back(std::move(frame));
  }
  std::vector<net::Frame> frames;
  std::vector<Executive::ShardId> shards;
  std::vector<Time> times;

 private:
  ShardedExecutive& exec_;
};

net::Frame numbered_frame(net::MacAddress src, net::MacAddress dst,
                          std::uint8_t n) {
  net::IpHeader h;
  h.protocol = net::to_u8(net::IpProto::kUdp);
  h.identification = n;
  net::Packet packet(
      h, net::encode_udp({4000, 4000}, std::vector<std::uint8_t>(36, n)));
  packet.set_flow_id(n);
  return net::Frame{src, dst, std::move(packet)};
}

// Frames from shard 0 to a member on shard 1 cross the mailbox by value,
// inside the posted closure, and wait in shard 1's own queue; neither
// shard's frame slab holds them, so shard 1 never reads shard 0's. Each
// arrives once, intact, on shard 1 at send time + latency — except the
// frame in flight when the link fails, which is counted as dropped.
// Shard-local traffic on shard 1 parks its frames in shard 1's slab only.
TEST(ShardedExecutive, CrossShardFramesArriveOnceAndIntact) {
  constexpr Time kLatency = millis(1);
  ShardedExecutive exec(2, kLatency);
  net::Link link(exec, "wire", kLatency);
  ShardRecordingSink sink_a(exec);
  ShardRecordingSink sink_b(exec);
  net::Interface a(sink_a, "a", 0);
  net::Interface b(sink_b, "b", 0);
  a.set_shard(0);
  b.set_shard(1);
  link.attach(a);
  link.attach(b);

  auto slab_of = [&exec](Executive::ShardId shard) -> net::FrameSlab& {
    return net::frame_slab(exec.shard_view(shard));
  };

  constexpr std::uint8_t kFrames = 8;
  for (std::uint8_t n = 0; n < kFrames; ++n) {
    (void)exec.shard_view(0).at(millis(10) + Time(n) * micros(100), [&, n] {
      a.send(numbered_frame(a.mac(), b.mac(), n));
    });
  }
  // Queued before the frames land, so it runs first at the first arrival
  // time: the frames sent in the first window already wait in shard 1's
  // queue.
  std::size_t receiver_pending = 0;
  (void)exec.shard_view(1).at(millis(10) + kLatency, [&] {
    receiver_pending = exec.shard_view(1).pending_events();
  });
  (void)exec.run_until(millis(20));
  EXPECT_GT(receiver_pending, 0u);

  ASSERT_EQ(sink_b.frames.size(), std::size_t(kFrames));
  for (std::uint8_t n = 0; n < kFrames; ++n) {
    const net::Frame& f = sink_b.frames[n];
    EXPECT_EQ(sink_b.shards[n], 1u);
    EXPECT_EQ(sink_b.times[n], millis(10) + Time(n) * micros(100) + kLatency);
    EXPECT_EQ(f.src, a.mac());
    EXPECT_EQ(f.dst, b.mac());
    EXPECT_EQ(f.packet().flow_id(), n);
    EXPECT_EQ(f.packet().header().identification, n);
    EXPECT_EQ(f.packet().payload(),
              net::encode_udp({4000, 4000}, std::vector<std::uint8_t>(36, n)));
  }
  EXPECT_TRUE(sink_a.frames.empty());

  // The link fails while a frame is in flight: the frame has crossed to
  // shard 1, but arrives to a down link and is dropped there.
  (void)exec.shard_view(0).at(millis(30), [&] {
    a.send(numbered_frame(a.mac(), b.mac(), 99));
  });
  (void)exec.shard_view(0).at(millis(30) + micros(500), [&] { link.fail(); });
  std::size_t pending_at_arrival = 0;
  (void)exec.shard_view(1).at(millis(30) + kLatency, [&] {
    pending_at_arrival = exec.shard_view(1).pending_events();
  });
  (void)exec.run_until(millis(40));
  EXPECT_EQ(pending_at_arrival, 2u);  // the frame, and b's carrier-down notice
  EXPECT_EQ(sink_b.frames.size(), std::size_t(kFrames));
  EXPECT_EQ(link.frames_dropped_down(), 1u);
  EXPECT_EQ(link.frames_carried(), std::uint64_t(kFrames) + 1);
  EXPECT_EQ(slab_of(0).capacity(), 0u);
  EXPECT_EQ(slab_of(1).capacity(), 0u);

  // Shard-local traffic on shard 1 uses shard 1's slab.
  net::Link local(exec, "local", kLatency);
  ShardRecordingSink sink_c(exec);
  net::Interface c(sink_c, "c", 0);
  c.set_shard(1);
  link.detach(b);
  local.attach(b);
  local.attach(c);
  std::size_t local_live = 0;
  (void)exec.shard_view(1).at(millis(50), [&] {
    b.send(numbered_frame(b.mac(), c.mac(), 7));
    local_live = slab_of(1).live();
  });
  (void)exec.run_until(millis(60));
  EXPECT_EQ(local_live, 1u);
  ASSERT_EQ(sink_c.frames.size(), 1u);
  EXPECT_EQ(sink_c.shards[0], 1u);
  EXPECT_EQ(sink_c.frames[0].packet().flow_id(), 7u);
  EXPECT_EQ(slab_of(1).live(), 0u);
  EXPECT_EQ(slab_of(0).capacity(), 0u);
}

TEST(ShardedExecutive, ProfilerIsRefused) {
  ShardedExecutive exec(2);
  EXPECT_NO_THROW(exec.set_profiler(nullptr));
  EventLoopProfiler profiler;
  EXPECT_THROW(exec.set_profiler(&profiler), std::logic_error);
}

TEST(ShardedExecutive, OneShardRunsOnTheCallersThread) {
  ShardedExecutive exec(1);
  std::thread::id ran_on;
  std::uint32_t ran_shard = 99;
  (void)exec.at(millis(1), [&] {
    ran_on = std::this_thread::get_id();
    ran_shard = exec.shard_id();
  });
  (void)exec.run();
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(ran_shard, 0u);
}

TEST(ShardedExecutive, OneShardStopLeavesTheRestOfTheWindowPending) {
  // Two or more shards stop at a window boundary; one shard stops after
  // the current event, so a later event the window would cover stays
  // queued.
  ShardedExecutive exec(1, millis(10));
  bool later_ran = false;
  (void)exec.at(millis(1), [&] { exec.stop(); });
  (void)exec.at(millis(2), [&] { later_ran = true; });
  EXPECT_EQ(exec.run(), 1u);
  EXPECT_FALSE(later_ran);
  EXPECT_EQ(exec.pending_events(), 1u);
  EXPECT_EQ(exec.now(), millis(1));
  (void)exec.run();
  EXPECT_TRUE(later_ran);
}

TEST(ShardedExecutive, ProfilerIsAcceptedAtOneShard) {
  EventLoopProfiler profiler;
  ShardedExecutive one(1);
  EXPECT_NO_THROW(one.set_profiler(&profiler));
  (void)one.at(millis(1), [] {}, EventCategory::kLinkDelivery);
  EXPECT_EQ(one.run(), 1u);
  EXPECT_EQ(profiler.total_events(), 1u);
  ShardedExecutive two(2);
  EXPECT_THROW(two.set_profiler(&profiler), std::logic_error);
}

TEST(ShardedExecutive, OneShardRunUntilFromInsideAnEventThrows) {
  ShardedExecutive exec(1);
  bool threw = false;
  (void)exec.at(millis(1), [&] {
    try {
      (void)exec.run_until(millis(5));
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  (void)exec.run();
  EXPECT_TRUE(threw);
}

TEST(ShardedExecutive, StopEndsRunAtWindowBoundary) {
  ShardedExecutive exec(2, millis(1));
  exec.post(0, millis(1), [&] { exec.stop(); });
  bool later_ran = false;
  exec.post(1, seconds(5), [&] { later_ran = true; });
  (void)exec.run();
  EXPECT_FALSE(later_ran);
  EXPECT_EQ(exec.pending_events(), 1u);
}

}  // namespace
}  // namespace mhrp::sim

namespace mhrp::scenario {
namespace {

/// A ScaleWorld small enough for TSan but with every cross-shard path
/// live: 36 routers in 4 movement regions (9 routers, 3 cells, 6
/// mobiles each), correspondents on the far region's shard, CBR flows
/// crossing the backbone both ways. movement_regions is pinned so the
/// movement RNG draws are identical at every shard count.
ScaleWorldOptions sharded_options(int shards) {
  ScaleWorldOptions opt;
  opt.routers = 36;
  opt.foreign_agents = 12;
  opt.mobile_hosts = 24;
  opt.correspondents = 4;
  opt.mean_dwell = sim::seconds(2);
  opt.protocol.seed = 7;
  opt.shards = shards;
  opt.movement_regions = 4;
  return opt;
}

std::string run_digest(const ScaleWorldOptions& opt, sim::Time duration) {
  ScaleWorld world(opt);
  world.start();
  (void)world.run_for(duration);
  return world.metrics_digest();
}

TEST(ShardedScaleWorld, FixedShardCountIsDeterministic) {
  const std::string first = run_digest(sharded_options(4), sim::seconds(10));
  const std::string second = run_digest(sharded_options(4), sim::seconds(10));
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(ShardedScaleWorld, ControlPlaneObservablesAreShardCountIndependent) {
  // Across DIFFERENT shard counts full digests legitimately diverge:
  // a cross-shard frame is sequenced at inbox-drain time rather than at
  // transmit time, so two events at the same simulated microsecond on a
  // shared node (the home agent, a correspondent) can swap — data-plane
  // counters wobble by a few packets. The contract (DESIGN.md §13) is
  // that everything keyed by simulated time stays identical: movement,
  // completed registrations, and the handoff-latency series merged on
  // the canonical (time, mobile) key.
  ScaleWorld one(sharded_options(1));
  ScaleWorld four(sharded_options(4));
  one.start();
  four.start();
  const ScaleRunStats s1 = one.run_for(sim::seconds(10));
  const ScaleRunStats s4 = four.run_for(sim::seconds(10));
  EXPECT_EQ(s1.moves, s4.moves);
  EXPECT_EQ(s1.registrations, s4.registrations);
  EXPECT_GT(s1.registrations, 0u);
  EXPECT_EQ(one.handoff_latencies(), four.handoff_latencies());
  ASSERT_FALSE(one.handoff_latencies().empty());
}

TEST(ShardedScaleWorld, RejectsUnshardableConfigurations) {
  // regions must be a positive multiple of shards...
  ScaleWorldOptions bad = sharded_options(4);
  bad.movement_regions = 6;
  EXPECT_THROW(ScaleWorld{bad}, std::invalid_argument);
  // ...every region needs at least one cell...
  ScaleWorldOptions sparse = sharded_options(4);
  sparse.movement_regions = 16;
  sparse.foreign_agents = 8;
  EXPECT_THROW(ScaleWorld{sparse}, std::invalid_argument);
  // ...and single-threaded instruments stay on one shard.
  ScaleWorldOptions traced = sharded_options(2);
  traced.telemetry.trace = true;
  EXPECT_THROW(ScaleWorld{traced}, std::invalid_argument);
  ScaleWorldOptions profiled = sharded_options(2);
  profiled.telemetry.profiler = true;
  EXPECT_THROW(ScaleWorld{profiled}, std::invalid_argument);
  ScaleWorldOptions bursty = sharded_options(2);
  bursty.chaos.enabled = true;
  bursty.chaos.loss_bursts_per_sec = 0.2;
  EXPECT_THROW(ScaleWorld{bursty}, std::invalid_argument);
}

TEST(ShardedScaleWorld, TracerConstructionFailsFast) {
  // ScaleWorld's own validation rejects telemetry.trace under shards,
  // but a Tracer can also be attached to a bare Topology by hand; it
  // must refuse a sharded world up front (one output stream, many
  // workers) instead of interleaving garbage, mirroring
  // ShardedExecutive::set_profiler.
  scenario::Topology sharded(1, 2);
  EXPECT_THROW(scenario::Tracer{sharded}, std::logic_error);
  scenario::Topology serial(1, 1);
  EXPECT_NO_THROW(scenario::Tracer{serial});
}

TEST(ShardedScaleWorld, ChaosRunIsDeterministicAcrossRepeats) {
  // The TSan chaos target: cell outages and FA crashes on worker
  // shards, HA crashes on shard 0, recovery clocks hopping shards via
  // lookahead-delayed posts. Two runs must agree byte for byte.
  ScaleWorldOptions opt = sharded_options(4);
  opt.chaos.enabled = true;
  opt.chaos.fault_seed = 0xc4a05;
  opt.chaos.horizon = sim::seconds(10);
  opt.chaos.cell_outages_per_sec = 0.3;
  opt.chaos.fa_crashes_per_sec = 0.2;
  opt.chaos.ha_crashes_per_sec = 0.05;
  opt.chaos.mean_outage = sim::seconds(2);
  opt.chaos.mean_downtime = sim::seconds(2);
  const std::string first = run_digest(opt, sim::seconds(10));
  const std::string second = run_digest(opt, sim::seconds(10));
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(TopologyHookHandle, RemovesOnDestructionAndExplicitly) {
  Topology topo(1);
  int seen_a = 0;
  int seen_b = 0;
  HookHandle a = topo.add_node_added_hook([&](node::Node&) { ++seen_a; });
  {
    HookHandle b = topo.add_node_added_hook([&](node::Node&) { ++seen_b; });
    (void)topo.add_router("r0");
    EXPECT_EQ(seen_a, 1);
    EXPECT_EQ(seen_b, 1);
  }  // b unregisters here
  (void)topo.add_router("r1");
  EXPECT_EQ(seen_a, 2);
  EXPECT_EQ(seen_b, 1);

  EXPECT_TRUE(a.active());
  a.remove();
  EXPECT_FALSE(a.active());
  a.remove();  // idempotent
  (void)topo.add_router("r2");
  EXPECT_EQ(seen_a, 2);
}

TEST(TopologyHookHandle, StaleHandleCannotRemoveSlotReuser) {
  Topology topo(1);
  int seen_old = 0;
  int seen_new = 0;
  HookHandle old_handle =
      topo.add_node_added_hook([&](node::Node&) { ++seen_old; });
  old_handle.remove();
  // The freed slot is reused with a bumped generation; the stale handle
  // (moved-from semantics aside, remove() is already spent) must not be
  // able to unregister the new occupant.
  HookHandle new_handle =
      topo.add_node_added_hook([&](node::Node&) { ++seen_new; });
  old_handle.remove();
  (void)topo.add_router("r0");
  EXPECT_EQ(seen_old, 0);
  EXPECT_EQ(seen_new, 1);
}

TEST(TopologyHookHandle, MoveTransfersRegistration) {
  Topology topo(1);
  int seen = 0;
  HookHandle a = topo.add_node_added_hook([&](node::Node&) { ++seen; });
  HookHandle b = std::move(a);
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): documented
  EXPECT_TRUE(b.active());
  (void)topo.add_router("r0");
  EXPECT_EQ(seen, 1);
  b = HookHandle();  // assignment removes the old registration
  (void)topo.add_router("r1");
  EXPECT_EQ(seen, 1);
}

}  // namespace
}  // namespace mhrp::scenario
