// Link deliveries allocate nothing once warm (DESIGN.md §8): a frame in
// flight waits in the link's FrameSlab and its arrival is a plain
// sim::Event, so neither scheduling nor firing a delivery touches the
// heap. A counting global operator new checks that claim, which is why
// this binary holds only these tests.
//
// Sanitizer builds keep the count meaningful: the executable's operator
// new replaces the runtime's, and it forwards to malloc, which ASan and
// TSan intercept, so every allocation the program makes still passes
// through the counter. The sanitizer runtimes' own bookkeeping uses
// their internal allocators, which the counter never sees.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "net/frame.hpp"
#include "net/interface.hpp"
#include "net/ip_header.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/protocols.hpp"
#include "net/udp.hpp"
#include "sim/sharded_executive.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC pairs the malloc above with these frees across the replacement
// boundary and would warn of a new/free mismatch that is not there.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace mhrp::net {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Keeps what it receives in storage reserved up front, so receiving
/// allocates nothing either.
class CountingSink final : public FrameSink {
 public:
  explicit CountingSink(std::size_t capacity) { frames.reserve(capacity); }
  void on_frame(Interface& iface, Frame frame) override {
    (void)iface;
    frames.push_back(std::move(frame));
  }
  std::vector<Frame> frames;
};

/// A 64-byte UDP datagram (20 B IP + 8 B UDP + 36 B data).
Frame udp_frame(MacAddress src, MacAddress dst) {
  IpHeader h;
  h.protocol = to_u8(IpProto::kUdp);
  h.src = IpAddress::parse("10.0.0.1");
  h.dst = IpAddress::parse("10.0.0.2");
  const std::vector<std::uint8_t> data(36, 0xAB);
  Packet packet(h, encode_udp({4000, 4000}, data));
  return Frame{src, dst, std::move(packet)};
}

constexpr int kBatch = 64;   // frames in flight at once
constexpr int kWarmup = 2;   // rounds that grow the slabs and the queue
constexpr int kRounds = 50;  // steady-state rounds after the warm-up
constexpr std::size_t kFrames = std::size_t(kWarmup + kRounds) * kBatch;

/// Allocations made while `rounds` batches of frames from `make` cross
/// the link; the frames are built before counting starts.
template <typename Make>
std::uint64_t count_rounds(sim::ShardedExecutive& exec, Interface& from,
                           int rounds, Make make) {
  std::vector<Frame> frames;
  frames.reserve(std::size_t(rounds) * kBatch);
  for (int i = 0; i < rounds * kBatch; ++i) frames.push_back(make());
  const std::uint64_t before = allocations();
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < kBatch; ++i) {
      from.send(std::move(frames[std::size_t(r) * kBatch + std::size_t(i)]));
    }
    exec.run();
  }
  return allocations() - before;
}

TEST(DeliveryAllocations, SteadyStateUnicastAllocatesNothing) {
  sim::ShardedExecutive exec(1);
  Link link(exec, "p2p", sim::millis(1), 10'000'000);
  CountingSink sink_a(0);
  CountingSink sink_b(kFrames);
  Interface a(sink_a, "a", 0);
  Interface b(sink_b, "b", 0);
  link.attach(a);
  link.attach(b);
  auto make = [&] { return udp_frame(a.mac(), b.mac()); };

  // Warm-up: the frame slab, the event slab and the bucket pool grow.
  // (The queue retires a drained bucket lazily, so the first event of
  // the next round needs a second bucket: two rounds reach the mark.)
  (void)count_rounds(exec, a, kWarmup, make);
  const std::uint64_t steady = count_rounds(exec, a, kRounds, make);

  EXPECT_EQ(steady, 0u) << "heap allocations over " << kRounds * kBatch
                        << " steady-state deliveries";
  ASSERT_EQ(sink_b.frames.size(), kFrames);
  EXPECT_EQ(sink_b.frames.back().packet().wire_size(), 64u);
  EXPECT_EQ(link.frames_carried(), kFrames);
  EXPECT_EQ(frame_slab(exec).live(), 0u);
  EXPECT_LE(frame_slab(exec).capacity(), std::size_t(kBatch));
}

// Broadcast on a two-member segment hands the original to its only
// recipient; on three members exactly one copy is made, and the last
// recipient still takes the original by move.
TEST(DeliveryAllocations, BroadcastCopiesForAllButTheLastMember) {
  sim::ShardedExecutive exec(1);
  Link p2p(exec, "p2p", sim::millis(1));
  CountingSink sink_a(0);
  CountingSink sink_b(kFrames);
  Interface a(sink_a, "a", 0);
  Interface b(sink_b, "b", 0);
  p2p.attach(a);
  p2p.attach(b);
  auto make_a = [&] { return udp_frame(a.mac(), kMacBroadcast); };
  (void)count_rounds(exec, a, kWarmup, make_a);
  EXPECT_EQ(count_rounds(exec, a, kRounds, make_a), 0u);
  EXPECT_EQ(sink_b.frames.size(), kFrames);

  Link lan(exec, "lan", sim::millis(1));
  CountingSink sink_c(0);
  CountingSink sink_d(kFrames);
  CountingSink sink_e(kFrames);
  Interface c(sink_c, "c", 0);
  Interface d(sink_d, "d", 0);
  Interface e(sink_e, "e", 0);
  lan.attach(c);
  lan.attach(d);
  lan.attach(e);
  const Frame proto = udp_frame(c.mac(), kMacBroadcast);
  const std::uint64_t before_copy = allocations();
  const Frame copy = proto;
  const std::uint64_t per_copy = allocations() - before_copy;
  ASSERT_GT(per_copy, 0u);
  ASSERT_EQ(copy.wire_size(), proto.wire_size());
  auto make_c = [&] { return Frame(proto); };
  (void)count_rounds(exec, c, kWarmup, make_c);
  EXPECT_EQ(count_rounds(exec, c, kRounds, make_c),
            per_copy * std::uint64_t(kRounds) * kBatch);
  EXPECT_EQ(sink_d.frames.size(), kFrames);
  EXPECT_EQ(sink_e.frames.size(), kFrames);
}

}  // namespace
}  // namespace mhrp::net
