// E10 — infrastructure micro-benchmarks: the per-packet primitive costs
// underlying every experiment. MHRP header encode/decode, §4.1/§4.4
// transforms, location-cache operations, the Internet checksum, IP
// packet (de)serialization, the event queue, and one link delivery.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/encapsulation.hpp"
#include "core/location_cache.hpp"
#include "net/interface.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/udp.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_executive.hpp"
#include "util/checksum.hpp"

using namespace mhrp;

namespace {

net::Packet sample_packet() {
  net::IpHeader h;
  h.protocol = net::to_u8(net::IpProto::kUdp);
  h.src = net::IpAddress::parse("10.1.0.10");
  h.dst = net::IpAddress::parse("10.2.0.77");
  std::vector<std::uint8_t> payload(64, 0x42);
  return net::Packet(h, net::encode_udp({1, 2}, payload));
}

void BM_ChecksumIpHeader(benchmark::State& state) {
  std::vector<std::uint8_t> header(20, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::internet_checksum(header));
  }
}
BENCHMARK(BM_ChecksumIpHeader);

void BM_ChecksumMtuPayload(benchmark::State& state) {
  std::vector<std::uint8_t> payload(1500, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::internet_checksum(payload));
  }
}
BENCHMARK(BM_ChecksumMtuPayload);

void BM_MhrpHeaderEncode(benchmark::State& state) {
  core::MhrpHeader h;
  h.orig_protocol = 17;
  h.mobile_host = net::IpAddress::parse("10.2.0.77");
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    h.previous_sources.emplace_back(std::uint32_t(0x0A000001 + i));
  }
  for (auto _ : state) {
    util::ByteWriter w(h.encoded_size());
    h.encode(w);
    benchmark::DoNotOptimize(w.take());
  }
}
BENCHMARK(BM_MhrpHeaderEncode)->Arg(0)->Arg(2)->Arg(8);

void BM_MhrpHeaderDecode(benchmark::State& state) {
  core::MhrpHeader h;
  h.orig_protocol = 17;
  h.mobile_host = net::IpAddress::parse("10.2.0.77");
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    h.previous_sources.emplace_back(std::uint32_t(0x0A000001 + i));
  }
  util::ByteWriter w;
  h.encode(w);
  auto bytes = w.take();
  for (auto _ : state) {
    util::ByteReader r(bytes);
    benchmark::DoNotOptimize(core::MhrpHeader::decode(r));
  }
}
BENCHMARK(BM_MhrpHeaderDecode)->Arg(0)->Arg(2)->Arg(8);

void BM_EncapsulateDecapsulate(benchmark::State& state) {
  const net::Packet original = sample_packet();
  const net::IpAddress fa = net::IpAddress::parse("10.4.0.1");
  const net::IpAddress ha = net::IpAddress::parse("10.2.0.1");
  for (auto _ : state) {
    net::Packet p = original;
    core::encapsulate(p, fa, ha);
    benchmark::DoNotOptimize(core::decapsulate(p));
  }
}
BENCHMARK(BM_EncapsulateDecapsulate);

void BM_Retunnel(benchmark::State& state) {
  net::Packet tunneled = sample_packet();
  core::encapsulate(tunneled, net::IpAddress::parse("10.4.0.1"),
                    net::IpAddress::parse("10.2.0.1"));
  for (auto _ : state) {
    net::Packet p = tunneled;
    benchmark::DoNotOptimize(
        core::retunnel(p, net::IpAddress::parse("10.4.0.1"),
                       net::IpAddress::parse("10.5.0.1"), 8));
  }
}
BENCHMARK(BM_Retunnel);

void BM_PacketSerializeRoundTrip(benchmark::State& state) {
  const net::Packet p = sample_packet();
  for (auto _ : state) {
    auto wire = p.serialize();
    benchmark::DoNotOptimize(net::Packet::deserialize(wire));
  }
}
BENCHMARK(BM_PacketSerializeRoundTrip);

void BM_LocationCacheHit(benchmark::State& state) {
  core::LocationCache cache(1024);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    cache.update(net::IpAddress(0x0A000000 + i),
                 net::IpAddress(0x0B000000 + i));
  }
  std::uint32_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.lookup(net::IpAddress(0x0A000000 + (cursor++ % 1000))));
  }
}
BENCHMARK(BM_LocationCacheHit);

void BM_LocationCacheUpdateWithEviction(benchmark::State& state) {
  core::LocationCache cache(256);
  std::uint32_t cursor = 0;
  for (auto _ : state) {
    cache.update(net::IpAddress(0x0A000000 + cursor++),
                 net::IpAddress::parse("10.4.0.1"));
  }
  state.counters["evictions"] = double(cache.stats().evictions);
}
BENCHMARK(BM_LocationCacheUpdateWithEviction);

// The slab event queue (src/sim) over its two hot patterns: schedule
// then pop (pure throughput) and schedule then cancel (the timer-churn
// pattern — every retransmit timer that is armed and then disarmed).

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::EventQueue q;
  sim::Time t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) {
      (void)q.schedule(t + (i * 7919) % 100, [] {});
    }
    while (!q.empty()) q.pop().action();
    t += 100;
  }
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_EventQueueScheduleAndCancel(benchmark::State& state) {
  sim::EventQueue q;
  sim::Time t = 0;
  for (auto _ : state) {
    // One survivor past every cancelled event, so the single pop below
    // frees the round's cancelled slots.
    auto keep = q.schedule(t + 1000, [] {});
    for (int i = 0; i < 16; ++i) {
      auto h = q.schedule(t + (i * 7919) % 100, [] {});
      benchmark::DoNotOptimize(q.cancel(h));
    }
    (void)keep;
    q.pop().action();
    t += 10000;
  }
}
BENCHMARK(BM_EventQueueScheduleAndCancel);

// Steady-state ("hold model") cases: a queue of kHoldDepth live events;
// each operation pops the front event and schedules its successor.

constexpr int kHoldDepth = 4096;

// Link-shaped: every link costs the same latency, so events share
// timestamps — 16 per time here — and timers are re-armed: every fourth
// operation cancels the oldest of 64 far-future timers and arms a new one.
void BM_EventQueueLinkShaped(benchmark::State& state) {
  constexpr sim::Time kLatency = 1024;
  sim::EventQueue q;
  for (int i = 0; i < kHoldDepth; ++i) {
    (void)q.schedule(sim::Time(i / 16) * 4, [] {});
  }
  std::vector<sim::EventHandle> timers(64);
  std::size_t oldest = 0;
  std::uint64_t op = 0;
  for (auto _ : state) {
    sim::EventQueue::Fired fired = q.pop();
    benchmark::DoNotOptimize(
        q.schedule(fired.when + kLatency, std::move(fired.action)));
    if (++op % 4 == 0) {
      benchmark::DoNotOptimize(q.cancel(timers[oldest]));
      timers[oldest] =
          q.schedule(fired.when + sim::seconds(3) + sim::Time(op % 997), [] {});
      oldest = (oldest + 1) % timers.size();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueLinkShaped);

// Unique timestamps: successors land at random gaps of up to one
// simulated second, so nearly every pending event has a time of its own.
void BM_EventQueueUniqueTimes(benchmark::State& state) {
  std::vector<sim::Time> gaps(1 << 16);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& g : gaps) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    g = sim::Time(1 + x % 1'000'000);
  }
  sim::EventQueue q;
  for (int i = 0; i < kHoldDepth; ++i) {
    (void)q.schedule(gaps[std::size_t(i)], [] {});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    sim::EventQueue::Fired fired = q.pop();
    benchmark::DoNotOptimize(q.schedule(fired.when + gaps[i++ % gaps.size()],
                                        std::move(fired.action)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueUniqueTimes);

// One link delivery, scheduled and fired: a 64-byte UDP frame bounces
// across a two-member Link, each arrival sending it straight back, so
// every delivery is one transmit, one schedule, one pop and one
// on_frame. A run covers kHops deliveries to spread the executive's
// per-run bookkeeping; items/s counts deliveries.
class BounceSink final : public net::FrameSink {
 public:
  void on_frame(net::Interface& iface, net::Frame frame) override {
    std::swap(frame.src, frame.dst);
    iface.send(std::move(frame));
  }
};

void BM_LinkDelivery(benchmark::State& state) {
  constexpr sim::Time kLatency = sim::millis(1);
  constexpr int kHops = 64;
  sim::ShardedExecutive exec(1);
  net::Link link(exec, "p2p", kLatency);
  BounceSink sink_a;
  BounceSink sink_b;
  net::Interface a(sink_a, "a", 0);
  net::Interface b(sink_b, "b", 0);
  link.attach(a);
  link.attach(b);
  net::IpHeader h;
  h.protocol = net::to_u8(net::IpProto::kUdp);
  const std::vector<std::uint8_t> data(36, 0x42);  // 20 + 8 + 36 = 64 B
  a.send(net::Frame{a.mac(), b.mac(),
                    net::Packet(h, net::encode_udp({1, 2}, data))});
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.run_until(exec.now() + kHops * kLatency));
  }
  state.SetItemsProcessed(state.iterations() * kHops);
}
BENCHMARK(BM_LinkDelivery);

}  // namespace
