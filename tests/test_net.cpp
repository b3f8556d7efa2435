// Unit tests: addresses, IP header (incl. options), packet round-trips,
// ICMP and UDP codecs, and the frames a Link drops.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "net/icmp.hpp"
#include "net/interface.hpp"
#include "net/ip_address.hpp"
#include "net/ip_header.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/udp.hpp"
#include "sim/sharded_executive.hpp"
#include "util/checksum.hpp"

namespace mhrp::net {
namespace {

TEST(IpAddress, ParseAndFormat) {
  auto a = IpAddress::parse("10.1.2.3");
  EXPECT_EQ(a.raw(), 0x0A010203u);
  EXPECT_EQ(a.to_string(), "10.1.2.3");
  EXPECT_EQ(IpAddress::of(255, 255, 255, 255), kBroadcast);
  EXPECT_THROW(IpAddress::parse("10.1.2"), std::invalid_argument);
  EXPECT_THROW(IpAddress::parse("10.1.2.256"), std::invalid_argument);
  EXPECT_THROW(IpAddress::parse("10.1.2.3.4"), std::invalid_argument);
  EXPECT_THROW(IpAddress::parse("ten.one.two.three"), std::invalid_argument);
}

TEST(IpAddress, Classification) {
  EXPECT_TRUE(IpAddress().is_unspecified());
  EXPECT_TRUE(kBroadcast.is_broadcast());
  EXPECT_TRUE(IpAddress::parse("224.0.0.11").is_multicast());
  EXPECT_FALSE(IpAddress::parse("10.0.0.1").is_multicast());
}

TEST(Prefix, ContainsAndCanonicalizes) {
  Prefix p(IpAddress::parse("10.2.0.77"), 24);
  EXPECT_EQ(p.address(), IpAddress::parse("10.2.0.0"));
  EXPECT_TRUE(p.contains(IpAddress::parse("10.2.0.1")));
  EXPECT_FALSE(p.contains(IpAddress::parse("10.3.0.1")));
  EXPECT_EQ(p.broadcast(), IpAddress::parse("10.2.0.255"));
  EXPECT_EQ(Prefix::parse("10.2.0.0/24"), p);
  EXPECT_TRUE(Prefix::host(IpAddress::parse("1.2.3.4")).is_host_route());
  // /0 contains everything.
  EXPECT_TRUE(Prefix(kUnspecified, 0).contains(IpAddress::parse("9.9.9.9")));
}

TEST(IpHeader, EncodedSizeWithoutOptionsIs20) {
  IpHeader h;
  EXPECT_EQ(h.encoded_size(), 20u);
}

TEST(IpHeader, LsrrOptionPadsToEightBytes) {
  // One-address LSRR: type + len + pointer + 4 = 7, padded to 8 — the
  // per-packet overhead the paper quotes for the IBM proposal.
  IpHeader h;
  h.options.push_back(make_lsrr_option({IpAddress::parse("10.0.0.1")}, 0));
  EXPECT_EQ(h.encoded_size(), 28u);
}

TEST(IpHeader, LsrrRoundTrip) {
  std::vector<IpAddress> route{IpAddress::parse("10.0.0.1"),
                               IpAddress::parse("10.0.0.2")};
  IpOption opt = make_lsrr_option(route, 1);
  LsrrView view = parse_lsrr_option(opt);
  EXPECT_EQ(view.route, route);
  EXPECT_EQ(view.pointer_index, 1u);
}

TEST(Packet, SerializeDeserializeRoundTrip) {
  IpHeader h;
  h.tos = 7;
  h.identification = 0x9999;
  h.ttl = 33;
  h.protocol = to_u8(IpProto::kUdp);
  h.src = IpAddress::parse("10.1.0.10");
  h.dst = IpAddress::parse("10.2.0.77");
  h.dont_fragment = true;
  std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  Packet p(h, payload);

  auto wire = p.serialize();
  EXPECT_EQ(wire.size(), 25u);
  EXPECT_TRUE(util::checksum_ok(std::span(wire).subspan(0, 20)));

  Packet q = Packet::deserialize(wire);
  EXPECT_EQ(q.header(), h);
  EXPECT_EQ(q.payload(), payload);
}

TEST(Packet, RoundTripWithOptions) {
  IpHeader h;
  h.src = IpAddress::parse("10.1.0.10");
  h.dst = IpAddress::parse("10.2.0.77");
  h.options.push_back(make_lsrr_option({IpAddress::parse("10.3.0.1")}, 0));
  Packet p(h, {0xAA});
  Packet q = Packet::deserialize(p.serialize());
  ASSERT_EQ(q.header().options.size(), 1u);
  auto view = parse_lsrr_option(q.header().options[0]);
  EXPECT_EQ(view.route[0], IpAddress::parse("10.3.0.1"));
}

TEST(Packet, DeserializeRejectsCorruptChecksum) {
  IpHeader h;
  h.src = IpAddress::parse("1.1.1.1");
  h.dst = IpAddress::parse("2.2.2.2");
  auto wire = Packet(h, {1}).serialize();
  wire[8] ^= 0xFF;  // flip TTL
  EXPECT_THROW(Packet::deserialize(wire), util::CodecError);
}

TEST(Packet, DeserializeRejectsShortBuffers) {
  std::vector<std::uint8_t> tiny(8, 0);
  EXPECT_THROW(Packet::deserialize(tiny), util::CodecError);
}

TEST(Icmp, EchoRoundTrip) {
  IcmpEcho echo;
  echo.ident = 77;
  echo.sequence = 3;
  echo.data = {9, 8, 7};
  auto wire = encode_icmp(echo);
  EXPECT_TRUE(util::checksum_ok(wire));
  auto msg = decode_icmp(wire);
  ASSERT_TRUE(std::holds_alternative<IcmpEcho>(msg));
  EXPECT_EQ(std::get<IcmpEcho>(msg), echo);
}

TEST(Icmp, LocationUpdateRoundTrip) {
  IcmpLocationUpdate u;
  u.mobile_host = IpAddress::parse("10.2.0.77");
  u.foreign_agent = IpAddress::parse("10.4.0.1");
  auto msg = decode_icmp(encode_icmp(u));
  ASSERT_TRUE(std::holds_alternative<IcmpLocationUpdate>(msg));
  EXPECT_EQ(std::get<IcmpLocationUpdate>(msg), u);

  u.invalidate = true;
  u.foreign_agent = kUnspecified;
  msg = decode_icmp(encode_icmp(u));
  EXPECT_EQ(std::get<IcmpLocationUpdate>(msg), u);
}

TEST(Icmp, AgentAdvertisementRoundTrip) {
  IcmpAgentAdvertisement adv;
  adv.agent = IpAddress::parse("10.4.0.1");
  adv.offers_foreign_agent = true;
  adv.lifetime_s = 15;
  adv.sequence = 42;
  auto msg = decode_icmp(encode_icmp(adv));
  ASSERT_TRUE(std::holds_alternative<IcmpAgentAdvertisement>(msg));
  EXPECT_EQ(std::get<IcmpAgentAdvertisement>(msg), adv);
}

TEST(Icmp, UnreachableCarriesQuote) {
  IcmpUnreachable u;
  u.code = UnreachCode::kHostUnreachable;
  u.quoted = {1, 2, 3, 4, 5, 6, 7, 8};
  auto msg = decode_icmp(encode_icmp(u));
  ASSERT_TRUE(std::holds_alternative<IcmpUnreachable>(msg));
  EXPECT_EQ(std::get<IcmpUnreachable>(msg), u);
}

TEST(Icmp, UnknownTypesDecodeAsUnknownNotError) {
  // Paper §4.3: hosts that do not implement MHRP silently discard ICMP
  // of unknown type — so decoding must not fail on them.
  IcmpUnknown raw;
  raw.type = 200;
  raw.code = 3;
  raw.body = {1, 2, 3};
  auto msg = decode_icmp(encode_icmp(raw));
  ASSERT_TRUE(std::holds_alternative<IcmpUnknown>(msg));
  EXPECT_EQ(std::get<IcmpUnknown>(msg), raw);
}

TEST(Icmp, CorruptChecksumThrows) {
  auto wire = encode_icmp(IcmpEcho{});
  wire.back() ^= 0x1;
  EXPECT_THROW(decode_icmp(wire), util::CodecError);
}

TEST(Icmp, TypeOfMatchesWire) {
  IcmpEcho request;
  request.is_request = true;
  IcmpEcho reply;
  reply.is_request = false;
  EXPECT_EQ(icmp_type_of(request), IcmpType::kEchoRequest);
  EXPECT_EQ(icmp_type_of(reply), IcmpType::kEchoReply);
  EXPECT_EQ(icmp_type_of(IcmpLocationUpdate{}), IcmpType::kLocationUpdate);
}

TEST(Udp, RoundTrip) {
  std::vector<std::uint8_t> data{5, 4, 3};
  auto wire = encode_udp({1234, 80}, data);
  EXPECT_EQ(wire.size(), 11u);
  auto datagram = decode_udp(wire);
  EXPECT_EQ(datagram.header.src_port, 1234);
  EXPECT_EQ(datagram.header.dst_port, 80);
  EXPECT_EQ(datagram.data, data);
}

TEST(Udp, CorruptionDetected) {
  std::vector<std::uint8_t> data{5, 4, 3};
  auto wire = encode_udp({1, 2}, data);
  wire[9] ^= 0xFF;
  EXPECT_THROW(decode_udp(wire), util::CodecError);
}

class RecordingSink final : public FrameSink {
 public:
  void on_frame(Interface& iface, Frame frame) override {
    (void)iface;
    frames.push_back(std::move(frame));
  }
  std::vector<Frame> frames;
};

Frame ip_frame(MacAddress src, MacAddress dst) {
  IpHeader h;
  h.protocol = to_u8(IpProto::kUdp);
  const std::vector<std::uint8_t> data(8);
  return Frame{src, dst, Packet(h, encode_udp({1, 2}, data))};
}

// The two ways a frame used to vanish without a trace: a unicast MAC no
// member owns, and a member that detaches while the frame is in flight.
// Each is counted and delivers nothing; a down link keeps its own count.
TEST(LinkDrops, UnknownMacAndDetachedMemberAreCounted) {
  sim::ShardedExecutive exec(1);
  Link link(exec, "lan", sim::millis(1));
  RecordingSink sink_a;
  RecordingSink sink_b;
  RecordingSink sink_gone;
  Interface a(sink_a, "a", 0);
  Interface b(sink_b, "b", 0);
  Interface gone(sink_gone, "gone", 0);  // never attached
  link.attach(a);
  link.attach(b);

  a.send(ip_frame(a.mac(), gone.mac()));
  (void)exec.run();
  EXPECT_EQ(link.frames_dropped_no_owner(), 1u);
  EXPECT_EQ(link.frames_dropped_detached(), 0u);
  EXPECT_TRUE(sink_b.frames.empty());
  EXPECT_TRUE(sink_gone.frames.empty());

  a.send(ip_frame(a.mac(), b.mac()));
  link.detach(b);  // leaves while the frame is in flight
  (void)exec.run();
  EXPECT_EQ(link.frames_dropped_detached(), 1u);
  EXPECT_EQ(link.frames_dropped_no_owner(), 1u);
  EXPECT_TRUE(sink_b.frames.empty());

  // A frame in flight when the link fails counts as down, not detached.
  link.attach(b);
  a.send(ip_frame(a.mac(), b.mac()));
  link.fail();
  (void)exec.run();
  EXPECT_EQ(link.frames_dropped_down(), 1u);
  EXPECT_EQ(link.frames_dropped_detached(), 1u);
  EXPECT_TRUE(sink_b.frames.empty());

  link.recover();
  a.send(ip_frame(a.mac(), b.mac()));
  (void)exec.run();
  EXPECT_EQ(sink_b.frames.size(), 1u);
  EXPECT_EQ(link.frames_carried(), 4u);  // a no-owner frame still hits the wire
  EXPECT_EQ(frame_slab(exec).live(), 0u);
}

class ThrowingSink final : public FrameSink {
 public:
  void on_frame(Interface& iface, Frame frame) override {
    (void)iface;
    (void)frame;
    throw std::runtime_error("sink failed");
  }
};

// A delivery that throws still frees its frame's slot in the slab.
TEST(LinkDrops, ThrowingDeliveryFreesItsSlot) {
  sim::ShardedExecutive exec(1);
  Link link(exec, "p2p", sim::millis(1));
  RecordingSink sink_a;
  ThrowingSink sink_b;
  Interface a(sink_a, "a", 0);
  Interface b(sink_b, "b", 0);
  link.attach(a);
  link.attach(b);
  a.send(ip_frame(a.mac(), b.mac()));
  EXPECT_EQ(frame_slab(exec).live(), 1u);
  EXPECT_THROW((void)exec.run(), std::runtime_error);
  EXPECT_EQ(frame_slab(exec).live(), 0u);
}

TEST(PacketMetadata, WireCrossingsTrackMaxAndTotal) {
  Packet p;
  p.note_wire_crossing(48);
  p.note_wire_crossing(60);
  p.note_wire_crossing(48);
  EXPECT_EQ(p.max_wire_size(), 60u);
  EXPECT_EQ(p.total_wire_bytes(), 156u);
}

}  // namespace
}  // namespace mhrp::net
