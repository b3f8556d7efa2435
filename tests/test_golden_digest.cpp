// Golden replay digests: a hash of metrics_digest() for a fixed set of
// small worlds, pinned as constants. test_replay checks that two runs in
// one build agree; these constants make the same check across commits,
// so a refactor that claims "every replay digest unchanged" is verified
// rather than asserted. A deliberate behaviour change must update the
// constants and say why.
//
// The hash is 64-bit FNV-1a over the digest text; the digest length is
// pinned too, so a mismatch shows whether bytes were added or changed.
// The *Serial constants were captured on the separate single-threaded
// executive that the one-shard ShardedExecutive replaced; they are the
// reference its inline mode is held to.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "scenario/figure1.hpp"
#include "scenario/mhrp_world.hpp"
#include "scenario/replay_digest.hpp"
#include "scenario/scale_world.hpp"

namespace mhrp::scenario {
namespace {

struct Golden {
  std::size_t length;
  std::uint64_t fnv1a;
};

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

void expect_golden(const std::string& digest, Golden golden) {
  ASSERT_FALSE(digest.empty());
  char hex[24];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(fnv1a(digest)));
  EXPECT_EQ(digest.size(), golden.length) << "hash " << hex;
  EXPECT_EQ(fnv1a(digest), golden.fnv1a) << "hash " << hex;
}

ScaleWorldOptions small_world(ScaleWorldOptions::Backbone backbone,
                              int routers, std::uint64_t seed, int shards) {
  ScaleWorldOptions opt;
  opt.backbone = backbone;
  opt.routers = routers;
  opt.foreign_agents = 12;
  opt.mobile_hosts = 24;
  opt.correspondents = 4;
  opt.mean_dwell = sim::seconds(2);
  opt.protocol.seed = seed;
  opt.shards = shards;
  // Pinned so the one-shard and the 2-shard run roam the same regions.
  opt.movement_regions = 2;
  return opt;
}

ScaleWorldOptions tree_world(int shards) {
  return small_world(ScaleWorldOptions::Backbone::kTree, 63, 11, shards);
}

ScaleWorldOptions grid_world(int shards) {
  return small_world(ScaleWorldOptions::Backbone::kGrid, 36, 7, shards);
}

ScaleWorldOptions dv_chaos_world(int shards) {
  ScaleWorldOptions opt =
      small_world(ScaleWorldOptions::Backbone::kGrid, 36, 5, shards);
  opt.protocol.routing = routing::dv::Mode::kDv;
  opt.chaos.enabled = true;
  opt.chaos.fault_seed = 0xc4a05;
  opt.chaos.horizon = sim::seconds(10);
  opt.chaos.cell_outages_per_sec = 0.3;
  opt.chaos.backbone_outages_per_sec = 0.2;
  opt.chaos.fa_crashes_per_sec = 0.2;
  opt.chaos.mean_outage = sim::seconds(2);
  opt.chaos.mean_downtime = sim::seconds(2);
  return opt;
}

std::string scale_digest(const ScaleWorldOptions& opt) {
  ScaleWorld world(opt);
  world.start();
  const ScaleRunStats stats = world.run_for(sim::seconds(8));
  // A golden hash of a world that did nothing would pin nothing.
  EXPECT_GT(stats.packets_delivered, 0u);
  EXPECT_GT(stats.moves, 0u);
  EXPECT_GT(stats.registrations, 0u);
  return world.metrics_digest();
}

TEST(GoldenDigest, TreeSerial) {
  expect_golden(scale_digest(tree_world(1)), {13653, 0xbfa44575f67c6230ull});
}

TEST(GoldenDigest, TreeTwoShards) {
  expect_golden(scale_digest(tree_world(2)), {13653, 0xbfa44575f67c6230ull});
}

TEST(GoldenDigest, GridSerial) {
  expect_golden(scale_digest(grid_world(1)), {11645, 0x6a65f233891a8525ull});
}

TEST(GoldenDigest, GridTwoShards) {
  expect_golden(scale_digest(grid_world(2)), {11645, 0x6a65f233891a8525ull});
}

TEST(GoldenDigest, DvChaosSerial) {
  expect_golden(scale_digest(dv_chaos_world(1)),
                {13381, 0x6895ab6ac996860cull});
}

TEST(GoldenDigest, DvChaosTwoShards) {
  expect_golden(scale_digest(dv_chaos_world(2)),
                {13244, 0x6f8e0f7318895553ull});
}

TEST(GoldenDigest, MhrpWorldTour) {
  // The Figure 1 shaped world (home site, three foreign sites) with two
  // mobiles walking a fixed tour that includes a return home.
  MhrpWorldOptions opt;
  opt.foreign_sites = 3;
  opt.mobile_hosts = 2;
  opt.correspondents = 2;
  opt.protocol.seed = 42;
  MhrpWorld world(opt);
  const int tour[] = {0, 1, 2, -1, 2, 0, 1, -1};
  int step = 0;
  for (int site : tour) {
    ASSERT_TRUE(world.move_and_register(step % 2, site));
    ++step;
  }
  world.topo.sim().run_for(sim::seconds(5));
  expect_golden(world.metrics_digest(), {2439, 0x0f7aad9e5d0996e1ull});
}

TEST(GoldenDigest, Figure1Walkthrough) {
  // §6: register at D, ping, move to E, ping through the forwarding
  // pointer, return home. Figure1 has no registry, so the topology
  // counters are the digest.
  Figure1 w;
  ASSERT_TRUE(w.register_at_d());
  w.s->ping(w.m_address(), [](const node::Host::PingResult&) {});
  w.topo.sim().run_for(sim::seconds(10));
  ASSERT_TRUE(w.register_at_e());
  w.s->ping(w.m_address(), [](const node::Host::PingResult&) {});
  w.topo.sim().run_for(sim::seconds(10));
  ASSERT_TRUE(w.register_at_home());
  w.s->ping(w.m_address(), [](const node::Host::PingResult&) {});
  w.topo.sim().run_for(sim::seconds(10));
  expect_golden(topology_digest(w.topo), {724, 0xc9cac91c8ed5af0eull});
}

}  // namespace
}  // namespace mhrp::scenario
