// E-shard — multi-core executive throughput (DESIGN.md §13).
//
// Drives one large scenario::ScaleWorld internetwork — 10^4 routers in
// the full configuration — under sim::ShardedExecutive at 1/2/4/8 shards
// (capped at the host's hardware threads), and reports events/sec for
// each point. Two rates are reported per point:
//
//   * wall_events_per_s   — events / wall-clock run time. This shows
//     real speedup only when the host grants the process that many
//     cores; on a core-restricted CI box it saturates at ~1x.
//   * agg_events_per_s    — sum over shards of executed / busy CPU time
//     (CLOCK_THREAD_CPUTIME_ID, barrier waits excluded). This is the
//     usual PDES aggregate event rate: how much event throughput the
//     partition exposes per CPU-second, net of all windowing and
//     mailbox overhead, independent of the host's core count. The
//     acceptance ratio (>= 3x at 8 shards vs 1) is checked on this
//     rate; a host with >= 8 free cores sees the same ratio in the
//     wall-clock column.
//
// Every point must report the same completed-registration count (a
// simulated-time-keyed observable, DESIGN.md §13); the bench exits 1
// when one differs.
//
// Usage: bench_shard [--small] [--out PATH]
//   --small     64-router smoke configuration, shards {1,2} (CI)
//   --out PATH  where to write the JSON report (default BENCH_shard.json)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "scenario/scale_world.hpp"
#include "sim/sharded_executive.hpp"

using namespace mhrp;

namespace {

struct PointResult {
  int shards = 0;
  std::uint64_t events = 0;
  std::uint64_t registrations = 0;
  double wall_s = 0;
  double wall_events_per_s = 0;
  double agg_events_per_s = 0;
};

struct BenchConfig {
  int routers = 0;
  int foreign_agents = 0;
  int mobiles = 0;
  int correspondents = 0;
  int movement_regions = 0;
  double sim_secs = 0;
};

scenario::ScaleWorldOptions make_options(const BenchConfig& cfg, int shards) {
  scenario::ScaleWorldOptions opt;
  opt.routers = cfg.routers;
  opt.foreign_agents = cfg.foreign_agents;
  opt.mobile_hosts = cfg.mobiles;
  opt.correspondents = cfg.correspondents;
  opt.mean_dwell = sim::seconds(2);
  opt.protocol.seed = 7;
  opt.shards = shards;
  // Pinned across the whole sweep so every point runs the same movement
  // program and the registration counts are comparable.
  opt.movement_regions = cfg.movement_regions;
  return opt;
}

PointResult run_point(const BenchConfig& cfg, int shards) {
  scenario::ScaleWorld world(make_options(cfg, shards));
  world.start();
  const auto start = std::chrono::steady_clock::now();
  const scenario::ScaleRunStats stats =
      world.run_for(sim::seconds(cfg.sim_secs));
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  PointResult r;
  r.shards = shards;
  r.events = stats.events_executed;
  r.registrations = stats.registrations;
  r.wall_s = wall;
  r.wall_events_per_s = double(r.events) / wall;
  for (const auto& shard : world.topo.sim().shard_stats()) {
    if (shard.busy_ns > 0) {
      r.agg_events_per_s +=
          double(shard.executed) / (double(shard.busy_ns) * 1e-9);
    }
  }
  return r;
}

void write_report(const char* path, const BenchConfig& cfg,
                  const std::vector<PointResult>& sweep,
                  bool registrations_match, double agg_speedup,
                  double wall_speedup) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_shard: cannot open %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"mhrp.bench.shard.v1\",\n");
  std::fprintf(f,
               "  \"config\": {\"routers\": %d, \"foreign_agents\": %d, "
               "\"mobile_hosts\": %d, \"correspondents\": %d, "
               "\"movement_regions\": %d, \"sim_seconds\": %g},\n",
               cfg.routers, cfg.foreign_agents, cfg.mobiles,
               cfg.correspondents, cfg.movement_regions, cfg.sim_secs);
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"registrations_match\": %s,\n",
               registrations_match ? "true" : "false");
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const PointResult& r = sweep[i];
    std::fprintf(f,
                 "    {\"shards\": %d, \"events\": %llu, "
                 "\"registrations\": %llu, \"wall_s\": %.3f, "
                 "\"wall_events_per_s\": %.0f, \"agg_events_per_s\": %.0f}%s\n",
                 r.shards, static_cast<unsigned long long>(r.events),
                 static_cast<unsigned long long>(r.registrations), r.wall_s,
                 r.wall_events_per_s, r.agg_events_per_s,
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"agg_speedup_max_vs_1shard\": %.2f,\n", agg_speedup);
  std::fprintf(f, "  \"wall_speedup_max_vs_1shard\": %.2f\n}\n", wall_speedup);
  std::fclose(f);
  std::printf("\n  report written to %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  const char* out = "BENCH_shard.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) small = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }

  BenchConfig cfg;
  std::vector<int> candidates;
  if (small) {
    cfg = {64, 24, 64, 8, 8, 5};
    candidates = {1, 2};
  } else {
    cfg = {10000, 240, 2000, 64, 8, 5};
    candidates = {1, 2, 4, 8};
  }
  // More shards than hardware threads measures time-slicing, not the
  // partition; the one-shard point always runs.
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> shard_points;
  for (int shards : candidates) {
    if (shards == 1 || shards <= cores) shard_points.push_back(shards);
  }

  std::printf("bench_shard: %d routers, %d mobiles, %d regions, %gs sim\n",
              cfg.routers, cfg.mobiles, cfg.movement_regions, cfg.sim_secs);
  std::printf("  %6s | %12s %8s | %14s %14s\n", "shards", "events", "wall s",
              "wall ev/s", "agg ev/s");

  std::vector<PointResult> sweep;
  bool registrations_match = true;
  for (int shards : shard_points) {
    PointResult r = run_point(cfg, shards);
    sweep.push_back(r);
    registrations_match =
        registrations_match && r.registrations == sweep.front().registrations;
    std::printf("  %6d | %12llu %8.2f | %14.0f %14.0f\n", r.shards,
                static_cast<unsigned long long>(r.events), r.wall_s,
                r.wall_events_per_s, r.agg_events_per_s);
  }
  std::printf("  registrations %s across shard counts\n",
              registrations_match ? "MATCH" : "DIFFER");

  double base_agg = 0;
  double best_agg = 0;
  double base_wall = 0;
  double best_wall = 0;
  for (const PointResult& r : sweep) {
    if (r.shards == 1) {
      base_agg = r.agg_events_per_s;
      base_wall = r.wall_events_per_s;
    }
    if (r.shards >= 2) {
      best_agg = std::max(best_agg, r.agg_events_per_s);
      best_wall = std::max(best_wall, r.wall_events_per_s);
    }
  }
  const double agg_speedup = base_agg > 0 ? best_agg / base_agg : 0;
  const double wall_speedup = base_wall > 0 ? best_wall / base_wall : 0;
  std::printf("  aggregate speedup (best vs 1 shard): %.2fx  (wall: %.2fx)\n",
              agg_speedup, wall_speedup);

  write_report(out, cfg, sweep, registrations_match, agg_speedup,
               wall_speedup);
  return registrations_match ? 0 : 1;
}
