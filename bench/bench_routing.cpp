// E-routing — DV reconvergence vs internetwork size (§1, §5.2). The
// paper assumes "the standard IP routing algorithms will deliver the
// packet to M's home network" and that they keep doing so across link
// failures; this bench measures what that assumption costs when the
// routing fabric is the dynamic routing::dv plane instead of a
// precomputed static oracle.
//
// For each size N the bench builds two identically-seeded ScaleWorld
// grids — one on DV, one on static routes — warms them up, then scripts
// the same backbone fault on both: the R0-R1 circuit (the link carrying
// the home agent's tunnels toward FA0) fails for a fixed outage and
// heals. Reported per point:
//
//   * time-to-reconverge for the fail and the heal epoch (seconds from
//     the fault-plane event to the last DV route change before the next
//     epoch) — the triggered-update path, not the periodic timer;
//   * CBR datagrams delivered during the outage, DV vs static twin: the
//     rerouting dividend (the static world blackholes FA0's cell);
//   * DV protocol overhead in steady state: update messages sent per
//     router-second and total route changes (wall_seconds sits next to
//     BENCH_scale.json's points for the cost of a process per router);
//   * suspected counting-to-infinity episodes (DESIGN.md §14.5) summed
//     over the routers.
//
// Usage: bench_routing [--small] [--out PATH]
//   --small    one tiny sweep point (CI smoke)
//   --out PATH where to write the JSON report (default BENCH_routing.json)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "faults/fault_schedule.hpp"
#include "scenario/scale_world.hpp"

using namespace mhrp;

namespace {

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct RoutingResult {
  int routers = 0;
  int foreign_agents = 0;
  double sim_seconds = 0;
  double wall_seconds = 0;
  std::uint64_t dv_updates_sent = 0;
  std::uint64_t dv_updates_received = 0;
  std::uint64_t dv_route_changes = 0;
  std::uint64_t dv_routes_withdrawn = 0;
  std::uint64_t dv_counting_to_infinity = 0;
  double updates_per_router_s = 0;
  std::vector<double> convergence_s;  // one per fault epoch
  std::uint64_t dv_delivered_during_outage = 0;
  std::uint64_t static_delivered_during_outage = 0;
};

scenario::ScaleWorldOptions world_options(int routers, bool dv) {
  scenario::ScaleWorldOptions opt;
  opt.routers = routers;
  opt.foreign_agents = 12;
  opt.mobile_hosts = 2 * routers > 256 ? 256 : 2 * routers;
  opt.correspondents = 4;
  opt.mean_dwell = sim::seconds(3);
  opt.protocol.seed = 1;
  if (dv) opt.protocol.routing = routing::dv::Mode::kDv;
  opt.chaos.enabled = true;  // zero rates: armed plane, scripted events
  opt.chaos.fault_seed = 0xc4a05;
  return opt;
}

/// Warm up, fail bb0 (R0-R1) for `outage`, heal, settle. Returns the
/// CBR datagrams delivered while the link was down.
std::uint64_t drive_scripted_outage(scenario::ScaleWorld& world,
                                    sim::Time warmup, sim::Time outage) {
  world.start();
  (void)world.run_for(warmup);
  faults::FaultEvent fail;
  fail.at = world.topo.sim().now();
  fail.kind = faults::FaultKind::kLinkFail;
  fail.target = world.cells.size();  // cells register first, then bb0
  fail.duration = outage;
  world.fault_plane()->apply(fail);
  const scenario::ScaleRunStats during = world.run_for(outage);
  (void)world.run_for(sim::seconds(2));  // close the heal epoch
  return during.packets_delivered;
}

RoutingResult run_point(int routers, double steady_secs) {
  const sim::Time warmup = sim::from_seconds(steady_secs);
  const sim::Time outage = sim::seconds(8);

  scenario::ScaleWorld dv(world_options(routers, true));
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t dv_delivered =
      drive_scripted_outage(dv, warmup, outage);
  const double wall = wall_seconds_since(start);

  scenario::ScaleWorld st(world_options(routers, false));
  const std::uint64_t st_delivered =
      drive_scripted_outage(st, warmup, outage);

  RoutingResult r;
  r.routers = routers;
  r.foreign_agents = static_cast<int>(dv.fa_routers.size());
  r.sim_seconds = sim::to_seconds(dv.topo.sim().now());
  r.wall_seconds = wall;
  for (const auto& process : dv.dv_processes) {
    r.dv_updates_sent += process->stats().updates_sent;
    r.dv_updates_received += process->stats().updates_received;
    r.dv_route_changes += process->stats().route_changes;
    r.dv_routes_withdrawn += process->stats().routes_withdrawn;
    r.dv_counting_to_infinity += process->stats().counting_to_infinity;
  }
  r.updates_per_router_s = double(r.dv_updates_sent) /
                           double(routers) / r.sim_seconds;
  r.convergence_s = dv.convergence_times();
  r.dv_delivered_during_outage = dv_delivered;
  r.static_delivered_during_outage = st_delivered;
  return r;
}

void write_json(const std::string& path, bool small,
                const std::vector<RoutingResult>& sweep) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_routing\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", small ? "small" : "full");
  std::fprintf(f, "  \"outage_seconds\": 8.0,\n");
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const RoutingResult& r = sweep[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"routers\": %d,\n", r.routers);
    std::fprintf(f, "      \"foreign_agents\": %d,\n", r.foreign_agents);
    std::fprintf(f, "      \"sim_seconds\": %.1f,\n", r.sim_seconds);
    std::fprintf(f, "      \"wall_seconds\": %.4f,\n", r.wall_seconds);
    std::fprintf(f, "      \"dv_updates_sent\": %llu,\n",
                 static_cast<unsigned long long>(r.dv_updates_sent));
    std::fprintf(f, "      \"dv_updates_received\": %llu,\n",
                 static_cast<unsigned long long>(r.dv_updates_received));
    std::fprintf(f, "      \"dv_route_changes\": %llu,\n",
                 static_cast<unsigned long long>(r.dv_route_changes));
    std::fprintf(f, "      \"dv_routes_withdrawn\": %llu,\n",
                 static_cast<unsigned long long>(r.dv_routes_withdrawn));
    std::fprintf(f, "      \"dv_counting_to_infinity\": %llu,\n",
                 static_cast<unsigned long long>(r.dv_counting_to_infinity));
    std::fprintf(f, "      \"updates_per_router_sec\": %.3f,\n",
                 r.updates_per_router_s);
    std::fprintf(f, "      \"convergence_s\": [");
    for (std::size_t k = 0; k < r.convergence_s.size(); ++k) {
      std::fprintf(f, "%s%.4f", k > 0 ? ", " : "", r.convergence_s[k]);
    }
    std::fprintf(f, "],\n");
    std::fprintf(
        f, "      \"delivered_during_outage\": {\"dv\": %llu, "
        "\"static\": %llu}\n",
        static_cast<unsigned long long>(r.dv_delivered_during_outage),
        static_cast<unsigned long long>(r.static_delivered_during_outage));
    std::fprintf(f, "    }%s\n", i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  std::string out = "BENCH_routing.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--small] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  std::printf("E-routing: DV reconvergence vs size (§1, §5.2)\n");
  std::printf("  scripted fault: bb0 (R0-R1, the HA->FA0 circuit), 8s\n");

  const std::vector<int> sizes =
      small ? std::vector<int>{16} : std::vector<int>{16, 64, 144, 256};
  const double steady = small ? 6.0 : 12.0;

  std::vector<RoutingResult> results;
  for (int n : sizes) {
    RoutingResult r = run_point(n, steady);
    results.push_back(r);
    std::printf(
        "\n  N=%-4d | %.2f updates/router/s | %llu route changes | "
        "delivered during outage dv=%llu static=%llu\n",
        r.routers, r.updates_per_router_s,
        static_cast<unsigned long long>(r.dv_route_changes),
        static_cast<unsigned long long>(r.dv_delivered_during_outage),
        static_cast<unsigned long long>(r.static_delivered_during_outage));
    std::printf("    reconverge:");
    for (double c : r.convergence_s) std::printf(" %.3fs", c);
    std::printf("\n");
    if (r.convergence_s.empty()) {
      std::fprintf(stderr, "  ERROR: no convergence epochs recorded\n");
      return 1;
    }
    if (r.dv_delivered_during_outage <= r.static_delivered_during_outage) {
      std::fprintf(stderr,
                   "  ERROR: DV failed to out-deliver static during the "
                   "outage\n");
      return 1;
    }
  }

  std::printf(
      "\n  §1/§5.2: reconvergence is a local triggered-update ripple —\n"
      "  it does not grow with N — and the outage dividend (packets the\n"
      "  DV world delivers that the static twin drops) is the mobility\n"
      "  protocol's routing substrate working as the paper assumes.\n");

  write_json(out, small, results);
  return 0;
}
