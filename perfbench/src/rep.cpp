// One benchmark repetition in its own process: build a seeded ScaleWorld
// for one workload, warm it up, run a fixed simulated window of its
// open-loop CBR schedule in one-simulated-second slices on the
// single-threaded executive, check the outputs, and print one JSON
// object with the host timings, the simulated end-to-end results and the
// drop accounting. With --traced 1 it also attaches the benchmark's
// forward-sampling hook and the world's trace collector, replays the
// run's inputs through single layers (layers.hpp), and writes its spans.
//
//   perfbench_rep --workload NAME --seed N [--size full|tiny]
//                 [--traced 0|1] [--out-dir DIR] [--tag TAG]
//
// The digest of the run is written to DIR/TAG.digest so that runs of one
// seed can be compared byte for byte.
#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "layers.hpp"
#include "net/protocols.hpp"
#include "scenario/scale_world.hpp"
#include "spans.hpp"
#include "speed_probe.hpp"
#include "stats.hpp"
#include "telemetry/json_writer.hpp"

namespace perfbench {
namespace {

namespace sim = mhrp::sim;
namespace scenario = mhrp::scenario;
using mhrp::telemetry::JsonWriter;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool tiny = false;
  bool traced = false;
  std::string out_dir = ".";
  std::string tag = "rep";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        throw std::invalid_argument("--size must be full or tiny");
      }
      a.tiny = value == "tiny";
    } else if (flag == "--traced") {
      a.traced = value == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else if (flag == "--tag") {
      a.tag = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("flag without a value");
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

// ---- Workloads ----

struct Workload {
  scenario::ScaleWorldOptions options;
  sim::Time warmup = sim::seconds(2);
  int window_seconds = 6;  // timed, run as one-simulated-second slices
};

// The fault schedules are part of the workload definition and are the
// same for every seed; the seed drives topology order, movement, traffic
// and DV jitter. A per-seed schedule would turn "how many HA crashes
// this seed drew" into the dominant term of every end-to-end metric.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  Workload w;
  scenario::ScaleWorldOptions& o = w.options;
  o.protocol.seed = seed;
  o.cbr_payload = 64;
  o.correspondents = 4;
  if (name == "tree2k_static") {
    o.backbone = scenario::ScaleWorldOptions::Backbone::kTree;
    o.routers = tiny ? 64 : 2000;
    o.foreign_agents = tiny ? 8 : 45;
    o.mobile_hosts = tiny ? 64 : 2000;
    o.mean_dwell = sim::seconds(3);
    o.cbr_interval = sim::millis(200);
    w.window_seconds = tiny ? 2 : 6;
  } else if (name == "dense_store") {
    o.backbone = scenario::ScaleWorldOptions::Backbone::kGrid;
    o.routers = tiny ? 36 : 256;
    o.foreign_agents = tiny ? 20 : 250;
    o.mobile_hosts = tiny ? 200 : 5000;
    o.mean_dwell = sim::seconds(2);
    o.cbr_interval = sim::seconds(1);
    o.protocol.store.enabled = true;
    o.protocol.store.sync_policy = mhrp::store::SyncPolicy::kInterval;
    o.protocol.store.disk_sectors = 4096;
    o.protocol.store.snapshot_region_sectors = 256;
    o.protocol.store.snapshot_every = 1024;
    o.protocol.store.compaction_slice_rows = 256;
    w.window_seconds = tiny ? 2 : 6;
    o.chaos.enabled = true;
    o.chaos.fault_seed = 0x570a3;
    o.chaos.ha_crashes_per_sec = 0.25;
    o.chaos.mean_downtime = sim::seconds(1);
  } else if (name == "dv_chaos") {
    o.backbone = scenario::ScaleWorldOptions::Backbone::kGrid;
    o.routers = tiny ? 36 : 144;
    o.foreign_agents = tiny ? 6 : 12;
    o.mobile_hosts = tiny ? 32 : 256;
    o.mean_dwell = sim::seconds(3);
    o.cbr_interval = sim::millis(200);
    o.protocol.routing = mhrp::routing::dv::Mode::kDv;
    w.window_seconds = tiny ? 4 : 20;
    o.chaos.enabled = true;
    o.chaos.fault_seed = 0xc4a05;
    o.chaos.cell_outages_per_sec = 1.0;
    o.chaos.backbone_outages_per_sec = 0.5;
    o.chaos.fa_crashes_per_sec = 0.5;
    o.chaos.mean_outage = sim::seconds(2);
    o.chaos.mean_downtime = sim::seconds(2);
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  o.chaos.horizon = w.warmup + sim::seconds(w.window_seconds);
  return w;
}

// ---- Benchmark-side probes (public hooks only) ----

class Probe {
 public:
  static constexpr std::uint64_t kForwardSampleEvery = 16;
  static constexpr std::size_t kForwardSampleCap = std::size_t(1) << 20;

  /// Hook every mobile's deliveries and every correspondent's sends.
  /// Must run after world.start() (flow ids exist from then on) and
  /// before the first run_for (flows have not sent yet).
  explicit Probe(scenario::ScaleWorld& world) : world_(world) {
    const std::size_t m = world.mobiles.size();
    sent_.assign(m, 0);
    for (std::size_t i = 0; i < m; ++i) {
      flow_to_mobile_.emplace(world.flow_id(static_cast<int>(i)),
                              static_cast<std::uint32_t>(i));
    }
    for (std::size_t i = 0; i < m; ++i) {
      mhrp::core::MobileHost* mobile = world.mobiles[i];
      auto previous = std::move(mobile->on_deliver_hook);
      mobile->on_deliver_hook = [this, i, previous = std::move(previous)](
                                    const mhrp::net::Packet& p) {
        on_deliver(i, p);
        if (previous) previous(p);
      };
    }
    for (mhrp::node::Host* sender : world.correspondents) {
      sender->add_egress_hook([this](mhrp::net::Packet& p) {
        const auto it = flow_to_mobile_.find(p.flow_id());
        if (it != flow_to_mobile_.end()) ++sent_[it->second];
      });
    }
  }

  /// Sample 1 in kForwardSampleEvery forwarded (router, destination)
  /// pairs for the routing replay.
  void sample_forwards() {
    for (std::size_t r = 0; r < world_.routers.size(); ++r) {
      mhrp::node::Router* router = world_.routers[r];
      auto previous = std::move(router->on_forward_hook);
      router->on_forward_hook = [this, r, previous = std::move(previous)](
                                    const mhrp::net::Packet& p,
                                    mhrp::net::Interface& iface) {
        if (++forward_tick_ % kForwardSampleEvery == 0 &&
            forwards_.size() < kForwardSampleCap) {
          forwards_.push_back({static_cast<std::uint32_t>(r),
                               p.header().dst.raw()});
        }
        if (previous) previous(p, iface);
      };
    }
  }

  void set_recording(bool on) { recording_ = on; }

  [[nodiscard]] std::uint64_t sent(std::size_t i) const { return sent_[i]; }
  [[nodiscard]] std::uint64_t total_sent() const {
    std::uint64_t total = 0;
    for (std::uint64_t s : sent_) total += s;
    return total;
  }
  [[nodiscard]] std::uint64_t misdelivered() const { return misdelivered_; }
  std::vector<double>& latency_ms() { return latency_ms_; }
  std::vector<double>& hops() { return hops_; }
  [[nodiscard]] const std::vector<ForwardSample>& forwards() const {
    return forwards_;
  }

 private:
  void on_deliver(std::size_t i, const mhrp::net::Packet& p) {
    const auto it = flow_to_mobile_.find(p.flow_id());
    if (it == flow_to_mobile_.end()) return;
    // A mobile that decapsulates a tunnel itself sees the datagram twice:
    // once inside the tunnel, once re-injected as plain UDP. Count the
    // plain copy only.
    if (p.header().protocol != mhrp::net::to_u8(mhrp::net::IpProto::kUdp)) {
      return;
    }
    if (it->second != i ||
        p.header().dst != world_.mobile_address(static_cast<int>(i))) {
      ++misdelivered_;
    }
    if (!recording_) return;
    latency_ms_.push_back(
        sim::to_seconds(world_.topo.sim().now() - p.created_at()) * 1e3);
    hops_.push_back(static_cast<double>(p.hop_count()));
  }

  scenario::ScaleWorld& world_;
  std::unordered_map<std::uint64_t, std::uint32_t> flow_to_mobile_;
  std::vector<std::uint64_t> sent_;
  std::uint64_t misdelivered_ = 0;
  bool recording_ = false;
  std::vector<double> latency_ms_;
  std::vector<double> hops_;
  std::uint64_t forward_tick_ = 0;
  std::vector<ForwardSample> forwards_;
};

// ---- Counter snapshots ----

using Counters = std::map<std::string, double>;

// Every numeric metric in the world's registry, plus the node, link and
// agent counters the registry does not carry, plus the probe's CBR
// counts. Taken at both ends of the window; the report uses deltas.
Counters gather(const scenario::ScaleWorld& world, const Probe& probe) {
  Counters c;
  for (const auto& e : world.instruments.registry.snapshot().entries) {
    if (const auto* u = std::get_if<std::uint64_t>(&e.value)) {
      c[e.name] = static_cast<double>(*u);
    } else if (const auto* d = std::get_if<double>(&e.value)) {
      c[e.name] = *d;
    }
  }
  for (const auto& node : world.topo.nodes()) {
    const auto& n = node->counters();
    c["node.forwarded"] += static_cast<double>(n.forwarded);
    c["node.drop_ttl"] += static_cast<double>(n.dropped_ttl);
    c["node.drop_no_route"] += static_cast<double>(n.dropped_no_route);
    c["node.drop_arp"] += static_cast<double>(n.dropped_arp_timeout);
  }
  for (const auto& link : world.topo.links()) {
    c["net.frames"] += static_cast<double>(link->frames_carried());
    c["net.bytes"] += static_cast<double>(link->bytes_carried());
    c["net.drop_link_down"] += static_cast<double>(link->frames_dropped_down());
    c["net.drop_link_loss"] += static_cast<double>(link->frames_dropped_loss());
  }
  auto add_agent = [&c](const mhrp::core::MhrpAgent& a) {
    const auto& s = a.stats();
    c["agent.drop_disconnected"] += static_cast<double>(s.dropped_disconnected);
    c["agent.discarded_for_recovery"] +=
        static_cast<double>(s.discarded_for_recovery);
    c["agent.retunnel_ttl_drops"] += static_cast<double>(s.retunnel_ttl_drops);
  };
  add_agent(*world.ha);
  for (const auto& fa : world.fas) add_agent(*fa);
  for (const auto& ca : world.corr_agents) add_agent(*ca);
  std::uint64_t delivered = 0;
  std::uint64_t unicast = 0;
  for (std::size_t i = 0; i < world.mobiles.size(); ++i) {
    const auto& rec = world.recorder(static_cast<int>(i));
    delivered += rec.flow(world.flow_id(static_cast<int>(i))).received;
    unicast += rec.total().received;
  }
  c["cbr.sent"] = static_cast<double>(probe.total_sent());
  c["cbr.delivered"] = static_cast<double>(delivered);
  c["mobiles.unicast_received"] = static_cast<double>(unicast);
  return c;
}

double delta(const Counters& end, const Counters& start,
             const std::string& key) {
  const auto e = end.find(key);
  const auto s = start.find(key);
  return (e == end.end() ? 0.0 : e->second) -
         (s == start.end() ? 0.0 : s->second);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Resident set size now, from /proc/self/statm (pages).
double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  if (!statm) throw std::runtime_error("cannot read /proc/self/statm");
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::vector<double> tail_from(const std::vector<double>& series,
                              std::size_t first, double scale) {
  std::vector<double> out;
  for (std::size_t k = first; k < series.size(); ++k) {
    out.push_back(series[k] * scale);
  }
  return out;
}

void write_quantile(JsonWriter& json, const std::string& key,
                    const Quantile& q) {
  json.key(key);
  json.begin_object();
  json.key("value");
  json.value(q.value);
  json.key("samples");
  json.value(static_cast<std::uint64_t>(q.samples));
  json.key("beyond");
  json.value(static_cast<std::uint64_t>(q.beyond));
  // The highest percentile these samples support, in percent (0: none).
  json.key("highest_tail");
  json.value(static_cast<double>(highest_supported_tail(q.samples)) / 10.0);
  json.end_object();
}

double median_of(std::vector<double> values) {
  return quantile(values, 500).value;
}

// ---- One repetition ----

int run(const Args& args) {
  Workload w = make_workload(args.workload, args.seed, args.tiny);
  w.options.telemetry.trace = args.traced;
  SpanRecorder spans;
  // Host speed is sampled between phases and slices, outside every
  // timed span.
  const double rss_before_probe = resident_mb();
  SpeedProbe speed;
  const double probe_mb = resident_mb() - rss_before_probe;
  std::vector<double> setup_speed_ms = {speed.run_ms()};

  const int construct = spans.begin("scenario.construct");
  auto world = std::make_unique<scenario::ScaleWorld>(w.options);
  const double construct_s = spans.end(construct);
  setup_speed_ms.push_back(speed.run_ms());

  const int start = spans.begin("scenario.start");
  world->start();
  Probe probe(*world);
  if (args.traced) probe.sample_forwards();
  const double start_s = spans.end(start);

  double warmup_s = 0;
  const int warmup = spans.begin("scenario.warmup");
  for (sim::Time t = 0; t < w.warmup; t += sim::seconds(1)) {
    const int slice = spans.begin("scenario.run_for", warmup);
    (void)world->run_for(sim::seconds(1));
    warmup_s += spans.end(slice);
    setup_speed_ms.push_back(speed.run_ms());
  }
  spans.end(warmup);
  const std::size_t queue_depth = world->topo.sim().pending_events();

  const Counters before = gather(*world, probe);
  const std::size_t handoffs_before = world->handoff_latencies().size();
  const std::size_t recoveries_before = world->recovery_times().size();
  probe.set_recording(true);

  const int run_span = spans.begin("scenario.run");
  std::vector<double> slice_ms;
  std::vector<double> window_speed_ms;
  double window_s = 0;
  scenario::ScaleRunStats window;
  for (int s = 0; s < w.window_seconds; ++s) {
    const int slice = spans.begin("scenario.run_for", run_span);
    const scenario::ScaleRunStats st = world->run_for(sim::seconds(1));
    const double slice_s = spans.end(slice);
    window_s += slice_s;
    slice_ms.push_back(slice_s * 1e3);
    window.events_executed += st.events_executed;
    window.packets_delivered += st.packets_delivered;
    window_speed_ms.push_back(speed.run_ms());
  }
  spans.end(run_span);
  probe.set_recording(false);
  const double rss_mb = peak_rss_mb() - probe_mb;

  const Counters after = gather(*world, probe);
  auto d = [&](const std::string& key) { return delta(after, before, key); };

  const std::string digest = world->metrics_digest();
  {
    std::ofstream out(args.out_dir + "/" + args.tag + ".digest",
                      std::ios::binary);
    out << digest;
    if (!out) throw std::runtime_error("cannot write the run digest");
  }

  // ---- Checks ----
  std::uint64_t flows_over = 0;  // flows that delivered more than they sent
  for (std::size_t i = 0; i < world->mobiles.size(); ++i) {
    const int m = static_cast<int>(i);
    if (world->recorder(m).flow(world->flow_id(m)).received > probe.sent(i)) {
      ++flows_over;
    }
  }

  // ---- Simulated end-to-end results (window only) ----
  Quantile lat50 = quantile(probe.latency_ms(), 500);
  Quantile lat99 = quantile(probe.latency_ms(), 990);
  Quantile hop50 = quantile(probe.hops(), 500);
  Quantile hop99 = quantile(probe.hops(), 990);
  std::vector<double> handoff_ms =
      tail_from(world->handoff_latencies(), handoffs_before, 1e3);
  Quantile ho50 = quantile(handoff_ms, 500);
  Quantile ho99 = quantile(handoff_ms, 990);
  std::vector<double> recovery_s =
      tail_from(world->recovery_times(), recoveries_before, 1.0);
  Quantile rec50 = quantile(recovery_s, 500);
  Quantile rec90 = quantile(recovery_s, 900);

  const double sent = d("cbr.sent");
  const double delivered = d("cbr.delivered");
  const double regs = d("mobiles.registrations_completed");
  const double abandoned = d("mobiles.registrations_abandoned");
  const double node_drops =
      d("node.drop_ttl") + d("node.drop_no_route") + d("node.drop_arp");
  const double agent_drops = d("agent.drop_disconnected") +
                             d("agent.discarded_for_recovery") +
                             d("agent.retunnel_ttl_drops");
  const double link_drops = d("net.drop_link_down") + d("net.drop_link_loss");

  // ---- Layer replays (traced run only) ----
  std::map<std::string, double> layers;
  if (args.traced) {
    auto replay = [&](const char* name, const std::function<double()>& fn) {
      const int span = spans.begin(std::string("replay.") + name);
      layers[name] = fn();
      spans.end(span);
    };
    replay("routing.lookup_ns",
           [&] { return routing_lookup_ns(*world, probe.forwards()); });
    replay("core.cache_lookup_ns",
           [&] { return cache_lookup_ns(*world, args.seed); });
    replay("core.binding_find_ns",
           [&] { return binding_find_ns(*world, args.seed); });
    replay("sim.schedule_pop_ns", [&] {
      return schedule_pop_ns(
          queue_depth, std::min<std::uint64_t>(window.events_executed, 2000000),
          args.seed);
    });
    replay("net.codec_ns", [&] { return codec_ns(*world); });
    replay("telemetry.snapshot_ms", [&] {
      std::vector<double> ms;
      for (int k = 0; k < 3; ++k) {
        const auto t0 = SpanRecorder::Clock::now();
        const std::string json = world->metrics_json();
        ms.push_back(std::chrono::duration<double, std::milli>(
                         SpanRecorder::Clock::now() - t0)
                         .count());
      }
      return median_of(ms);
    });
    layers["routing.forward_samples"] =
        static_cast<double>(probe.forwards().size());
    std::ofstream out(args.out_dir + "/" + args.tag + ".spans.json");
    spans.write_chrome_json(out);
    if (!out) throw std::runtime_error("cannot write the span file");
  }

  double table_prefixes = 0;
  for (const auto& node : world->topo.nodes()) {
    table_prefixes += static_cast<double>(node->routing_table().size());
  }
  std::vector<double> convergence = world->convergence_times();
  std::vector<double> ha_recovery = world->ha_recovery_times();
  double lost_bindings = 0;
  for (double v : world->ha_lost_bindings()) lost_bindings += v;

  // ---- Report ----
  std::ostringstream text;
  JsonWriter json(text);
  json.begin_object();
  json.key("workload");
  json.value(args.workload);
  json.key("seed");
  json.value(args.seed);
  json.key("size");
  json.value(args.tiny ? "tiny" : "full");
  json.key("traced");
  json.value(args.traced);
  json.key("params");
  json.begin_object();
  json.key("routers");
  json.value(w.options.routers);
  json.key("foreign_agents");
  json.value(w.options.foreign_agents);
  json.key("mobile_hosts");
  json.value(w.options.mobile_hosts);
  json.key("warmup_sim_s");
  json.value(sim::to_seconds(w.warmup));
  json.key("window_sim_s");
  json.value(w.window_seconds);
  json.end_object();

  // Host speed factors: nominal kernel time over the median measured in
  // that phase (below 1 when the host runs slow).
  const double setup_speed =
      SpeedProbe::kNominalMs / median_of(setup_speed_ms);
  const double window_speed =
      SpeedProbe::kNominalMs / median_of(window_speed_ms);
  const double setup_s = construct_s + start_s + warmup_s;
  const double sim_rate = static_cast<double>(w.window_seconds) / window_s;

  json.key("host");
  json.begin_object();
  json.key("construct_s");
  json.value(construct_s);
  json.key("start_s");
  json.value(start_s);
  json.key("warmup_s");
  json.value(warmup_s);
  json.key("setup_s");
  json.value(setup_s);
  json.key("window_s");
  json.value(window_s);
  json.key("sim_rate");
  json.value(sim_rate);
  json.key("setup_speed");
  json.value(setup_speed);
  json.key("window_speed");
  json.value(window_speed);
  json.key("calibrated_setup_s");
  json.value(setup_s * setup_speed);
  json.key("calibrated_window_s");
  json.value(window_s * window_speed);
  json.key("calibrated_sim_rate");
  json.value(sim_rate / window_speed);
  json.key("peak_rss_mb");
  json.value(rss_mb);
  json.key("slice_wall_ms");
  json.begin_array();
  for (double v : slice_ms) json.value(v);
  json.end_array();
  json.end_object();

  json.key("sim");
  json.begin_object();
  json.key("delivery_ratio");
  json.value(ratio(delivered, sent));
  write_quantile(json, "cbr_latency_p50_ms", lat50);
  write_quantile(json, "cbr_latency_p99_ms", lat99);
  write_quantile(json, "cbr_hops_p50", hop50);
  write_quantile(json, "cbr_hops_p99", hop99);
  write_quantile(json, "handoff_p50_ms", ho50);
  write_quantile(json, "handoff_p99_ms", ho99);
  write_quantile(json, "recovery_p50_s", rec50);
  write_quantile(json, "recovery_p90_s", rec90);
  json.key("registration_abandon_ratio");
  json.value(ratio(abandoned, regs + abandoned));
  json.key("registrations_completed");
  json.value(regs);
  json.key("registrations_abandoned");
  json.value(abandoned);
  json.end_object();

  json.key("drops");
  json.begin_object();
  json.key("cbr_sent");
  json.value(sent);
  json.key("cbr_delivered");
  json.value(delivered);
  for (const char* key :
       {"node.drop_ttl", "node.drop_no_route", "node.drop_arp",
        "agent.drop_disconnected", "agent.discarded_for_recovery",
        "agent.retunnel_ttl_drops", "net.drop_link_down",
        "net.drop_link_loss"}) {
    json.key(key);
    json.value(d(key));
  }
  json.key("cbr_unaccounted");
  json.value(sent - delivered - node_drops - agent_drops - link_drops);
  json.key("scale_run_packets_delivered");
  json.value(window.packets_delivered);
  json.key("mobiles_unicast_received");
  json.value(d("mobiles.unicast_received"));
  json.end_object();

  json.key("checks");
  json.begin_object();
  json.key("flows_over_delivered");
  json.value(flows_over);
  json.key("misdelivered");
  json.value(probe.misdelivered());
  json.key("cbr_sent_positive");
  json.value(sent > 0 && delivered > 0);
  json.end_object();

  // Counts over the window (deltas), except where noted.
  json.key("counts");
  json.begin_object();
  auto count = [&](const std::string& name, double v) {
    json.key(name);
    json.value(v);
  };
  count("sim.events", static_cast<double>(window.events_executed));
  count("sim.queue_depth", static_cast<double>(queue_depth));
  count("net.frames", d("net.frames"));
  count("net.bytes", d("net.bytes"));
  count("node.forwarded", d("node.forwarded"));
  count("node.drop_ttl", d("node.drop_ttl"));
  count("node.drop_no_route", d("node.drop_no_route"));
  count("node.drop_arp", d("node.drop_arp"));
  count("routing.table_prefixes", table_prefixes);  // at the end of the run
  count("dv.triggered_updates", d("dv.triggered_updates"));
  count("dv.periodic_rounds", d("dv.periodic_rounds"));
  count("dv.route_changes", d("dv.route_changes"));
  count("dv.convergence_samples", static_cast<double>(convergence.size()));
  count("dv.convergence_p50_s", quantile(convergence, 500).value);
  count("dv.convergence_max_s", convergence.empty() ? 0.0 : convergence.back());
  count("core.registrations", regs);
  count("core.tunnels_built",
        d("ha.tunnels_built") + d("fa.tunnels_built") + d("ca.tunnels_built"));
  count("core.ca_tunnels_built", d("ca.tunnels_built"));
  count("core.retunnels", d("ha.retunnels") + d("fa.retunnels") +
                              d("ca.retunnels"));
  count("core.updates_sent", d("ha.updates_sent") + d("fa.updates_sent") +
                                 d("ca.updates_sent"));
  count("core.loops_detected", d("ha.loops_detected") +
                                   d("fa.loops_detected") +
                                   d("ca.loops_detected"));
  count("store.wal_appends", d("store.wal_appends"));
  count("store.wal_syncs", d("store.wal_syncs"));
  count("store.wal_batches", d("store.wal_batches"));
  count("store.compaction_steps", d("store.compaction_steps"));
  count("store.lost_bindings", lost_bindings);  // whole run
  count("store.ha_crashes", static_cast<double>(ha_recovery.size()));
  count("store.ha_recovery_s", quantile(ha_recovery, 500).value);
  count("faults.node_crashes", d("faults.node_crashes"));
  count("faults.link_failures", d("faults.link_failures"));
  json.end_object();

  json.key("layers");
  json.begin_object();
  for (const auto& [name, v] : layers) {
    json.key(name);
    json.value(v);
  }
  json.end_object();
  json.end_object();

  std::cout << text.str() << "\n";
  std::cout.flush();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_rep: " << e.what() << "\n";
    return 2;
  }
}
