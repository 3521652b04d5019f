// The paper's evaluation in one binary: every figure, table and ablation of
// Section 6 (plus the Section 5 ablations, the baseline comparison and the
// production-traffic scenario suite) is one {name, run} entry below.
//
//   experiments                  # every entry, in the order listed
//   experiments fig5a_failure_ratio table2_connum
//
// Each entry prints its ASCII tables to stdout and writes
// BENCH_<name>.json into the working directory.  The scale comes from
// HP2P_PEERS / HP2P_ITEMS / HP2P_LOOKUPS / HP2P_SEED / HP2P_SEEDS.  The exit
// status is 0, 1 when a report could not be written, or 2 when the scenario
// gate failed (the largest over the entries run); an unknown name prints
// the usage to stderr and exits 1.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/model.hpp"
#include "bench_util.hpp"
#include "exp/baselines.hpp"
#include "exp/metrics_collect.hpp"
#include "stats/histogram.hpp"
#include "stats/table.hpp"
#include "stats/trace.hpp"
#include "workload/scenario_runner.hpp"

namespace hp2p::bench {
namespace {

/// Runs `measure(r)` for the HP2P_SEEDS replicas r = 0, 1, ... on
/// exp::parallel_map's thread pool; the results come back in replica order.
template <typename Fn>
auto run_replicas(const Scale& s, Fn measure) {
  std::vector<std::size_t> replicas(s.replicas);
  std::iota(replicas.begin(), replicas.end(), std::size_t{0});
  return exp::parallel_map(replicas, measure);
}

/// Mean of a metric across replicas of the same configuration, summed in
/// replica order.
template <typename Fn>
double replicate_mean(const Scale& s, Fn measure) {
  double total = 0;
  for (const double v : run_replicas(s, measure)) total += v;
  return total / static_cast<double>(s.replicas);
}

// Ablation: Gnutella-style flooding s-networks vs BitTorrent-style trackers
// (Section 5.5).
//
// Tracker mode answers each lookup with the exact holder: no flooding and
// no TTL-induced misses, at the price of tracker state on every t-peer.
int ablation_bittorrent(Scale scale, Reporter& reporter) {
  print_header(
      "Ablation -- Gnutella-style flooding vs BitTorrent-style trackers",
      "tracker mode: near-zero failure, O(1) contacts per lookup, no "
      "flooding traffic",
      scale);

  stats::Table table{{"style", "latency_ms", "failure",
                      "contacted_per_lookup", "query_msgs"}};
  struct Variant {
    const char* name;
    const char* key;  // metric-tree prefix for this variant's run
    hybrid::SNetworkStyle style;
    unsigned ttl;
  };
  const Variant variants[] = {
      {"flooding tree, TTL=2", "tree_ttl2", hybrid::SNetworkStyle::kTree, 2},
      {"flooding tree, TTL=6", "tree_ttl6", hybrid::SNetworkStyle::kTree, 6},
      {"tracker (BitTorrent)", "tracker",
       hybrid::SNetworkStyle::kBitTorrent, 2},
  };
  for (const auto& v : variants) {
    auto cfg = base_config(scale, 0);
    cfg.hybrid.ps = 0.9;
    cfg.hybrid.ttl = v.ttl;
    cfg.hybrid.style = v.style;
    const auto r = exp::run_hybrid_experiment(cfg);
    table.row()
        .cell(v.name)
        .cell(r.lookup_latency_ms.mean(), 1)
        .cell(r.lookups.failure_ratio(), 4)
        .cell(static_cast<double>(r.connum()) /
                  static_cast<double>(r.lookups.issued),
              2)
        .cell(r.network.class_messages(proto::TrafficClass::kQuery));
    exp::collect_run_result(reporter.metrics(), v.key, r);
  }
  reporter.print_table("ablation_bittorrent", table);
  return 0;
}

// Ablation: bypass links (Section 5.4) on vs off.
//
// Bypass links form on cross-s-network stores/lookups and shortcut later
// operations past the t-network.  Measured here: peers contacted per lookup
// and t-network query traffic, on a workload with repeated cross-network
// fetches (each key looked up twice so the second pass can use the links
// the first pass installed).
int ablation_bypass_links(Scale scale, Reporter& reporter) {
  // Repeating lookups is the whole point here.
  scale.lookups = std::max<std::size_t>(scale.lookups, 2 * scale.items);
  reporter.set_scale(scale);
  print_header(
      "Ablation -- bypass links on/off",
      "bypass links divert repeat cross-network traffic off the t-network "
      "(Section 5.4)",
      scale);

  stats::Table table{{"bypass", "latency_ms", "contacted_per_lookup",
                      "query_msgs", "bypass_uses", "failure"}};
  for (bool enabled : {false, true}) {
    auto cfg = base_config(scale, 0);
    cfg.hybrid.ps = 0.8;
    cfg.hybrid.ttl = 6;
    cfg.hybrid.bypass_links = enabled;
    // Bypass links are per-peer caches: they pay off when the same peers
    // keep fetching the same popular content from the same remote
    // s-networks, so use a small fixed origin pool and strongly Zipf-skewed
    // targets (each peer holds at most delta bypass links, so only the
    // hottest few segments can be cached).
    cfg.num_items = std::min<std::size_t>(cfg.num_items, 500);
    cfg.lookup_origin_pool = 8;
    cfg.zipf_exponent = 1.3;
    // Short lifetime: cold links expire and free budget for the hot
    // segments (use refreshes a link's timer, so hot links persist).
    cfg.hybrid.bypass_lifetime = sim::SimTime::seconds(5);
    // Pace the lookups: a link installs only when its first fetch
    // completes, so back-to-back repeats of a hot item would all miss it.
    cfg.op_spacing = sim::SimTime::millis(50);
    const auto r = exp::run_hybrid_experiment(cfg);
    table.row()
        .cell(enabled ? "on" : "off")
        .cell(r.lookup_latency_ms.mean(), 1)
        .cell(static_cast<double>(r.connum()) /
                  static_cast<double>(r.lookups.issued),
              2)
        .cell(r.network.class_messages(proto::TrafficClass::kQuery))
        .cell(r.bypass_uses)
        .cell(r.lookups.failure_ratio(), 4);
    exp::collect_run_result(reporter.metrics(),
                            enabled ? "bypass_on" : "bypass_off", r);
  }
  reporter.print_table("ablation_bypass_links", table);
  return 0;
}

// Ablation: the Section 7 caching scheme (the paper's stated future work).
//
// When an item is extremely popular, the hosting peer answers every request.
// With caching on, every successful requester becomes a surrogate: origins
// answer repeats from their own cache and ring forwarders intercept queries
// they can serve.  Metrics: the hosting hot-spot's load (max answers served
// by one peer), mean latency, and total contacts.
int ablation_caching(Scale scale, Reporter& reporter) {
  scale.items = std::min<std::size_t>(scale.items, 200);  // hot catalogue
  reporter.set_scale(scale);
  print_header(
      "Ablation -- Section 7 caching scheme on/off (Zipf-1.2 workload)",
      "caching spreads a popular item's load across surrogate peers: the "
      "hottest peer answers far fewer requests",
      scale);

  stats::Table table{{"caching", "max_peer_load", "cache_hits", "latency_ms",
                      "contacted_per_lookup"}};
  for (bool enabled : {false, true}) {
    auto cfg = base_config(scale, 0);
    cfg.hybrid.ps = 0.7;
    cfg.hybrid.ttl = 6;
    cfg.hybrid.enable_caching = enabled;
    cfg.hybrid.cache_capacity = 8;
    cfg.zipf_exponent = 1.2;
    // Pace the repeats so caches are warm when they arrive.
    cfg.op_spacing = sim::SimTime::millis(50);
    const auto r = exp::run_hybrid_experiment(cfg);
    table.row()
        .cell(enabled ? "on" : "off")
        .cell(r.max_answers_served)
        .cell(r.cache_hits)
        .cell(r.lookup_latency_ms.mean(), 1)
        .cell(static_cast<double>(r.connum()) /
                  static_cast<double>(r.lookups.issued),
              2);
    exp::collect_run_result(reporter.metrics(),
                            enabled ? "caching_on" : "caching_off", r);
  }
  reporter.print_table("ablation_caching", table);
  return 0;
}

// Ablation: t-network routing mode -- plain ring forwarding vs finger
// tables (Section 4.1 analyzes both: ~N_t/2 hops vs ~log N_t hops).
//
// The paper's Table 2 magnitudes match ring forwarding; finger routing
// slashes connum and latency for small p_s, where the ring walk dominates
// every cross-network lookup.
int ablation_finger_routing(Scale scale, Reporter& reporter) {
  print_header(
      "Ablation -- t-network routing: ring vs finger tables",
      "ring walk ~ N_t/2 hops; fingers ~ log2 N_t; gap collapses as p_s "
      "shrinks the ring",
      scale);

  stats::Table table{{"p_s", "ring_hops", "finger_hops", "ring_connum",
                      "finger_connum"}};
  for (double ps : {0.0, 0.3, 0.6, 0.9}) {
    auto run = [&](hybrid::TRouting routing) {
      auto cfg = base_config(scale, 0);
      cfg.hybrid.ps = ps;
      cfg.hybrid.ttl = 6;
      cfg.hybrid.t_routing = routing;
      return exp::run_hybrid_experiment(cfg);
    };
    const auto ring = run(hybrid::TRouting::kRing);
    const auto finger = run(hybrid::TRouting::kFinger);
    table.row()
        .cell(ps, 1)
        .cell(ring.lookup_hops.mean(), 1)
        .cell(finger.lookup_hops.mean(), 1)
        .cell(ring.connum())
        .cell(finger.connum());
    const std::string base = "ps_" + metric_num(ps);
    reporter.metrics().set(base + ".ring_hops", ring.lookup_hops.mean());
    reporter.metrics().set(base + ".finger_hops", finger.lookup_hops.mean());
    reporter.metrics().set(base + ".ring_connum", ring.connum());
    reporter.metrics().set(base + ".finger_connum", finger.connum());
  }
  reporter.print_table("ablation_finger_routing", table);
  return 0;
}

// Ablation: interest-based s-networks (Section 5.3) vs random assignment.
//
// With interest-based grouping and an interest-local workload, most stores
// and lookups never leave the issuing peer's s-network: latency, contacted
// peers and t-network traffic all drop.  Random assignment on the same
// workload cannot exploit the locality.
int ablation_interest(Scale scale, Reporter& reporter) {
  print_header(
      "Ablation -- interest-based s-networks vs random assignment",
      "interest grouping keeps lookups local: fewer hops, fewer peers "
      "disturbed, less ring traffic",
      scale);

  stats::Table table{{"assignment", "locality", "latency_ms",
                      "contacted_per_lookup", "ring+flood_query_msgs"}};
  struct Variant {
    const char* name;
    const char* key;  // metric-tree prefix for this variant's run
    bool interest_based;
    double locality;
  };
  const Variant variants[] = {
      {"random, uniform ops", "random_uniform", false, 0.0},
      {"random, local ops", "random_local", false, 0.9},
      {"interest, local ops", "interest_local", true, 0.9},
  };
  for (const auto& v : variants) {
    auto cfg = base_config(scale, 0);
    cfg.hybrid.ps = 0.85;
    cfg.hybrid.ttl = 10;
    cfg.hybrid.interest_based = v.interest_based;
    cfg.hybrid.num_interests = 8;
    cfg.interest_locality = v.locality;
    // Stable segment boundaries so each interest's anchor stays owned by
    // the s-network its community joined (see DESIGN.md).
    cfg.tpeers_first = true;
    const auto r = exp::run_hybrid_experiment(cfg);
    table.row()
        .cell(v.name)
        .cell(v.locality, 1)
        .cell(r.lookup_latency_ms.mean(), 1)
        .cell(static_cast<double>(r.connum()) /
                  static_cast<double>(r.lookups.issued),
              2)
        .cell(r.network.class_messages(proto::TrafficClass::kQuery));
    exp::collect_run_result(reporter.metrics(), v.key, r);
  }
  reporter.print_table("ablation_interest", table);
  return 0;
}

// Ablation: physical link stress (Section 5.2's motivating metric) with and
// without topology-aware s-network construction.
//
// Link stress = copies of overlay messages crossing a physical link.  When
// s-network neighbours are physically close, intra-tree traffic stops
// criss-crossing the transit core, trimming both the mean and the hottest
// link.
int ablation_link_stress(Scale scale, Reporter& reporter) {
  print_header(
      "Ablation -- physical link stress, topology awareness on/off",
      "clustered s-networks keep flood/cp-chain traffic off the transit "
      "core",
      scale);

  stats::Table table{{"config", "max_link_stress", "mean_link_stress",
                      "lookup_ms"}};
  for (bool aware : {false, true}) {
    auto cfg = base_config(scale, 0);
    cfg.hybrid.ps = 0.8;
    cfg.hybrid.ttl = 6;
    cfg.hybrid.t_routing = hybrid::TRouting::kFinger;
    cfg.hybrid.topology_aware = aware;
    cfg.hybrid.num_landmarks = 8;
    cfg.track_link_stress = true;
    // Maintenance (HELLO/ack) traffic is pure intra-s-network traffic --
    // exactly what clustering localizes -- so run the detectors for a
    // while before the lookups.
    cfg.failure_detection = true;
    cfg.recovery_time = sim::SimTime::seconds(60);
    const auto r = exp::run_hybrid_experiment(cfg);
    table.row()
        .cell(aware ? "topology aware (8 landmarks)" : "basic")
        .cell(r.max_link_stress)
        .cell(r.mean_link_stress, 1)
        .cell(r.lookup_latency_ms.mean(), 1);
    exp::collect_run_result(reporter.metrics(), aware ? "aware" : "basic", r);
  }
  reporter.print_table("ablation_link_stress", table);
  return 0;
}

// Ablation: s-network topology -- tree (paper default) vs star vs mesh.
//
// Section 3.2.2's argument for trees: a star gives diameter-2 lookups but a
// hopelessly unbalanced t-peer; a mesh delivers duplicate query copies; a
// degree-capped tree delivers each flooded query exactly once.  This entry
// quantifies all three on the same workload.
int ablation_snetwork_topology(Scale scale, Reporter& reporter) {
  print_header(
      "Ablation -- s-network topology: tree vs star vs mesh",
      "tree: no duplicate query copies; star: shortest floods but maximal "
      "root degree; mesh: duplicates waste bandwidth",
      scale);

  struct Variant {
    const char* name;
    const char* key;  // metric-tree prefix for this variant's run
    hybrid::SNetworkStyle style;
  };
  const Variant variants[] = {
      {"tree (paper)", "tree", hybrid::SNetworkStyle::kTree},
      {"star", "star", hybrid::SNetworkStyle::kStar},
      {"mesh", "mesh", hybrid::SNetworkStyle::kMesh},
  };

  stats::Table table{{"style", "latency_ms", "failure", "query_msgs",
                      "contacted", "dup_ratio", "max_degree"}};
  for (const auto& v : variants) {
    auto cfg = base_config(scale, 0);
    // Big s-networks (p_s = 0.9) and a short ring (finger routing) so the
    // s-network topology is what the measurement sees.
    cfg.hybrid.ps = 0.9;
    cfg.hybrid.ttl = 6;
    cfg.hybrid.t_routing = hybrid::TRouting::kFinger;
    cfg.hybrid.style = v.style;
    const auto r = exp::run_hybrid_experiment(cfg);
    const double queries = static_cast<double>(
        r.network.class_messages(proto::TrafficClass::kQuery));
    const double contacted = static_cast<double>(r.connum());
    table.row()
        .cell(v.name)
        .cell(r.lookup_latency_ms.mean(), 1)
        .cell(r.lookups.failure_ratio(), 4)
        .cell(static_cast<std::uint64_t>(queries))
        .cell(static_cast<std::uint64_t>(contacted))
        .cell(contacted > 0 ? queries / contacted : 0.0, 2)
        .cell(static_cast<std::uint64_t>(r.max_tree_degree));
    exp::collect_run_result(reporter.metrics(), v.key, r);
    reporter.metrics().set(std::string{v.key} + ".dup_ratio",
                           contacted > 0 ? queries / contacted : 0.0);
  }
  reporter.print_table("ablation_snetwork_topology", table);
  std::printf("dup_ratio = query messages per distinct peer contacted (the "
              "tree stays near 1,\nthe mesh pays for redundancy); max_degree "
              "is the load the busiest peer carries\n(the star's root serves "
              "its whole s-network).\n");
  return 0;
}

// Head-to-head: pure Chord (structured baseline), pure Gnutella
// (unstructured baseline), and the hybrid system at two p_s values, all on
// the same workload -- the framing experiment of the whole paper
// (Section 1: "neither ... can provide efficient, flexible, and robust
// service alone").
int baseline_comparison(Scale scale, Reporter& reporter) {
  print_header(
      "Baseline comparison -- Chord vs Gnutella vs hybrid",
      "structured: zero failures, long walks & joins; unstructured: instant "
      "joins, TTL misses; hybrid: tunable middle",
      scale);

  stats::Table table{{"system", "join_ms", "lookup_ms", "failure",
                      "connum/lookup", "messages"}};

  auto add_row = [&](const char* name, const char* key,
                     const exp::RunResult& r) {
    table.row()
        .cell(name)
        .cell(r.join_latency_ms.mean(), 1)
        .cell(r.lookup_latency_ms.mean(), 1)
        .cell(r.lookups.failure_ratio(), 4)
        .cell(static_cast<double>(r.connum()) /
                  static_cast<double>(std::max<std::uint64_t>(
                      r.lookups.issued, 1)),
              1)
        .cell(r.network.messages_sent);
    exp::collect_run_result(reporter.metrics(), key, r);
  };

  {
    exp::ChordRunConfig cfg;
    cfg.seed = scale.seed;
    cfg.num_peers = scale.peers;
    cfg.num_items = scale.items;
    cfg.num_lookups = scale.lookups;
    cfg.chord.routing = chord::RoutingMode::kRing;
    add_row("chord (ring routing)", "chord_ring",
            exp::run_chord_experiment(cfg));
    cfg.chord.routing = chord::RoutingMode::kFinger;
    cfg.maintenance = true;
    cfg.chord.stabilize_interval = sim::SimTime::millis(500);
    add_row("chord (finger routing)", "chord_finger",
            exp::run_chord_experiment(cfg));
  }
  {
    exp::GnutellaRunConfig cfg;
    cfg.seed = scale.seed;
    cfg.num_peers = scale.peers;
    cfg.num_items = scale.items;
    cfg.num_lookups = scale.lookups;
    cfg.gnutella.ttl = 5;
    cfg.gnutella.neighbors_per_join = 3;
    add_row("gnutella (flood TTL=5)", "gnutella",
            exp::run_gnutella_experiment(cfg));
  }
  for (double ps : {0.5, 0.7}) {
    auto cfg = base_config(scale, 0);
    cfg.hybrid.ps = ps;
    cfg.hybrid.ttl = 6;
    const auto r = exp::run_hybrid_experiment(cfg);
    const std::string name = "hybrid (p_s=" + stats::format_fixed(ps, 1) + ")";
    const std::string key = "hybrid_ps_" + metric_num(ps);
    add_row(name.c_str(), key.c_str(), r);
  }
  reporter.print_table("baseline_comparison", table);
  std::printf("\nchord joins pay a full ring walk and chord lookups contact "
              "~N/2 peers (ring mode);\ngnutella joins are constant-time but "
              "flooding misses rare items; the hybrid\ninterpolates, and "
              "p_s picks the point on the trade-off curve.\n");
  return 0;
}

// Fig. 3a/3b: the Section 4 analytical curves -- average join latency and
// average lookup latency (in overlay hops) as p_s sweeps 0..1 for several
// degree constraints -- plus a simulated join-latency series to check that
// the simulator reproduces the model's shape.
int fig3_analysis(Scale scale, Reporter& reporter) {
  print_header(
      "Fig. 3a -- average join latency (hops) vs p_s, per delta",
      "hybrid beats both pure systems; minimum near p_s ~ 0.7-0.8; larger "
      "delta -> shorter joins",
      scale);

  const double deltas[] = {2, 4, 8, 16};
  {
    stats::Table table{{"p_s", "delta=2", "delta=4", "delta=8", "delta=16"}};
    for (double ps = 0.0; ps <= 0.981; ps += 0.05) {
      table.row().cell(ps, 2);
      for (double delta : deltas) {
        analysis::ModelParams p;
        p.n = scale.peers;
        p.ps = ps;
        p.delta = delta;
        table.cell(analysis::average_join_hops(p), 3);
      }
    }
    reporter.print_table("fig3a_model_join_hops", table);
    for (double delta : deltas) {
      const double opt = analysis::optimal_ps_for_join(scale.peers, delta);
      std::printf("optimal p_s for join (delta=%g): %.2f\n", delta, opt);
      reporter.metrics().set(
          "optimal_join_ps.delta_" + std::to_string(static_cast<int>(delta)),
          opt);
    }
  }

  print_header(
      "Fig. 3b -- average lookup latency (hops) vs p_s, per delta",
      "flat & highest while p_s < 0.5 (t-network dominates), then drops; "
      "larger delta -> shorter lookups",
      scale);
  {
    stats::Table table{{"p_s", "delta=2", "delta=4", "delta=8", "delta=16",
                        "unconstrained"}};
    for (double ps = 0.0; ps <= 0.981; ps += 0.05) {
      table.row().cell(ps, 2);
      for (double delta : deltas) {
        analysis::ModelParams p;
        p.n = scale.peers;
        p.ps = ps;
        p.delta = delta;
        p.ttl = 4;
        table.cell(analysis::lookup_hops_constrained(p), 3);
      }
      analysis::ModelParams p;
      p.n = scale.peers;
      p.ps = ps;
      table.cell(analysis::lookup_hops_unconstrained(p), 3);
    }
    reporter.print_table("fig3b_model_lookup_hops", table);
  }

  print_header(
      "Fig. 3a check -- simulated average join hops vs Eq. (1) shape",
      "simulation matches the theoretic analysis (Section 6)", scale);
  {
    stats::Table table{{"p_s", "simulated_join_hops", "model_join_hops"}};
    for (double ps : {0.0, 0.2, 0.4, 0.6, 0.8, 0.9}) {
      const double sim_hops = replicate_mean(scale, [&](std::size_t r) {
        auto cfg = base_config(scale, r);
        cfg.hybrid.ps = ps;
        cfg.num_items = 0;
        cfg.num_lookups = 0;
        return exp::run_hybrid_experiment(cfg).join_hops.mean();
      });
      analysis::ModelParams p;
      p.n = scale.peers;
      p.ps = ps;
      p.delta = 3;
      // The simulated t-network routes join requests along the ring
      // (Table 2 mode), so compare against the ring-walk variant of
      // Eq. (1): (1-ps) * (1-ps)N/2 linear term replaced by hops measured.
      table.row().cell(ps, 2).cell(sim_hops, 2).cell(
          analysis::average_join_hops(p), 2);
      reporter.metrics().set("sim_join_hops.ps_" + metric_num(ps), sim_hops);
    }
    reporter.print_table("fig3a_sim_check_join_hops", table);
    std::printf("note: simulated joins use ring forwarding, the model's "
                "finger-accelerated term\nis a lower bound; shapes (interior "
                "minimum, rising tail) should agree.\n");
  }

  // HP2P_TRACE=1: one fully traced replica at the paper's operating point.
  // Produces TRACE_fig3_analysis.json (open in chrome://tracing or
  // https://ui.perfetto.dev), the per-lookup critical-path percentiles
  // under metrics.trace.*, and a sampled-gauge timeseries block.
  if (trace_from_env()) {
    print_header(
        "Traced replica -- causal spans, critical path, gauge samples",
        "observability pass; see EXPERIMENTS.md 'Tracing a lookup'", scale);
    stats::SpanRecorder recorder;
    auto cfg = base_config(scale, 0);
    cfg.hybrid.ps = 0.8;
    cfg.tracer = &recorder;
    cfg.sample_period = sim::SimTime::millis(250);
    const auto result = exp::run_hybrid_experiment(cfg);
    recorder.collect_critical_path(reporter.metrics(), "trace");
    // Full result export (incl. traced.audit.* when HP2P_AUDIT=1 is also
    // set -- the audit-smoke ctest fixture validates those).
    exp::collect_run_result(reporter.metrics(), "traced", result);
    if (result.timeseries) reporter.add_timeseries(*result.timeseries);
    const auto breakdowns = recorder.lookup_breakdowns();
    std::printf("traced %zu lookups across %zu spans (%zu dropped)\n",
                breakdowns.size(), recorder.spans().size(),
                recorder.dropped_spans());
    if (recorder.write_catapult("TRACE_fig3_analysis.json")) {
      std::printf("trace: TRACE_fig3_analysis.json\n");
    }
  }

  // HP2P_PROFILE=1: one profiled replica at the same operating point.
  // Adds the schema-v4 `profile` section (per-component CPU/event/alloc
  // attribution, per-message-class time and bytes) and writes
  // PROFILE_fig3_analysis.collapsed for flamegraph.pl / speedscope.
  if (profile_from_env()) {
    print_header(
        "Profiled replica -- per-component CPU/alloc attribution",
        "observability pass; see README 'Profiling a run'", scale);
    stats::Profiler profiler;
    auto cfg = base_config(scale, 0);
    cfg.hybrid.ps = 0.8;
    cfg.profiler = &profiler;
    cfg.sample_period = sim::SimTime::millis(250);
    const auto result = exp::run_hybrid_experiment(cfg);
    exp::collect_run_result(reporter.metrics(), "profiled", result);
    if (result.timeseries) reporter.add_timeseries(*result.timeseries);
    report_profile(reporter, profiler);
  }
  return 0;
}

// Fig. 4a-f: probability density of data items per peer under the two
// data-placement schemes (Section 3.4), for p_s in {0, 0.4, 0.9}.
//
// Scheme 1 ("t-peer stores") concentrates cross-segment items on t-peers:
// as p_s grows, most peers end up empty and a few t-peers hoard hundreds of
// items.  Scheme 2 ("random spread") hands items down the s-network and
// keeps the distribution tight.
void fig4_scheme(const Scale& scale, hybrid::PlacementScheme scheme,
                 const char* label, Reporter& reporter,
                 const char* metric_prefix) {
  stats::Table table{{"p_s", "empty_frac", "p50", "p90", "max",
                      "mean_items"}};
  for (double ps : {0.0, 0.4, 0.9}) {
    stats::CountDistribution dist;
    const auto per_replica = run_replicas(scale, [&](std::size_t r) {
      auto cfg = base_config(scale, r);
      cfg.hybrid.ps = ps;
      cfg.hybrid.placement = scheme;
      cfg.num_lookups = 0;
      return exp::run_hybrid_experiment(cfg).items_per_peer;
    });
    for (const auto& items_per_peer : per_replica) {
      for (const auto n : items_per_peer) dist.add(n);
    }
    // Percentiles from the exact integer distribution.
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    for (std::uint64_t v = 0; v <= dist.max_value(); ++v) {
      if (dist.fraction_below(v + 1) >= 0.5 && p50 == 0) p50 = v;
      if (dist.fraction_below(v + 1) >= 0.9 && p90 == 0) p90 = v;
    }
    const double mean =
        static_cast<double>(scale.items) /
        static_cast<double>(scale.peers);
    table.row()
        .cell(ps, 1)
        .cell(dist.fraction_zero(), 3)
        .cell(p50)
        .cell(p90)
        .cell(dist.max_value())
        .cell(mean, 2);
    const std::string base =
        std::string{metric_prefix} + ".ps_" + metric_num(ps);
    reporter.metrics().set(base + ".empty_frac", dist.fraction_zero());
    reporter.metrics().set(base + ".max_items", dist.max_value());
  }
  std::printf("\n--- placement scheme: %s ---\n", label);
  reporter.print_table(metric_prefix, table);
}

void fig4_pdf(const Scale& scale, double ps, hybrid::PlacementScheme scheme,
              const char* label) {
  stats::CountDistribution dist;
  auto cfg = base_config(scale, 0);
  cfg.hybrid.ps = ps;
  cfg.hybrid.placement = scheme;
  cfg.num_lookups = 0;
  const auto result = exp::run_hybrid_experiment(cfg);
  for (const auto n : result.items_per_peer) dist.add(n);
  std::printf("\npdf, %s, p_s=%.1f (bin -> mass):\n", label, ps);
  for (const auto& bin : dist.to_pdf(10)) {
    std::printf("  [%5.0f, %5.0f): %.4f %s\n", bin.lo, bin.hi, bin.mass,
                std::string(static_cast<std::size_t>(bin.mass * 60), '#')
                    .c_str());
  }
}

int fig4_data_distribution(Scale scale, Reporter& reporter) {
  print_header(
      "Fig. 4 -- pdf of data items per peer, two placement schemes",
      "scheme 1: at p_s=0.9 ~85% of peers empty, hot t-peers hold 100s; "
      "scheme 2: empty fraction collapses (paper: 12%), load evens out",
      scale);

  fig4_scheme(scale, hybrid::PlacementScheme::kTPeerStores,
              "scheme 1 (t-peer stores)", reporter, "scheme1_tpeer_stores");
  fig4_scheme(scale, hybrid::PlacementScheme::kRandomSpread,
              "scheme 2 (random spread)", reporter, "scheme2_random_spread");

  // Full pdfs for the p_s = 0.9 panels (Fig. 4c vs 4f).
  fig4_pdf(scale, 0.9, hybrid::PlacementScheme::kTPeerStores,
           "scheme 1 (Fig. 4c)");
  fig4_pdf(scale, 0.9, hybrid::PlacementScheme::kRandomSpread,
           "scheme 2 (Fig. 4f)");
  return 0;
}

// Fig. 5a: lookup failure ratio vs p_s for TTL in {1, 2, 4}.
//
// Paper shape: ~0 failures while p_s < 0.5 (s-networks average < 1 peer),
// then an exponential-looking rise with p_s; raising the TTL pushes the
// curve down sharply (18% -> 4% at p_s = 0.9 going TTL 1 -> 4).
int fig5a_failure_ratio(Scale scale, Reporter& reporter) {
  print_header(
      "Fig. 5a -- lookup failure ratio vs p_s, per TTL",
      "zero below p_s=0.5; grows with p_s; larger TTL cuts failures "
      "dramatically",
      scale);

  const unsigned ttls[] = {1, 2, 4};
  stats::Table table{{"p_s", "TTL=1", "TTL=2", "TTL=4"}};
  for (double ps = 0.0; ps <= 0.901; ps += 0.1) {
    table.row().cell(ps, 1);
    for (unsigned ttl : ttls) {
      const double ratio = replicate_mean(scale, [&](std::size_t r) {
        auto cfg = base_config(scale, r);
        cfg.hybrid.ps = ps;
        cfg.hybrid.ttl = ttl;
        return exp::run_hybrid_experiment(cfg).lookups.failure_ratio();
      });
      table.cell(ratio, 4);
      reporter.metrics().set("failure_ratio.ps_" + metric_num(ps) + ".ttl_" +
                                 std::to_string(ttl),
                             ratio);
    }
  }
  reporter.print_table("fig5a_failure_ratio", table);
  return 0;
}

// Fig. 5b: lookup failure ratio when a fraction of peers crash (no load
// transfer) before the lookups, for several p_s values.
//
// Paper shape: failure ratio grows linearly with the crashed fraction, and
// is essentially independent of p_s (the improved placement scheme spreads
// data evenly, so each crashed peer takes a proportional bite).
int fig5b_crash(Scale scale, Reporter& reporter) {
  print_header(
      "Fig. 5b -- lookup failure ratio vs fraction of crashed peers",
      "linear in the crash fraction; level is insensitive to p_s "
      "(scheme-2 placement spreads the loss)",
      scale);

  auto crash_config = [&scale](std::size_t replica, double ps,
                               double crashed) {
    auto cfg = base_config(scale, replica);
    cfg.hybrid.ps = ps;
    cfg.hybrid.ttl = 6;
    cfg.crash_fraction = crashed;
    cfg.recovery_time = sim::SimTime::seconds(25);
    cfg.hybrid.hello_interval = sim::SimTime::millis(1000);
    cfg.hybrid.hello_timeout = sim::SimTime::millis(3000);
    return cfg;
  };

  const double ps_values[] = {0.4, 0.7, 0.9};
  stats::Table table{{"crashed", "p_s=0.4", "p_s=0.7", "p_s=0.9"}};
  for (double crashed = 0.0; crashed <= 0.501; crashed += 0.1) {
    table.row().cell(crashed, 1);
    for (double ps : ps_values) {
      const double ratio = replicate_mean(scale, [&](std::size_t r) {
        return exp::run_hybrid_experiment(crash_config(r, ps, crashed))
            .lookups.failure_ratio();
      });
      table.cell(ratio, 4);
      reporter.metrics().set("failure_ratio.crashed_" + metric_num(crashed) +
                                 ".ps_" + metric_num(ps),
                             ratio);
    }
  }
  reporter.print_table("fig5b_crash_failure_ratio", table);

  // Durability companion: the same crash storm at p_s = 0.7 with the
  // replication factor swept.  Data availability is the fraction of stored
  // ids some live peer still holds after recovery; service availability is
  // the lookup success ratio.  Expectation: both monotone in r.
  std::printf("\nData durability vs replication factor (p_s = 0.7)\n");
  stats::Table dtable{{"crashed", "avail r=1", "avail r=2", "avail r=3",
                       "service r=1", "service r=2", "service r=3"}};
  for (double crashed = 0.0; crashed <= 0.501; crashed += 0.1) {
    dtable.row().cell(crashed, 1);
    double avail[3] = {0, 0, 0};
    double service[3] = {0, 0, 0};
    for (std::size_t ri = 0; ri < 3; ++ri) {
      const unsigned r_factor = static_cast<unsigned>(ri) + 1;
      const auto per_replica = run_replicas(scale, [&](std::size_t r) {
        auto cfg = crash_config(r, 0.7, crashed);
        cfg.hybrid.replication_factor = r_factor;
        const auto res = exp::run_hybrid_experiment(cfg);
        return std::pair{res.data_availability(),
                         1.0 - res.lookups.failure_ratio()};
      });
      for (const auto& [data, lookups] : per_replica) {
        avail[ri] += data;
        service[ri] += lookups;
      }
      avail[ri] /= static_cast<double>(scale.replicas);
      service[ri] /= static_cast<double>(scale.replicas);
      const std::string suffix = "crashed_" + metric_num(crashed) + ".r_" +
                                 std::to_string(r_factor);
      reporter.metrics().set("data_availability." + suffix, avail[ri]);
      reporter.metrics().set("service_availability." + suffix, service[ri]);
    }
    for (const double a : avail) dtable.cell(a, 4);
    for (const double s : service) dtable.cell(s, 4);
  }
  reporter.print_table("fig5b_crash_durability", dtable);
  return 0;
}

// Fig. 6a: average lookup latency vs p_s, with and without link
// heterogeneity support (Section 5.1).
//
// Both series run over the same heterogeneous access links (1/3 slow, 1/3
// medium, 1/3 fast; 10x spread) with per-hop transmission delays modeled.
// "With" assigns t-peer roles to the fastest hosts and lets fast connect
// points take more children.  Paper shape: latency falls with p_s; the
// heterogeneity-aware variant sits below the basic one, most visibly for
// p_s in 0.4..0.8 (~20% at p_s = 0.7).
int fig6a_heterogeneity(Scale scale, Reporter& reporter) {
  print_header(
      "Fig. 6a -- average lookup latency vs p_s, link heterogeneity on/off",
      "latency decreases with p_s; capacity-aware roles cut ~20% around "
      "p_s=0.7",
      scale);

  stats::Table table{
      {"p_s", "basic_ms", "heterogeneity_aware_ms", "improvement"}};
  for (double ps = 0.0; ps <= 0.901; ps += 0.1) {
    auto measure = [&](bool aware) {
      return replicate_mean(scale, [&](std::size_t r) {
        auto cfg = base_config(scale, r);
        cfg.hybrid.ps = ps;
        cfg.hybrid.ttl = 6;
        cfg.model_transmission_delay = true;
        cfg.capacity_sorted_roles = aware;
        cfg.hybrid.link_usage_connect = aware;
        return exp::run_hybrid_experiment(cfg).lookup_latency_ms.mean();
      });
    };
    const double basic = measure(false);
    const double aware = measure(true);
    table.row().cell(ps, 1).cell(basic, 1).cell(aware, 1).cell(
        basic > 0 ? (basic - aware) / basic : 0.0, 3);
    const std::string base = "lookup_latency_ms.ps_" + metric_num(ps);
    reporter.metrics().set(base + ".basic", basic);
    reporter.metrics().set(base + ".aware", aware);
  }
  reporter.print_table("fig6a_lookup_latency", table);

  // The imbalance that motivates the whole Section: t-peers carry far more
  // traffic than s-peers, so fast hosts belong on the t-network.
  std::printf("\nper-role traffic (messages handled per peer, basic "
              "config):\n");
  stats::Table load{{"p_s", "t-peer_traffic", "s-peer_traffic", "ratio"}};
  for (double ps : {0.3, 0.6, 0.9}) {
    auto cfg = base_config(scale, 0);
    cfg.hybrid.ps = ps;
    cfg.hybrid.ttl = 6;
    cfg.model_transmission_delay = true;
    const auto r = exp::run_hybrid_experiment(cfg);
    load.row()
        .cell(ps, 1)
        .cell(r.mean_tpeer_traffic, 0)
        .cell(r.mean_speer_traffic, 0)
        .cell(r.mean_speer_traffic > 0
                  ? r.mean_tpeer_traffic / r.mean_speer_traffic
                  : 0.0,
              1);
    // Full metric tree for the heaviest configuration, as a load anchor.
    if (ps == 0.9) {
      exp::collect_run_result(reporter.metrics(), "run_ps_0p9", r);
    }
  }
  reporter.print_table("fig6a_per_role_traffic", load);
  return 0;
}

// Fig. 6b: average lookup latency vs p_s, basic vs topology-aware
// s-network assignment with 8 and 12 landmarks (Section 5.2).
//
// Paper shape: identical at p_s = 0 (no s-networks to cluster); the
// topology-aware curves fall faster as p_s grows; more landmarks help; the
// three curves converge again by p_s ~ 0.9 (many tiny s-networks are
// near-local anyway).
int fig6b_topology_aware(Scale scale, Reporter& reporter) {
  print_header(
      "Fig. 6b -- average lookup latency vs p_s, topology awareness",
      "aware < basic for mid p_s; more landmarks -> lower latency; curves "
      "merge near p_s=0.9",
      scale);

  stats::Table table{{"p_s", "basic_ms", "aware_8lm_ms", "aware_12lm_ms"}};
  for (double ps = 0.0; ps <= 0.901; ps += 0.1) {
    auto measure = [&](bool aware, unsigned landmarks) {
      return replicate_mean(scale, [&](std::size_t r) {
        auto cfg = base_config(scale, r);
        cfg.hybrid.ps = ps;
        cfg.hybrid.ttl = 6;
        // Finger routing on the t-network: clustering improves the
        // *intra-s-network* hops (cp chain, flood), which a ~N_t/2-hop
        // ring walk would completely drown out.
        cfg.hybrid.t_routing = hybrid::TRouting::kFinger;
        cfg.hybrid.topology_aware = aware;
        cfg.hybrid.num_landmarks = landmarks;
        return exp::run_hybrid_experiment(cfg).lookup_latency_ms.mean();
      });
    };
    const double basic = measure(false, 0);
    const double aware8 = measure(true, 8);
    const double aware12 = measure(true, 12);
    table.row().cell(ps, 1).cell(basic, 1).cell(aware8, 1).cell(aware12, 1);
    const std::string base = "lookup_latency_ms.ps_" + metric_num(ps);
    reporter.metrics().set(base + ".basic", basic);
    reporter.metrics().set(base + ".aware_8lm", aware8);
    reporter.metrics().set(base + ".aware_12lm", aware12);
  }
  reporter.print_table("fig6b_lookup_latency", table);
  return 0;
}

// Table 2: total connum (number of peers contacted by all data lookups)
// under different TTL values as p_s sweeps 0 -> 0.9.
//
// Paper shape: connum decays roughly linearly with p_s (at p_s = 0.9 it is
// ~10% of the structured baseline), and the TTL only matters once
// p_s > 0.5, where a bigger flood radius touches slightly more peers.
// The paper's absolute magnitudes (4.88M at p_s = 0) correspond to ring
// routing on the t-network, which is this entry's default mode.
int table2_connum(Scale scale, Reporter& reporter) {
  print_header(
      "Table 2 -- total connum vs p_s, per TTL",
      "linear decay in p_s; TTL-insensitive below p_s=0.5, mildly "
      "TTL-sensitive above",
      scale);

  const unsigned ttls[] = {1, 2, 4};
  stats::Table table{{"p_s", "TTL=1", "TTL=2", "TTL=4"}};
  for (double ps = 0.0; ps <= 0.901; ps += 0.1) {
    table.row().cell(ps, 1);
    for (unsigned ttl : ttls) {
      const double connum = replicate_mean(scale, [&](std::size_t r) {
        auto cfg = base_config(scale, r);
        cfg.hybrid.ps = ps;
        cfg.hybrid.ttl = ttl;
        return static_cast<double>(exp::run_hybrid_experiment(cfg).connum());
      });
      table.cell(static_cast<std::uint64_t>(connum));
      reporter.metrics().set("connum.ps_" + metric_num(ps) + ".ttl_" +
                                 std::to_string(ttl),
                             connum);
    }
  }
  reporter.print_table("table2_connum", table);
  table.print_csv(std::cout);
  return 0;
}

void export_scenario_metrics(Reporter& reporter, const std::string& prefix,
                             const workload::ScenarioReport& r) {
  auto& m = reporter.metrics();
  m.set(prefix + ".availability", stats::JsonValue{r.availability});
  m.set(prefix + ".mean_latency_ms", stats::JsonValue{r.mean_latency_ms});
  m.set(prefix + ".max_peer_load", stats::JsonValue{r.max_peer_load});
  m.set(prefix + ".load_skew", stats::JsonValue{r.load_skew});
  m.set(prefix + ".cache_hits", stats::JsonValue{r.cache_hits});
  m.set(prefix + ".lookups_issued",
        stats::JsonValue{std::uint64_t{r.lookups_issued}});
  m.set(prefix + ".must_failed",
        stats::JsonValue{std::uint64_t{r.must_failed}});
  m.set(prefix + ".wave_must_failed",
        stats::JsonValue{std::uint64_t{r.wave_must_failed}});
  m.set(prefix + ".value_mismatches",
        stats::JsonValue{std::uint64_t{r.value_mismatches}});
  m.set(prefix + ".crashes", stats::JsonValue{std::uint64_t{r.crashes}});
  m.set(prefix + ".violations",
        stats::JsonValue{static_cast<std::uint64_t>(r.violations.size())});
}

// Production-traffic scenario suite: the four workload::Workload scenarios
// (diurnal curve, rotating hot-key storm, interest-targeted flash crowd,
// hash-verified content swarm) each replayed against a live hybrid system
// under its preset chaos schedule, with the MUST/MAY oracle and the overlay
// auditor judging every lookup.
//
// The hot-key storm runs twice -- Section 7 caching off, then on -- so the
// report carries the max-peer-load ablation under key churn (the sequel to
// ablation_caching's static-hot-key 520 -> 38 result).
//
// The entry is a gate: any oracle/audit violation in any scenario makes it
// return exit status 2.  The per-scenario verdicts land in the schema-v5
// `scenarios` array of BENCH_scenarios.json.
int scenarios(Scale scale, Reporter& reporter) {
  // Scenario windows simulate minutes of traffic per run; 240 peers keeps
  // the five-run suite laptop-fast while staying well above the preset
  // populations.  Larger HP2P_PEERS values are clamped (and said so).
  const auto peers = std::min<std::uint32_t>(scale.peers, 240);
  if (peers < scale.peers) {
    std::printf("note: scenario suite clamps HP2P_PEERS=%u to %u\n",
                scale.peers, peers);
    scale.peers = peers;
    reporter.set_scale(scale);
  }
  print_header(
      "Scenario suite -- production traffic under chaos schedules",
      "the hybrid overlay holds availability through diurnal load, hot-key "
      "storms, flash crowds, and tracker-failover swarms with zero "
      "oracle-MUST failures",
      scale);

  struct Run {
    const char* label;
    workload::ScenarioConfig cfg;
  };
  std::vector<Run> runs;
  runs.push_back({"diurnal", workload::diurnal_scenario(scale.seed)});
  runs.push_back(
      {"hot_key_nocache",
       workload::hot_key_storm_scenario(scale.seed, /*caching=*/false)});
  runs.push_back(
      {"hot_key_cached",
       workload::hot_key_storm_scenario(scale.seed, /*caching=*/true)});
  runs.push_back({"flash_crowd", workload::flash_crowd_scenario(scale.seed)});
  runs.push_back({"swarm", workload::swarm_scenario(scale.seed)});

  stats::Table table{{"scenario", "lookups", "availability", "latency_ms",
                      "max_load", "load_skew", "crashes", "must_failed",
                      "violations"}};
  bool clean = true;
  std::uint64_t hot_load_off = 0;
  std::uint64_t hot_load_on = 0;
  std::uint64_t hot_hits_on = 0;
  std::vector<workload::ScenarioReport> reports;
  for (Run& run : runs) {
    run.cfg.num_peers = peers;
    run.cfg.hosts = std::max(run.cfg.hosts, peers * 2);
    auto r = workload::run_scenario(run.cfg);
    r.scenario = run.label;  // disambiguates the two hot-key runs in the JSON
    table.row()
        .cell(std::string{run.label})
        .cell(std::uint64_t{r.lookups_issued})
        .cell(r.availability, 4)
        .cell(r.mean_latency_ms, 1)
        .cell(r.max_peer_load)
        .cell(r.load_skew, 2)
        .cell(std::uint64_t{r.crashes})
        .cell(std::uint64_t{r.must_failed} + r.wave_must_failed)
        .cell(static_cast<std::uint64_t>(r.violations.size()));
    export_scenario_metrics(reporter, run.label, r);
    reporter.add_scenario(r.to_json());
    clean = clean && r.clean();
    if (std::string{run.label} == "hot_key_nocache") {
      hot_load_off = r.max_peer_load;
    }
    if (std::string{run.label} == "hot_key_cached") {
      hot_load_on = r.max_peer_load;
      hot_hits_on = r.cache_hits;
    }
    for (const auto& v : r.violations) {
      std::printf("violation[%s] %s: %s (a=%llu b=%llu)\n", run.label,
                  v.kind, v.detail.c_str(),
                  static_cast<unsigned long long>(v.a),
                  static_cast<unsigned long long>(v.b));
    }
    reports.push_back(r);
  }
  reporter.print_table("scenarios", table);

  // Paper-style claim lines, one per scenario (recorded verbatim in
  // bench_paper_scale.txt by the paper-scale pass).
  const auto& diurnal = reports[0];
  const auto& crowd = reports[3];
  const auto& swarm = reports[4];
  std::printf("claim[diurnal]: availability %.4f, mean latency %.0f ms, "
              "load skew %.2f through an s-peer crash storm + loss burst "
              "(%u MUST-failures)\n",
              diurnal.availability, diurnal.mean_latency_ms,
              diurnal.load_skew,
              diurnal.must_failed + diurnal.wave_must_failed);
  std::printf("claim[hot_key_storm]: under rotating-hot-key churn the "
              "Section 7 cache bounds the hottest peer to %llu answers vs "
              "%llu uncached (%llu cache hits)\n",
              static_cast<unsigned long long>(hot_load_on),
              static_cast<unsigned long long>(hot_load_off),
              static_cast<unsigned long long>(hot_hits_on));
  std::printf("claim[flash_crowd]: a %u-peer interest-targeted join burst "
              "into one segment is absorbed at availability %.4f "
              "(%u MUST-failures)\n",
              crowd.joins, crowd.availability,
              crowd.must_failed + crowd.wave_must_failed);
  std::printf("claim[content_swarm]: swarm completed %u of %u hash-verified "
              "piece downloads through a tracker crash storm (%u crashes, "
              "%u integrity mismatches, %u MUST-failures)\n",
              swarm.lookups_succeeded, swarm.lookups_issued, swarm.crashes,
              swarm.value_mismatches,
              swarm.must_failed + swarm.wave_must_failed);
  return clean ? 0 : 2;
}

/// One experiment: prints its tables and fills the report; returns 0, or 2
/// when a gate the experiment checks failed.
struct Experiment {
  const char* name;  // also names the report, BENCH_<name>.json
  int (*run)(Scale scale, Reporter& reporter);
};

/// Every experiment, in the order a plain `experiments` runs them.
constexpr Experiment kExperiments[] = {
    {"ablation_bittorrent", ablation_bittorrent},
    {"ablation_bypass_links", ablation_bypass_links},
    {"ablation_caching", ablation_caching},
    {"ablation_finger_routing", ablation_finger_routing},
    {"ablation_interest", ablation_interest},
    {"ablation_link_stress", ablation_link_stress},
    {"ablation_snetwork_topology", ablation_snetwork_topology},
    {"baseline_comparison", baseline_comparison},
    {"fig3_analysis", fig3_analysis},
    {"fig4_data_distribution", fig4_data_distribution},
    {"fig5a_failure_ratio", fig5a_failure_ratio},
    {"fig5b_crash", fig5b_crash},
    {"fig6a_heterogeneity", fig6a_heterogeneity},
    {"fig6b_topology_aware", fig6b_topology_aware},
    {"table2_connum", table2_connum},
    {"scenarios", scenarios},
};

int usage() {
  std::fprintf(stderr,
               "usage: experiments [<name>...]\n"
               "runs the named experiments, or all of them in this order:\n");
  for (const Experiment& e : kExperiments) {
    std::fprintf(stderr, "  %s\n", e.name);
  }
  return 1;
}

}  // namespace
}  // namespace hp2p::bench

int main(int argc, char** argv) {
  using namespace hp2p::bench;
  std::vector<const Experiment*> chosen;
  for (int i = 1; i < argc; ++i) {
    const auto* e = std::find_if(
        std::begin(kExperiments), std::end(kExperiments),
        [&](const Experiment& x) {
          return std::string_view{x.name} == argv[i];
        });
    if (e == std::end(kExperiments)) return usage();
    chosen.push_back(e);
  }
  if (argc == 1) {
    for (const Experiment& e : kExperiments) chosen.push_back(&e);
  }

  const Scale scale = scale_from_env();
  int status = 0;
  for (const Experiment* e : chosen) {
    Reporter reporter{e->name, scale};
    const int run_status = e->run(scale, reporter);
    status = std::max(status, reporter.write() ? run_status : 1);
  }
  return status;
}
