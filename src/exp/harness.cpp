#include "exp/harness.hpp"

#include <algorithm>
#include <iostream>
#include <optional>

#include "audit/overlay_auditor.hpp"
#include "chaos/world.hpp"
#include "common/alloc_stats.hpp"
#include "common/env.hpp"
#include "common/proc_stats.hpp"
#include "common/rng.hpp"
#include "exp/driver.hpp"
#include "hybrid/hybrid_system.hpp"
#include "workload/workload.hpp"

namespace hp2p::exp {
namespace {

using hybrid::HybridSystem;
using hybrid::Role;

/// Role sequence with exactly chaos::tpeer_count(n, ps) t-peers, first peer
/// always a t-peer.  With capacity sorting, t-roles are paired with the
/// fastest hosts by construction in the caller.
std::vector<Role> role_sequence(std::uint32_t n, double ps, bool tpeers_first,
                                Rng& rng) {
  const std::uint32_t n_t = chaos::tpeer_count(n, ps);
  std::vector<Role> roles(n, Role::kSPeer);
  for (std::uint32_t i = 0; i < n_t; ++i) roles[i] = Role::kTPeer;
  if (!tpeers_first) {
    std::vector<Role> tail(roles.begin() + 1, roles.end());
    rng.shuffle(tail);
    std::copy(tail.begin(), tail.end(), roles.begin() + 1);
  }
  return roles;
}

}  // namespace

RunResult run_hybrid_experiment(const RunConfig& raw_config) {
  RunConfig config = raw_config;
  // Ring routing sizes the lookup deadline by all N peers: the idle
  // re-flood and re-route timers fire at half the deadline, and the pinned
  // N=1,000 digest records their sim time.  Finger routing takes ~log N_t
  // hops, but no rung models transmission delay, so a hop costs its
  // propagation delay, and past ~3k hosts the transit core's diameter grows
  // with N: ~1.3 s a hop at 100k peers, ~15 s for a 12-hop lookup.  So its
  // bound is sized by N_t rather than by the hop count.
  const std::uint32_t bound_peers =
      config.hybrid.t_routing == hybrid::TRouting::kFinger
          ? chaos::tpeer_count(config.num_peers, config.hybrid.ps)
          : config.num_peers;
  config.hybrid.lookup_timeout =
      lookup_deadline(config.hybrid.lookup_timeout, bound_peers);

  Rng rng{config.seed};
  Rng topo_rng = rng.fork(1);
  Rng build_rng = rng.fork(2);
  Rng op_rng = rng.fork(3);

  // One underlay host per peer plus one for the server, as in the paper's
  // 1,000-node GT-ITM topologies.
  proto::OverlayNetworkOptions net_opts;
  net_opts.model_transmission_delay = config.model_transmission_delay;
  net_opts.track_link_stress = config.track_link_stress;
  chaos::World world{topo_rng, build_rng, config.num_peers + 1, config.hybrid,
                     net_opts};
  sim::Simulator& sim = world.sim;
  const net::Underlay& underlay = world.underlay;
  proto::OverlayNetwork& network = world.network;
  HybridSystem& system = world.system;

  // ---- Observability wiring -------------------------------------------------
  network.set_span_recorder(config.tracer);
  std::optional<FlightRecorderTap> flight_tap;
  if (config.flight != nullptr) {
    flight_tap.emplace(*config.flight, sim, network);
  }
  if (config.profiler != nullptr) sim.add_observer(config.profiler);
  if (config.observer != nullptr) sim.add_observer(config.observer);
  std::optional<stats::TimeSeriesSampler> sampler;
  if (config.sample_period > sim::Duration{}) {
    sampler.emplace(sim, config.sample_period);
    sampler->add_gauge("live_peers", [&system] {
      return static_cast<double>(system.live_peers().size());
    });
    sampler->add_gauge("tpeers", [&system] {
      return static_cast<double>(system.num_tpeers());
    });
    sampler->add_gauge("speers", [&system] {
      return static_cast<double>(system.num_speers());
    });
    sampler->add_gauge("pending_lookups", [&system] {
      return static_cast<double>(system.pending_lookups());
    });
    sampler->add_gauge("messages_sent", [&network] {
      return static_cast<double>(network.stats().messages_sent);
    });
    sampler->add_gauge("messages_delivered", [&network] {
      return static_cast<double>(network.stats().messages_delivered);
    });
    // Work in flight: a phase's driver ops wait outside the queue until the
    // op before them fires (OpChain), so unlaunched ops are not counted.
    sampler->add_gauge("events_pending", [&sim] {
      return static_cast<double>(sim.pending_events());
    });
    if (config.profiler != nullptr) {
      // Occupancy gauges for profiled runs only: heap and RSS values are
      // allocator/wall-clock dependent, and the repro tests compare
      // profiler-off timeseries byte-for-byte across same-seed runs.
      sampler->add_gauge("arena_slots", [&sim] {
        return static_cast<double>(sim.arena_slots());
      });
      sampler->add_gauge("arena_live_slots", [&sim] {
        return static_cast<double>(sim.arena_live_slots());
      });
      sampler->add_gauge("event_backlog", [&sim] {
        return static_cast<double>(sim.queue_depth());
      });
      sampler->add_gauge("heap_live_bytes", [] {
        return static_cast<double>(alloc_stats::live_bytes());
      });
      sampler->add_gauge("vm_rss_bytes", [] {
        return static_cast<double>(current_rss_bytes());
      });
    }
  }
  // Invariant auditing: explicit period from the config, or a 1 s default
  // behind HP2P_AUDIT=1.  Periodic passes run lenient checks mid-churn; a
  // final pass closes every phase at quiescence.  Debug builds always audit
  // phase boundaries, so churn bugs surface in tests without any opt-in.
  sim::Duration audit_period = config.audit_period;
  if (audit_period == sim::Duration{} && env_or("HP2P_AUDIT", std::int64_t{0}) != 0) {
    audit_period = sim::SimTime::seconds(1);
  }
#ifdef NDEBUG
  const bool audit_phases = audit_period > sim::Duration{};
#else
  const bool audit_phases = true;
#endif
  std::optional<audit::OverlayAuditor> auditor;
  if (audit_phases) {
    auditor.emplace(system, network, sim);
    if (config.flight != nullptr) auditor->set_flight_recorder(config.flight);
    if (audit_period > sim::Duration{}) auditor->set_period(audit_period);
  }

  const auto arm_sampler = [&sampler, &auditor] {
    if (sampler) sampler->ensure_running();
    if (auditor) auditor->ensure_running();
  };

  // Phase timing starts here: the wiring above counts as setup.
  RunDriver driver{world, config.flight};
  RunResult& result = driver.result;
  const auto end_phase = [&](const char* name) {
    if (auditor) auditor->run();  // quiescent(ish) audit at the boundary
    driver.end_phase(name);
  };

  // ---- Build phase ----------------------------------------------------------
  const auto roles = role_sequence(config.num_peers, config.hybrid.ps,
                                   config.tpeers_first, build_rng);
  // Host assignment: peer i -> host i+1 by default.  With capacity-sorted
  // roles, t-peers take the highest-capacity hosts (Section 5.1).
  std::vector<HostIndex> hosts;
  hosts.reserve(config.num_peers);
  for (std::uint32_t i = 0; i < config.num_peers; ++i) {
    hosts.push_back(HostIndex{1 + i % (underlay.num_hosts() - 1)});
  }
  if (config.capacity_sorted_roles) {
    std::vector<HostIndex> sorted = hosts;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&](HostIndex a, HostIndex b) {
                       return static_cast<int>(underlay.capacity(a)) >
                              static_cast<int>(underlay.capacity(b));
                     });
    // Fast hosts go to the t-roles (in role order), the rest to s-roles.
    std::size_t fast = 0;
    std::size_t slow = sorted.size();
    for (std::uint32_t i = 0; i < config.num_peers; ++i) {
      hosts[i] = roles[i] == Role::kTPeer ? sorted[fast++] : sorted[--slow];
    }
  }

  std::vector<PeerIndex> peers;
  peers.reserve(config.num_peers);
  std::vector<std::uint32_t> interests(config.num_peers);
  for (auto& interest : interests) {
    interest = static_cast<std::uint32_t>(
        build_rng.index(config.hybrid.num_interests));
  }
  const auto join = [&](std::uint32_t i) {
    peers.push_back(system.add_peer_with_interest(
        hosts[i], roles[i], interests[i], driver.on_join()));
  };
  // Joins every peer of `role`, in peer order, one per join_spacing.
  const auto join_all = [&](Role role) {
    const auto n = static_cast<std::size_t>(
        std::count(roles.begin(), roles.end(), role));
    std::uint32_t next = 0;  // the ops fire in order: a cursor finds each
    OpChain chain{sim, n, config.join_spacing, [&](std::size_t) {
      while (roles[next] != role) ++next;
      join(next++);
    }};
    arm_sampler();
    sim.run();
  };
  if (config.tpeers_first) {
    // Two-phase build: the whole t-network settles (ring walks included)
    // before the first s-peer consults the server, so segment boundaries
    // and interest anchors are final.
    join_all(Role::kTPeer);
    join_all(Role::kSPeer);
  } else {
    OpChain chain{sim, config.num_peers, config.join_spacing,
                  [&](std::size_t i) { join(static_cast<std::uint32_t>(i)); }};
    arm_sampler();
    sim.run();
  }

  // Finger-accelerated routing needs populated tables; the hybrid paper
  // leaves finger construction to Chord-style maintenance, which we fold
  // into one post-build refresh (see HybridSystem::refresh_all_fingers).
  if (config.hybrid.t_routing == hybrid::TRouting::kFinger) {
    system.refresh_all_fingers();
  }
  end_phase("build");

  // ---- Populate phase -------------------------------------------------------
  std::vector<DataId> stored_ids;
  stored_ids.reserve(config.num_items);
  // Interest-tagged content, bucketed by interest so interest-local
  // lookups can target own-interest items (Section 5.3 workload).
  std::vector<std::vector<DataId>> by_interest(config.hybrid.num_interests);
  const auto corpus = workload::uniform_corpus(config.num_items, config.seed);
  {
    OpChain chain{
        sim, config.num_items, config.op_spacing, [&](std::size_t i) {
          const auto& live = system.live_peers();
          if (live.empty()) return;
          const PeerIndex origin = live[op_rng.index(live.size())];
          DataId id = corpus[i].id;
          if (config.interest_locality > 0.0 &&
              op_rng.chance(config.interest_locality)) {
            // Publish content of the origin's interest: the id falls in the
            // interest's anchor band, regardless of assignment policy.
            const std::uint32_t interest = system.interest_of(origin);
            id = workload::interest_band_id(op_rng, interest,
                                            config.hybrid.num_interests);
            by_interest[interest].push_back(id);
          }
          stored_ids.push_back(id);
          system.store_id(origin, id, corpus[i].key, corpus[i].value);
        }};
    arm_sampler();
    sim.run();
  }
  end_phase("populate");

  // ---- Optional crash / maintenance phase ---------------------------------------
  const bool heartbeats = config.crash_fraction > 0.0 ||
                          config.failure_detection;
  if (heartbeats) {
    system.start_failure_detection();
    if (config.crash_fraction > 0.0) {
      // Snapshot by value: crash() invalidates the live_peers() cache the
      // reference points into.
      auto victims = system.live_peers();
      op_rng.shuffle(victims);
      const auto n_crash = static_cast<std::size_t>(
          config.crash_fraction * static_cast<double>(victims.size()));
      for (std::size_t i = 0; i < n_crash && i < victims.size(); ++i) {
        system.crash(victims[i]);
      }
      // Audit straight after the crash batch: the lenient checks must hold
      // even in the most disturbed state of the run.
      if (auditor) auditor->run();
    }
    arm_sampler();
    sim.run_until(sim.now() + config.recovery_time);
    end_phase("maintenance");
  }

  // ---- Lookup phase -----------------------------------------------------------
  std::optional<workload::ZipfSampler> zipf;
  if (config.zipf_exponent > 0.0 && !stored_ids.empty()) {
    zipf.emplace(stored_ids.size(), config.zipf_exponent);
  }
  // With heartbeats running the queue never drains, so the phase ends at
  // the last answer.
  driver.run_lookups(
      config.num_lookups, config.op_spacing, heartbeats,
      config.hybrid.lookup_timeout,
      [&](const auto& report) {
        const auto& live = system.live_peers();
        if (live.empty() || stored_ids.empty()) return false;
        const std::size_t pool =
            config.lookup_origin_pool > 0
                ? std::min(config.lookup_origin_pool, live.size())
                : live.size();
        const PeerIndex origin = live[op_rng.index(pool)];
        DataId target = zipf ? stored_ids[zipf->sample(op_rng)]
                             : stored_ids[op_rng.index(stored_ids.size())];
        if (config.interest_locality > 0.0 &&
            op_rng.chance(config.interest_locality)) {
          const auto& mine = by_interest[system.interest_of(origin)];
          if (!mine.empty()) target = mine[op_rng.index(mine.size())];
        }
        system.lookup_id(origin, target, report);
        return true;
      },
      arm_sampler);
  end_phase("lookup");

  // ---- Collection ----------------------------------------------------------------
  driver.collect(
      stored_ids, system.live_peers(),
      [&](PeerIndex p) -> const auto& { return system.store_of(p); });
  result.num_tpeers = system.num_tpeers();
  result.num_speers = system.num_speers();
  result.bypass_installs = system.bypass_installs();
  result.bypass_uses = system.bypass_uses();
  result.max_answers_served = system.max_answers_served();
  result.cache_hits = system.cache_hits();
  result.replica_pushes = system.replica_pushes();
  result.re_replication_pushes = system.re_replication_pushes();
  result.anti_entropy_repairs = system.anti_entropy_repairs();
  result.read_repairs = system.read_repairs();
  if (network.link_stress() != nullptr) {
    result.mean_link_stress = network.link_stress()->mean_stress();
    result.max_link_stress = network.link_stress()->max_stress();
  }
  // Tree degree, and the mean messages handled (sent + received) per t-peer
  // and per s-peer: Section 5.1's load imbalance.
  double traffic[2] = {0, 0};  // t-peers, s-peers
  std::size_t count[2] = {0, 0};
  for (const PeerIndex p : system.live_peers()) {
    const std::size_t s = system.role_of(p) == Role::kSPeer ? 1 : 0;
    // An s-peer's parent link counts towards its degree.
    result.max_tree_degree =
        std::max(result.max_tree_degree, system.children_of(p).size() + s);
    traffic[s] += static_cast<double>(network.messages_sent_by(p) +
                                      network.messages_received_by(p));
    ++count[s];
  }
  result.mean_tpeer_traffic =
      count[0] > 0 ? traffic[0] / static_cast<double>(count[0]) : 0;
  result.mean_speer_traffic =
      count[1] > 0 ? traffic[1] / static_cast<double>(count[1]) : 0;
  if (sampler) {
    sampler->sample_now();  // closing sample at the final sim time
    result.timeseries = sampler->take();
  }
  if (auditor) {
    result.audit_runs = auditor->runs();
    result.audit_violations = auditor->total_violations();
    if (result.audit_violations > 0) {
      // Loud even when the caller never exports these counters (figure-curve
      // replicas aggregate only their plotted metrics).
      std::cerr << "warning: overlay audit found " << result.audit_violations
                << " violation(s): "
                << auditor->last_failing_report().to_json().dump() << "\n";
    }
  }
  return std::move(driver.result);
}

void FlightRecorderTap::on_event(const sim::TraceEvent& e) {
  static constexpr const char* kKind[] = {  // indexed by Kind
      "sim:schedule", "sim:fire", "sim:cancel"};
  flight_.record(sim_.now(), kKind[static_cast<std::size_t>(e.kind)], e.seq,
                 static_cast<std::uint64_t>(e.when.as_micros()));
}

void FlightRecorderTap::on_message(const proto::NetTraceEvent& e) {
  static constexpr const char* kKind[] = {  // indexed by Kind
      "net:send", "net:deliver", "net:drop_dead_sender",
      "net:drop_dead_receiver", "net:loss", "net:drop_ttl",
      "net:drop_no_route"};
  flight_.record(sim_.now(), kKind[static_cast<std::size_t>(e.kind)],
                 e.from.value(), e.to.value(), e.bytes);
}

double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double total = 0;
  for (double x : xs) total += x;
  return total / static_cast<double>(xs.size());
}

}  // namespace exp
