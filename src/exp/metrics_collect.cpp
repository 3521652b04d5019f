#include "exp/metrics_collect.hpp"

namespace hp2p::exp {
namespace {

std::string joined(const std::string& prefix, const char* leaf) {
  return prefix.empty() ? leaf : prefix + "." + leaf;
}

void collect_sim_stats(stats::MetricsRegistry& reg, const std::string& prefix,
                       const sim::SimulatorStats& s) {
  reg.set(joined(prefix, "events_scheduled"), s.events_scheduled);
  reg.set(joined(prefix, "events_executed"), s.events_executed);
  reg.set(joined(prefix, "events_cancelled"), s.events_cancelled);
  reg.set(joined(prefix, "corpses_skipped"), s.corpses_skipped);
}

void collect_network_stats(stats::MetricsRegistry& reg,
                           const std::string& prefix,
                           const proto::NetworkStats& s) {
  reg.set(joined(prefix, "messages_sent"), s.messages_sent);
  reg.set(joined(prefix, "messages_delivered"), s.messages_delivered);
  reg.set(joined(prefix, "messages_dropped"), s.messages_dropped);
  reg.set(joined(prefix, "messages_lost"), s.messages_lost);
  reg.set(joined(prefix, "messages_in_flight"), s.messages_in_flight);
  reg.set(joined(prefix, "bytes_sent"), s.bytes_sent);
  for (std::size_t i = 0; i < proto::kNumTrafficClasses; ++i) {
    const auto cls = static_cast<proto::TrafficClass>(i);
    const std::string base = joined(prefix, "class") + "." +
                             proto::traffic_class_name(cls);
    reg.set(base + ".messages", s.per_class_messages[i]);
    reg.set(base + ".bytes", s.per_class_bytes[i]);
  }
  for (std::size_t i = 0; i < proto::kNumDropReasons; ++i) {
    const auto reason = static_cast<proto::DropReason>(i);
    reg.set(joined(prefix, "drop") + "." + proto::drop_reason_name(reason),
            s.drops_by_reason[i]);
  }
}

void collect_lookup_stats(stats::MetricsRegistry& reg,
                          const std::string& prefix,
                          const proto::LookupStats& s) {
  reg.set(joined(prefix, "issued"), s.issued);
  reg.set(joined(prefix, "succeeded"), s.succeeded);
  reg.set(joined(prefix, "failed"), s.failed);
  reg.set(joined(prefix, "fast_failed"), s.fast_failed);
  reg.set(joined(prefix, "connum"), s.total_peers_contacted);
  reg.set(joined(prefix, "failure_ratio"), s.failure_ratio());
  reg.set(joined(prefix, "mean_success_latency_ms"),
          s.mean_success_latency_ms());
  reg.set(joined(prefix, "mean_success_hops"), s.mean_success_hops());
}

}  // namespace

void collect_run_config(stats::MetricsRegistry& reg, const std::string& prefix,
                        const RunConfig& c) {
  reg.set(joined(prefix, "seed"), c.seed);
  reg.set(joined(prefix, "num_peers"), c.num_peers);
  reg.set(joined(prefix, "num_items"),
          static_cast<std::uint64_t>(c.num_items));
  reg.set(joined(prefix, "num_lookups"),
          static_cast<std::uint64_t>(c.num_lookups));
  reg.set(joined(prefix, "crash_fraction"), c.crash_fraction);
  reg.set(joined(prefix, "interest_locality"), c.interest_locality);
  reg.set(joined(prefix, "zipf_exponent"), c.zipf_exponent);
  reg.set(joined(prefix, "ps"), c.hybrid.ps);
  reg.set(joined(prefix, "delta"), c.hybrid.delta);
  reg.set(joined(prefix, "replication_factor"), c.hybrid.replication_factor);
  reg.set(joined(prefix, "ttl"), c.hybrid.ttl);
  reg.set(joined(prefix, "bypass_links"), c.hybrid.bypass_links);
  reg.set(joined(prefix, "enable_caching"), c.hybrid.enable_caching);
  reg.set(joined(prefix, "cache_capacity"),
          static_cast<std::uint64_t>(c.hybrid.cache_capacity));
}

void collect_run_result(stats::MetricsRegistry& reg, const std::string& prefix,
                        const RunResult& r) {
  collect_lookup_stats(reg, joined(prefix, "lookup"), r.lookups);
  collect_network_stats(reg, joined(prefix, "net"), r.network);
  collect_sim_stats(reg, joined(prefix, "sim"), r.sim_stats);
  reg.collect_summary(joined(prefix, "join_latency_ms"), r.join_latency_ms);
  reg.collect_summary(joined(prefix, "join_hops"), r.join_hops);
  reg.collect_summary(joined(prefix, "lookup_latency_ms"),
                      r.lookup_latency_ms);
  reg.collect_summary(joined(prefix, "lookup_hops"), r.lookup_hops);
  for (const PhaseTiming& t : r.phases) {
    const std::string base = joined(prefix, "phase") + "." + t.name;
    reg.set(base + ".wall_ms", t.wall_ms);
    reg.set(base + ".sim_ms", t.sim_ms);
  }
  reg.set(joined(prefix, "num_tpeers"),
          static_cast<std::uint64_t>(r.num_tpeers));
  reg.set(joined(prefix, "num_speers"),
          static_cast<std::uint64_t>(r.num_speers));
  reg.set(joined(prefix, "joins_completed"),
          static_cast<std::uint64_t>(r.joins_completed));
  reg.set(joined(prefix, "max_tree_degree"),
          static_cast<std::uint64_t>(r.max_tree_degree));
  reg.set(joined(prefix, "bypass_installs"), r.bypass_installs);
  reg.set(joined(prefix, "bypass_uses"), r.bypass_uses);
  reg.set(joined(prefix, "max_answers_served"), r.max_answers_served);
  reg.set(joined(prefix, "cache_hits"), r.cache_hits);
  reg.set(joined(prefix, "max_link_stress"), r.max_link_stress);
  reg.set(joined(prefix, "mean_link_stress"), r.mean_link_stress);
  reg.set(joined(prefix, "mean_tpeer_traffic"), r.mean_tpeer_traffic);
  reg.set(joined(prefix, "mean_speer_traffic"), r.mean_speer_traffic);
  reg.set(joined(prefix, "audit.runs"), r.audit_runs);
  reg.set(joined(prefix, "audit.violations"), r.audit_violations);
  reg.set(joined(prefix, "replication.replica_pushes"), r.replica_pushes);
  reg.set(joined(prefix, "replication.re_replication_pushes"),
          r.re_replication_pushes);
  reg.set(joined(prefix, "replication.anti_entropy_repairs"),
          r.anti_entropy_repairs);
  reg.set(joined(prefix, "replication.read_repairs"), r.read_repairs);
  reg.set(joined(prefix, "replication.items_stored"),
          static_cast<std::uint64_t>(r.items_stored));
  reg.set(joined(prefix, "replication.items_recoverable"),
          static_cast<std::uint64_t>(r.items_recoverable));
  reg.set(joined(prefix, "replication.data_availability"),
          r.data_availability());
}

}  // namespace hp2p::exp
