#include "exp/baselines.hpp"

#include "common/rng.hpp"
#include "exp/driver.hpp"
#include "workload/workload.hpp"

namespace hp2p::exp {

// Both baselines put one peer on each of `num_peers` underlay hosts: they
// have no server peer, where the hybrid world adds one host for its server.

RunResult run_chord_experiment(const ChordRunConfig& raw_config) {
  ChordRunConfig config = raw_config;
  config.chord.lookup_timeout =
      lookup_deadline(config.chord.lookup_timeout, config.num_peers);

  Rng rng{config.seed};
  Rng topo_rng = rng.fork(1);
  Rng build_rng = rng.fork(2);
  Rng op_rng = rng.fork(3);

  proto::Substrate world{topo_rng, config.num_peers};
  chord::ChordNetwork chord{world.network, config.chord};
  RunDriver driver{world};

  // ---- Build: sequential joins (Chord has no join queueing; the paper's
  // concurrency machinery is a hybrid-system contribution). --------------------
  std::vector<PeerIndex> nodes;
  nodes.push_back(chord.create_ring(
      HostIndex{0}, PeerId{build_rng.uniform(0, kRingSize - 1)}));
  ++driver.result.joins_completed;
  for (std::uint32_t i = 1; i < config.num_peers; ++i) {
    const PeerIndex n = chord.register_node(
        HostIndex{i}, PeerId{build_rng.uniform(0, kRingSize - 1)});
    chord.join(n, nodes.front(), driver.on_join());
    world.sim.run();
    nodes.push_back(n);
  }
  if (config.maintenance) chord.start_maintenance(build_rng);
  driver.end_phase("build");

  // ---- Populate ----------------------------------------------------------------
  const auto corpus = workload::uniform_corpus(config.num_items, config.seed);
  std::vector<DataId> stored_ids;
  {
    OpChain chain{world.sim, config.num_items, config.op_spacing,
                  [&](std::size_t i) {
                    chord.store(nodes[op_rng.index(nodes.size())],
                                corpus[i].key, corpus[i].value);
                    stored_ids.push_back(corpus[i].id);
                  }};
    if (config.maintenance) {
      world.sim.run_until(chain.end() + sim::SimTime::seconds(120));
    } else {
      world.sim.run();
    }
  }
  driver.end_phase("populate");

  // ---- Lookups -------------------------------------------------------------------
  driver.run_lookups(
      config.num_lookups, config.op_spacing, config.maintenance,
      config.chord.lookup_timeout,
      [&](const auto& report) {
        const auto& item = corpus[op_rng.index(corpus.size())];
        chord.lookup(nodes[op_rng.index(nodes.size())], item.key, report);
        return true;
      },
      [] {});
  driver.end_phase("lookup");

  driver.collect(stored_ids, nodes,
                 [&](PeerIndex p) -> const auto& { return chord.store_of(p); });
  driver.result.num_tpeers = config.num_peers;
  return std::move(driver.result);
}

RunResult run_gnutella_experiment(const GnutellaRunConfig& config) {
  Rng rng{config.seed};
  Rng topo_rng = rng.fork(1);
  Rng build_rng = rng.fork(2);
  Rng op_rng = rng.fork(3);

  proto::Substrate world{topo_rng, config.num_peers};
  gnutella::GnutellaNetwork g{world.network, config.gnutella};
  RunDriver driver{world};

  // ---- Build: joins are O(1) link setups. -----------------------------------------
  std::vector<PeerIndex> peers;
  for (std::uint32_t i = 0; i < config.num_peers; ++i) {
    peers.push_back(g.join(HostIndex{i}, build_rng));
    ++driver.result.joins_completed;
    driver.result.join_hops.add(1.0);  // one bootstrap exchange
  }
  driver.end_phase("build");

  // ---- Populate: data stays with its publisher. ------------------------------------
  const auto corpus = workload::uniform_corpus(config.num_items, config.seed);
  std::vector<DataId> stored_ids;
  for (const auto& item : corpus) {
    g.store(peers[op_rng.index(peers.size())], item.key, item.value);
    stored_ids.push_back(item.id);
  }
  driver.end_phase("populate");

  // ---- Lookups --------------------------------------------------------------------
  driver.run_lookups(
      config.num_lookups, config.op_spacing, false, sim::Duration{},
      [&](const auto& report) {
        const auto& item = corpus[op_rng.index(corpus.size())];
        g.lookup(peers[op_rng.index(peers.size())], item.key, report);
        return true;
      },
      [] {});
  driver.end_phase("lookup");

  driver.collect(stored_ids, peers,
                 [&](PeerIndex p) -> const auto& { return g.store_of(p); });
  driver.result.num_speers = config.num_peers;
  return std::move(driver.result);
}

}  // namespace hp2p::exp
