// Unit tests for the overlay transport.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/transit_stub.hpp"
#include "net/underlay.hpp"
#include "proto/overlay_network.hpp"
#include "sim/simulator.hpp"

namespace hp2p::proto {
namespace {

class OverlayNetworkTest : public ::testing::Test {
 protected:
  OverlayNetworkTest() : rng_(101) {
    auto p = net::TransitStubParams::for_total_nodes(100);
    underlay_.emplace(net::generate_transit_stub(p, rng_), rng_);
  }

  OverlayNetwork make_network(OverlayNetworkOptions opts = {}) {
    return OverlayNetwork{sim_, *underlay_, opts};
  }

  /// One watched query a -> b whose continuation is due at `deadline`,
  /// then a marker event at `deadline`.  The continuation must order ahead
  /// of the marker, as an event scheduled right after the send would.
  /// Every event appends (d = delivery, l = late, m = marker, time) to log_.
  void watched_query(OverlayNetwork& net, PeerIndex a, PeerIndex b,
                     sim::SimTime deadline) {
    net.send_watched(
        a, b, TrafficClass::kQuery, kQueryBytes, {},
        [this] { log_.emplace_back('d', sim_.now()); }, deadline,
        [this] { log_.emplace_back('l', sim_.now()); });
    sim_.schedule_at(deadline, [this] { log_.emplace_back('m', sim_.now()); });
  }
  using Log = std::vector<std::pair<char, sim::SimTime>>;

  Rng rng_;
  sim::Simulator sim_;
  std::optional<net::Underlay> underlay_;
  Log log_;
};

TEST_F(OverlayNetworkTest, AddPeerAssignsDenseIndices) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{1});
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(net.num_peers(), 2u);
  EXPECT_EQ(net.host_of(b), HostIndex{1});
  EXPECT_TRUE(net.alive(a));
}

TEST_F(OverlayNetworkTest, DeliveryAfterPropagationDelay) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{50});
  sim::SimTime delivered_at = sim::SimTime::never();
  net.send(a, b, TrafficClass::kControl, kControlBytes,
           [&] { delivered_at = sim_.now(); });
  sim_.run();
  EXPECT_EQ(delivered_at, underlay_->latency(HostIndex{0}, HostIndex{50}));
  EXPECT_EQ(net.stats().messages_delivered, 1u);
}

TEST_F(OverlayNetworkTest, TransmissionDelayAddsWhenEnabled) {
  auto plain = make_network();
  auto hetero = make_network({.model_transmission_delay = true});
  const PeerIndex a1 = plain.add_peer(HostIndex{0});
  const PeerIndex b1 = plain.add_peer(HostIndex{50});
  const PeerIndex a2 = hetero.add_peer(HostIndex{0});
  const PeerIndex b2 = hetero.add_peer(HostIndex{50});
  EXPECT_GT(hetero.hop_latency(a2, b2, kDataBytes),
            plain.hop_latency(a1, b1, kDataBytes));
  EXPECT_EQ(plain.hop_latency(a1, b1, kDataBytes),
            underlay_->latency(HostIndex{0}, HostIndex{50}));
}

TEST_F(OverlayNetworkTest, HopLatencyEqualsUnderlayLatencyOfTheHosts) {
  // hop_latency() answers from the two peers' Endpoint records; it must
  // equal the underlay's latency between their hosts for every pair,
  // same-domain pairs (whose tables it builds) and core hosts included.
  auto net = make_network();
  const std::uint32_t hosts = underlay_->num_hosts();
  for (std::uint32_t h = 0; h < hosts; ++h) (void)net.add_peer(HostIndex{h});
  (void)net.add_peer(HostIndex{hosts - 1});  // two peers on one host
  for (std::uint32_t a = 0; a < net.num_peers(); ++a) {
    for (std::uint32_t b = 0; b < net.num_peers(); ++b) {
      const PeerIndex pa{a};
      const PeerIndex pb{b};
      ASSERT_EQ(net.hop_latency(pa, pb, kQueryBytes),
                underlay_->latency(net.host_of(pa), net.host_of(pb)))
          << "peers (" << a << ", " << b << ")";
    }
  }
}

TEST_F(OverlayNetworkTest, DeadReceiverDropsAtDeliveryTime) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{10});
  bool delivered = false;
  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [&] { delivered = true; });
  net.set_alive(b, false);  // crash while in flight
  sim_.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
  EXPECT_EQ(net.stats().messages_sent, 1u);
}

TEST_F(OverlayNetworkTest, DeadSenderCannotSend) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{10});
  net.set_alive(a, false);
  bool delivered = false;
  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [&] { delivered = true; });
  sim_.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.stats().messages_sent, 0u);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST_F(OverlayNetworkTest, PerClassAccounting) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{10});
  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [] {});
  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [] {});
  net.send(a, b, TrafficClass::kData, kDataBytes, [] {});
  sim_.run();
  EXPECT_EQ(net.stats().class_messages(TrafficClass::kQuery), 2u);
  EXPECT_EQ(net.stats().class_messages(TrafficClass::kData), 1u);
  EXPECT_EQ(net.stats().class_bytes(TrafficClass::kData), kDataBytes);
  EXPECT_EQ(net.stats().bytes_sent, 2u * kQueryBytes + kDataBytes);
}

TEST_F(OverlayNetworkTest, LinkStressTracksPathEdges) {
  auto net = make_network({.track_link_stress = true});
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{77});
  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [] {});
  sim_.run();
  ASSERT_NE(net.link_stress(), nullptr);
  EXPECT_EQ(net.link_stress()->total_copies(),
            underlay_->path_hops(HostIndex{0}, HostIndex{77}));
}

TEST_F(OverlayNetworkTest, LinkStressDisabledByDefault) {
  auto net = make_network();
  EXPECT_EQ(net.link_stress(), nullptr);
}

TEST_F(OverlayNetworkTest, SelfSendDeliversAtOnce) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{3});
  sim::SimTime at = sim::SimTime::never();
  net.send(a, a, TrafficClass::kControl, kControlBytes, [&] { at = sim_.now(); });
  sim_.run();
  EXPECT_EQ(at, sim::SimTime{});
}

TEST_F(OverlayNetworkTest, PerPeerCountersTrackSendAndReceive) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{10});
  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [] {});
  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [] {});
  net.send(b, a, TrafficClass::kControl, kControlBytes, [] {});
  sim_.run();
  EXPECT_EQ(net.messages_sent_by(a), 2u);
  EXPECT_EQ(net.messages_received_by(b), 2u);
  EXPECT_EQ(net.messages_sent_by(b), 1u);
  EXPECT_EQ(net.messages_received_by(a), 1u);
}

TEST_F(OverlayNetworkTest, LossRateDropsSomeMessages) {
  OverlayNetworkOptions opts;
  opts.loss_rate = 0.5;
  auto net = make_network(opts);
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{10});
  int delivered = 0;
  for (int i = 0; i < 200; ++i) {
    net.send(a, b, TrafficClass::kQuery, kQueryBytes, [&] { ++delivered; });
  }
  sim_.run();
  EXPECT_GT(net.stats().messages_lost, 50u);
  EXPECT_GT(delivered, 50);
  EXPECT_EQ(static_cast<std::uint64_t>(delivered) + net.stats().messages_lost,
            200u);
}

TEST_F(OverlayNetworkTest, ZeroLossRateLosesNothing) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{10});
  for (int i = 0; i < 50; ++i) {
    net.send(a, b, TrafficClass::kQuery, kQueryBytes, [] {});
  }
  sim_.run();
  EXPECT_EQ(net.stats().messages_lost, 0u);
  EXPECT_EQ(net.stats().messages_delivered, 50u);
}

TEST_F(OverlayNetworkTest, ResurrectionAllowsDeliveryAgain) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{10});
  net.set_alive(b, false);
  net.set_alive(b, true);
  bool delivered = false;
  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [&] { delivered = true; });
  sim_.run();
  EXPECT_TRUE(delivered);
}

TEST_F(OverlayNetworkTest, TraceHookSeesSendDeliverAndDrops) {
  struct Recorder : NetObserver {
    std::vector<NetTraceEvent> events;
    void on_message(const NetTraceEvent& ev) override { events.push_back(ev); }
  };
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{10});
  Recorder first;
  Recorder second;
  net.add_observer(&first);
  net.add_observer(&second);
  std::vector<NetTraceEvent>& events = first.events;
  std::size_t seen = 0;  // second's events checked so far
  const auto expect_second_matches = [&] {
    ASSERT_EQ(second.events.size(), seen + events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      const NetTraceEvent& ev = second.events[seen + i];
      EXPECT_EQ(ev.kind, events[i].kind);
      EXPECT_EQ(ev.from, events[i].from);
      EXPECT_EQ(ev.to, events[i].to);
      EXPECT_EQ(ev.cls, events[i].cls);
      EXPECT_EQ(ev.bytes, events[i].bytes);
    }
    seen = second.events.size();
  };

  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [] {});
  sim_.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, NetTraceEvent::Kind::kSend);
  EXPECT_EQ(events[0].from, a);
  EXPECT_EQ(events[0].to, b);
  EXPECT_EQ(events[0].cls, TrafficClass::kQuery);
  EXPECT_EQ(events[0].bytes, kQueryBytes);
  EXPECT_EQ(events[1].kind, NetTraceEvent::Kind::kDeliver);
  expect_second_matches();

  events.clear();
  net.set_alive(b, false);
  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [] {});
  sim_.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, NetTraceEvent::Kind::kSend);
  EXPECT_EQ(events[1].kind, NetTraceEvent::Kind::kDropDeadReceiver);
  expect_second_matches();

  events.clear();
  net.send(b, a, TrafficClass::kControl, kControlBytes, [] {});
  sim_.run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, NetTraceEvent::Kind::kDropDeadSender);
  expect_second_matches();
}

// --- Watched sends: one test per fate --------------------------------------

TEST_F(OverlayNetworkTest, WatchedSendDeliveredDropsItsContinuation) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{50});
  const sim::SimTime hop = net.hop_latency(a, b, kQueryBytes);
  const sim::SimTime deadline = hop + hop + sim::SimTime::millis(500);
  watched_query(net, a, b, deadline);
  sim_.run();
  EXPECT_EQ(log_, (Log{{'d', hop}, {'m', deadline}}));
  // The healthy hop cost its delivery and nothing more.
  EXPECT_EQ(sim_.stats().events_scheduled, 2u);
}

TEST_F(OverlayNetworkTest, WatchedSendArrivingAtItsDeadlineCountsAsDelivered) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{50});
  const sim::SimTime hop = net.hop_latency(a, b, kQueryBytes);
  watched_query(net, a, b, hop);
  sim_.run();
  EXPECT_EQ(log_, (Log{{'d', hop}, {'m', hop}}));
}

TEST_F(OverlayNetworkTest, WatchedSendFromDeadSenderRunsContinuationAtDeadline) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{50});
  net.set_alive(a, false);
  const sim::SimTime deadline = sim::SimTime::millis(700);
  watched_query(net, a, b, deadline);
  sim_.run();
  EXPECT_EQ(log_, (Log{{'l', deadline}, {'m', deadline}}));
  EXPECT_EQ(net.stats().reason_drops(DropReason::kDeadSender), 1u);
}

TEST_F(OverlayNetworkTest, WatchedSendLostRunsContinuationAtDeadline) {
  auto net = make_network({.loss_rate = 1.0});
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{50});
  const sim::SimTime deadline = sim::SimTime::millis(700);
  watched_query(net, a, b, deadline);
  sim_.run();
  EXPECT_EQ(log_, (Log{{'l', deadline}, {'m', deadline}}));
  EXPECT_EQ(net.stats().messages_lost, 1u);
}

TEST_F(OverlayNetworkTest, WatchedSendDroppedByFaultRunsContinuationAtDeadline) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{50});
  net.set_fault([](PeerIndex, PeerIndex, TrafficClass, std::uint32_t) {
    return FaultAction{.drop = true};
  });
  const sim::SimTime deadline = sim::SimTime::millis(700);
  watched_query(net, a, b, deadline);
  sim_.run();
  EXPECT_EQ(log_, (Log{{'l', deadline}, {'m', deadline}}));
  EXPECT_EQ(net.stats().messages_lost, 1u);
}

TEST_F(OverlayNetworkTest, WatchedSendArrivingLateRunsContinuationThenDelivers) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{50});
  net.set_fault([](PeerIndex, PeerIndex, TrafficClass, std::uint32_t) {
    return FaultAction{.extra_delay = sim::SimTime::seconds(10)};
  });
  const sim::SimTime hop = net.hop_latency(a, b, kQueryBytes);
  const sim::SimTime deadline = hop + hop + sim::SimTime::millis(500);
  watched_query(net, a, b, deadline);
  sim_.run();
  // The late delivery still runs, after the continuation it made due.
  EXPECT_EQ(log_, (Log{{'l', deadline},
                       {'m', deadline},
                       {'d', hop + sim::SimTime::seconds(10)}}));
}

TEST_F(OverlayNetworkTest, WatchedSendToReceiverDeadOnArrivalRunsContinuation) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{50});
  const sim::SimTime hop = net.hop_latency(a, b, kQueryBytes);
  const sim::SimTime deadline = hop + hop + sim::SimTime::millis(500);
  sim_.schedule_at(deadline, [this] { log_.emplace_back('e', sim_.now()); });
  watched_query(net, a, b, deadline);
  net.set_alive(b, false);  // crash while in flight
  sim_.run();
  // Scheduled only once the drop is seen, yet ordered between the event
  // scheduled before the send and the one scheduled after it.
  EXPECT_EQ(log_, (Log{{'e', deadline}, {'l', deadline}, {'m', deadline}}));
  EXPECT_EQ(net.stats().reason_drops(DropReason::kDeadReceiver), 1u);
}

TEST_F(OverlayNetworkTest, WatchedContinuationKeepsTheSendersTagAndFootprint) {
  // The delivery is stamped with the endpoints' footprint; the continuation
  // must carry what was current at the send, as a timer set there would.
  struct Recorder final : sim::TieBreakPolicy {
    std::vector<sim::CoEnabledEvent> fired;
    std::size_t choose(const sim::CoEnabledEvent* events,
                       std::size_t) override {
      fired.push_back(events[0]);
      return 0;
    }
  };
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{50});
  Recorder rec;
  sim_.set_tie_break_policy(&rec);
  {
    const sim::ComponentScope scope{sim_, sim::Component::kRing};
    net.send_watched(a, b, TrafficClass::kQuery, kQueryBytes, {}, [] {},
                     sim::SimTime::seconds(2), [] {});
  }
  net.set_alive(b, false);
  sim_.run();
  ASSERT_EQ(rec.fired.size(), 2u);
  EXPECT_FALSE(rec.fired[0].fp.wildcard) << "the delivery";
  EXPECT_EQ(rec.fired[1].when, sim::SimTime::seconds(2));
  EXPECT_EQ(rec.fired[1].comp, sim::Component::kRing);
  EXPECT_TRUE(rec.fired[1].fp.wildcard);
}

TEST_F(OverlayNetworkTest, WatchedSendWithoutContinuationIsAPlainSend) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{50});
  net.set_alive(b, false);
  bool delivered = false;
  net.send_watched(a, b, TrafficClass::kQuery, kQueryBytes, {},
                   [&] { delivered = true; }, sim::SimTime::seconds(1), {});
  sim_.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(sim_.stats().events_scheduled, 1u);
}

}  // namespace
}  // namespace hp2p::proto
