// Network-substrate tests: switch forwarding and latency, egress
// serialization and contention, drop-tail loss, NIC transmit/receive
// paths and their interaction with interrupt coalescing.
#include "net/network.hpp"
#include "net/nic.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hw/node.hpp"
#include "one_lp_fabric.hpp"
#include "sim/process.hpp"

namespace acc::net {
namespace {

/// Records every delivered frame with its arrival time.
class RecordingEndpoint : public Endpoint {
 public:
  explicit RecordingEndpoint(sim::Engine& eng) : eng_(eng) {}
  void deliver(const Frame& frame) override {
    frames.push_back(frame);
    times.push_back(eng_.now());
  }
  std::vector<Frame> frames;
  std::vector<Time> times;

 private:
  sim::Engine& eng_;
};

Frame make_frame(int src, int dst, Bytes payload, std::size_t packets = 1) {
  Frame f;
  f.src = src;
  f.dst = dst;
  f.payload = payload;
  f.wire = payload + Bytes(38 * packets);
  f.packet_count = packets;
  return f;
}

TEST(Network, DeliversFrameWithLatencyAndSerialization) {
  NetworkConfig cfg;
  cfg.line_rate = Bandwidth::gbit_per_sec(1.0);
  cfg.link_latency = Time::micros(1);
  cfg.switch_latency = Time::micros(4);
  test::OneLpFabric rig(2, cfg);
  sim::Engine& eng = rig.eng;
  Fabric& net = rig.net;
  RecordingEndpoint a(eng), b(eng);
  net.attach(0, a);
  net.attach(1, b);

  const Frame f = make_frame(0, 1, Bytes(12462), 1);  // 12.5 KB wire
  net.inject(f);
  eng.run();

  ASSERT_EQ(b.frames.size(), 1u);
  // ingress link (1us) + switch (4us) + serialization (12500B @ 125MB/s
  // = 100us) + egress link (1us) = 106us.
  EXPECT_EQ(b.times[0], Time::micros(106));
  EXPECT_EQ(net.frames_forwarded(), 1u);
  EXPECT_EQ(net.frames_dropped(), 0u);
}

TEST(Network, EgressPortSerializesCompetingSenders) {
  test::OneLpFabric rig(3);
  sim::Engine& eng = rig.eng;
  Fabric& net = rig.net;
  RecordingEndpoint sink(eng), other(eng), third(eng);
  net.attach(0, sink);
  net.attach(1, other);
  net.attach(2, third);

  // Two simultaneous senders to port 0: second frame queues behind first.
  net.inject(make_frame(1, 0, Bytes(125000), 86));
  net.inject(make_frame(2, 0, Bytes(125000), 86));
  eng.run();

  ASSERT_EQ(sink.frames.size(), 2u);
  const Time gap = sink.times[1] - sink.times[0];
  // The gap is one full serialization of the second frame's wire size.
  const Time serialization =
      transfer_time(sink.frames[1].wire, Bandwidth::gbit_per_sec(1.0));
  EXPECT_EQ(gap, serialization);
}

TEST(Network, DropsWhenOutputBufferOverflows) {
  NetworkConfig cfg;
  cfg.port_buffer = Bytes::kib(64);
  test::OneLpFabric rig(3, cfg);
  sim::Engine& eng = rig.eng;
  Fabric& net = rig.net;
  RecordingEndpoint sink(eng), other(eng), third(eng);
  net.attach(0, sink);
  net.attach(1, other);
  net.attach(2, third);

  // Three 40 KiB bursts at the same instant: only the first fits the
  // 64 KiB output buffer; the other two arrive while it is still
  // serializing and are tail-dropped.
  for (int src : {1, 2, 1}) {
    net.inject(make_frame(src, 0, Bytes::kib(40), 28));
  }
  eng.run();
  EXPECT_EQ(net.frames_dropped(), 2u);
  EXPECT_EQ(sink.frames.size(), 1u);
  EXPECT_GT(net.peak_buffer_occupancy().count(), 0u);
}

TEST(Network, ThroughputMatchesLineRate) {
  NetworkConfig cfg;
  cfg.line_rate = Bandwidth::mbit_per_sec(100.0);  // Fast Ethernet
  cfg.port_buffer = Bytes::mib(4);  // hold the whole train; we measure rate
  test::OneLpFabric rig(2, cfg);
  sim::Engine& eng = rig.eng;
  Fabric& net = rig.net;
  RecordingEndpoint a(eng), b(eng);
  net.attach(0, a);
  net.attach(1, b);

  // 10 frames x 125 KB = 1.25 MB at 12.5 MB/s -> 100 ms of serialization.
  for (int i = 0; i < 10; ++i) {
    net.inject(make_frame(0, 1, Bytes(125000), 86));
  }
  eng.run();
  ASSERT_EQ(b.frames.size(), 10u);
  const double seconds = b.times.back().as_seconds();
  const double bytes = 10.0 * b.frames[0].wire.count();
  EXPECT_NEAR(bytes / seconds, 12.5e6, 0.03 * 12.5e6);
}

TEST(Network, RejectsUnattachedDestination) {
  test::OneLpFabric rig(2);
  sim::Engine& eng = rig.eng;
  Fabric& net = rig.net;
  RecordingEndpoint a(eng);
  net.attach(0, a);
  EXPECT_THROW(net.inject(make_frame(0, 1, Bytes(100))), std::logic_error);
}

struct NicRig {
  NicRig(NicConfig nic_cfg = {}, NetworkConfig net_cfg = {})
      : substrate(2, net_cfg) {
    node_a = std::make_unique<hw::Node>(eng, 0);
    node_b = std::make_unique<hw::Node>(eng, 1);
    nic_a = std::make_unique<StandardNic>(*node_a, network, nic_cfg);
    nic_b = std::make_unique<StandardNic>(*node_b, network, nic_cfg);
  }
  test::OneLpFabric substrate;
  sim::Engine& eng = substrate.eng;
  Fabric& network = substrate.net;
  std::unique_ptr<hw::Node> node_a, node_b;
  std::unique_ptr<StandardNic> nic_a, nic_b;
};

TEST(Nic, TransmitReachesPeerRxHandler) {
  NicRig rig;
  std::vector<Frame> got;
  rig.nic_b->set_rx_handler([&](const Frame& f) { got.push_back(f); });

  sim::ProcessGroup group(rig.eng);
  group.spawn([](StandardNic& nic) -> sim::Process {
    Frame f;
    f.src = 0;
    f.dst = 1;
    f.payload = Bytes::kib(32);
    f.wire = Bytes::kib(32) + Bytes(38 * 23);
    f.packet_count = 23;
    f.seq = 99;
    co_await nic.transmit(f);
  }(*rig.nic_a));
  group.join();
  rig.eng.run();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].seq, 99u);
  EXPECT_EQ(rig.nic_a->frames_sent(), 1u);
  EXPECT_EQ(rig.nic_b->frames_received(), 1u);
  EXPECT_GT(rig.nic_b->interrupts_fired(), 0u);
}

TEST(Nic, ReceiveChargesPerPacketCpuWork) {
  NicConfig cfg;
  cfg.per_packet_host_cost = Time::micros(10);
  NicRig rig(cfg);
  rig.nic_b->set_rx_handler([](const Frame&) {});

  sim::ProcessGroup group(rig.eng);
  group.spawn([](StandardNic& nic) -> sim::Process {
    Frame f;
    f.src = 0;
    f.dst = 1;
    f.payload = Bytes::kib(16);
    f.wire = Bytes::kib(16) + Bytes(38 * 12);
    f.packet_count = 12;
    co_await nic.transmit(f);
  }(*rig.nic_a));
  group.join();
  rig.eng.run();

  EXPECT_EQ(rig.node_b->cpu().total_protocol_time(), Time::micros(120));
}

TEST(Nic, LoneFrameWaitsForCoalescingTimeout) {
  NicConfig lazy;
  lazy.interrupts.max_frames = 64;
  lazy.interrupts.timeout = Time::micros(300);
  NicRig rig(lazy);
  std::vector<Time> arrival;
  rig.nic_b->set_rx_handler(
      [&](const Frame&) { arrival.push_back(rig.eng.now()); });

  sim::ProcessGroup group(rig.eng);
  group.spawn([](StandardNic& nic) -> sim::Process {
    Frame f;
    f.src = 0;
    f.dst = 1;
    f.payload = Bytes(1000);
    f.wire = Bytes(1038);
    f.packet_count = 1;
    co_await nic.transmit(f);
  }(*rig.nic_a));
  group.join();
  rig.eng.run();

  ASSERT_EQ(arrival.size(), 1u);
  // Wire time is ~14us; the 300us coalescing timeout dominates delivery.
  EXPECT_GT(arrival[0], Time::micros(300));
}

TEST(Nic, BackToBackTransmitsRespectLineRate) {
  NicRig rig;
  std::vector<Time> arrival;
  rig.nic_b->set_rx_handler(
      [&](const Frame&) { arrival.push_back(rig.eng.now()); });

  sim::ProcessGroup group(rig.eng);
  group.spawn([](StandardNic& nic) -> sim::Process {
    for (int i = 0; i < 4; ++i) {
      Frame f;
      f.src = 0;
      f.dst = 1;
      f.payload = Bytes::kib(64);
      f.wire = Bytes::kib(64) + Bytes(38 * 45);
      f.packet_count = 45;
      co_await nic.transmit(f);
    }
  }(*rig.nic_a));
  group.join();
  rig.eng.run();

  ASSERT_EQ(arrival.size(), 4u);
  // Arrivals are spaced by at least one burst serialization at GigE rate.
  const Time spacing =
      transfer_time(Bytes::kib(64), Bandwidth::gbit_per_sec(1.0));
  for (std::size_t i = 1; i < arrival.size(); ++i) {
    EXPECT_GE(arrival[i] - arrival[i - 1], spacing * 0.9);
  }
}

}  // namespace
}  // namespace acc::net
