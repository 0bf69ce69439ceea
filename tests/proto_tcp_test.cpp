// Integration tests of the TCP model over the simulated network: message
// delivery, payload integrity, slow-start dynamics, interrupt-coalescing
// latency, loss recovery, and multi-flow contention.
#include "proto/tcp.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "hw/node.hpp"
#include "net/network.hpp"
#include "net/nic.hpp"
#include "sim/process.hpp"
#include "one_lp_fabric.hpp"

namespace acc::proto {
namespace {

/// A small simulated cluster with TCP on every node.
struct TcpCluster {
  explicit TcpCluster(std::size_t n, net::NetworkConfig net_cfg = {},
                      net::NicConfig nic_cfg = {}, TcpConfig tcp_cfg = {})
      : substrate(n, net_cfg) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<hw::Node>(eng, static_cast<int>(i)));
      nics.push_back(
          std::make_unique<net::StandardNic>(*nodes[i], network, nic_cfg));
      stacks.push_back(
          std::make_unique<TcpStack>(*nodes[i], *nics[i], tcp_cfg));
    }
  }

  test::OneLpFabric substrate;
  sim::Engine& eng = substrate.eng;
  net::Fabric& network = substrate.net;
  std::vector<std::unique_ptr<hw::Node>> nodes;
  std::vector<std::unique_ptr<net::StandardNic>> nics;
  std::vector<std::unique_ptr<TcpStack>> stacks;
};

sim::Process send_one(TcpStack& stack, int dst, Bytes size,
                      std::uint64_t tag, std::any payload) {
  co_await stack.send_message(dst, size, tag, std::move(payload));
}

sim::Process recv_n(TcpStack& stack, std::size_t n,
                    std::vector<Message>& out) {
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(co_await stack.inbox().recv());
  }
}

TEST(Tcp, DeliversSingleMessageWithPayload) {
  TcpCluster cluster(2);
  std::vector<Message> received;
  sim::ProcessGroup group(cluster.eng);
  auto keys = std::vector<int>{1, 2, 3};
  group.spawn(send_one(*cluster.stacks[0], 1, Bytes::kib(4), 77, keys));
  group.spawn(recv_n(*cluster.stacks[1], 1, received));
  group.join();

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].src, 0);
  EXPECT_EQ(received[0].dst, 1);
  EXPECT_EQ(received[0].tag, 77u);
  EXPECT_EQ(received[0].size, Bytes::kib(4));
  EXPECT_GT(received[0].delivered_at, received[0].sent_at);
  auto payload = std::any_cast<std::vector<int>>(received[0].payload);
  EXPECT_EQ(payload, (std::vector<int>{1, 2, 3}));
}

TEST(Tcp, BackToBackMessagesArriveInOrder) {
  TcpCluster cluster(2);
  std::vector<Message> received;
  sim::ProcessGroup group(cluster.eng);
  group.spawn([](TcpStack& s) -> sim::Process {
    for (std::uint64_t m = 0; m < 5; ++m) {
      co_await s.send_message(1, Bytes::kib(2), m);
    }
  }(*cluster.stacks[0]));
  group.spawn(recv_n(*cluster.stacks[1], 5, received));
  group.join();

  ASSERT_EQ(received.size(), 5u);
  for (std::uint64_t m = 0; m < 5; ++m) {
    EXPECT_EQ(received[m].tag, m);
  }
  EXPECT_EQ(cluster.stacks[0]->retransmits(), 0u);
}

TEST(Tcp, SlowStartMakesShortTransfersExpensive) {
  // Two transfers over identical fresh connections: 8 KiB and 64 KiB.
  // With slow start the 64 KiB transfer must cost far less than 8x the
  // short one (windows grow across its extra round trips).
  auto run = [](Bytes size) {
    TcpCluster cluster(2);
    std::vector<Message> received;
    sim::ProcessGroup group(cluster.eng);
    group.spawn(send_one(*cluster.stacks[0], 1, size, 0, {}));
    group.spawn(recv_n(*cluster.stacks[1], 1, received));
    group.join();
    return received[0].delivered_at - received[0].sent_at;
  };
  const Time t_short = run(Bytes::kib(8));
  const Time t_long = run(Bytes::kib(64));
  EXPECT_LT(t_long.as_seconds(), 8.0 * t_short.as_seconds());
  // And the short transfer must be far from the wire-rate lower bound.
  const Time wire = transfer_time(Bytes::kib(8), Bandwidth::gbit_per_sec(1.0));
  EXPECT_GT(t_short.as_seconds(), 3.0 * wire.as_seconds());
}

TEST(Tcp, CoalescingTimeoutInflatesSmallMessageLatency) {
  // With aggressive coalescing (high frame threshold), a lone small
  // message waits for the timeout at each receive; latency tracks the
  // coalescing timeout, not the wire time.
  net::NicConfig lazy_nic;
  lazy_nic.interrupts.max_frames = 64;
  lazy_nic.interrupts.timeout = Time::micros(500);

  net::NicConfig eager_nic;
  eager_nic.interrupts.max_frames = 1;
  eager_nic.interrupts.timeout = Time::micros(1);

  auto run = [](net::NicConfig cfg) {
    TcpCluster cluster(2, {}, cfg);
    std::vector<Message> received;
    sim::ProcessGroup group(cluster.eng);
    group.spawn(send_one(*cluster.stacks[0], 1, Bytes(1024), 0, {}));
    group.spawn(recv_n(*cluster.stacks[1], 1, received));
    group.join();
    return received[0].delivered_at - received[0].sent_at;
  };

  const Time lazy = run(lazy_nic);
  const Time eager = run(eager_nic);
  EXPECT_GT(lazy.as_seconds(), eager.as_seconds() + 400e-6);
}

TEST(Tcp, RecoversFromSwitchBufferOverflow) {
  // A switch with pathologically small buffers forces drops; the transfer
  // must still complete, with retransmissions recorded.
  net::NetworkConfig tiny;
  tiny.port_buffer = Bytes(4096);
  TcpConfig tcp;
  tcp.min_rto = Time::millis(5);  // keep the test fast
  TcpCluster cluster(2, tiny, {}, tcp);

  std::vector<Message> received;
  sim::ProcessGroup group(cluster.eng);
  // Two senders into one destination port overflow its buffer.
  group.spawn(send_one(*cluster.stacks[0], 1, Bytes::kib(256), 0, {}));
  group.spawn(recv_n(*cluster.stacks[1], 1, received));
  group.join();

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].size, Bytes::kib(256));
  // 256 KiB bursts against a 4 KiB buffer must drop at least once.
  EXPECT_GT(cluster.network.frames_dropped(), 0u);
  EXPECT_GT(cluster.stacks[0]->retransmits(), 0u);
}

TEST(Tcp, AllToAllCompletesOnFourNodes) {
  constexpr int kNodes = 4;
  TcpCluster cluster(kNodes);
  std::vector<std::vector<Message>> received(kNodes);
  sim::ProcessGroup group(cluster.eng);
  for (int src = 0; src < kNodes; ++src) {
    group.spawn([](TcpStack& s, int me) -> sim::Process {
      for (int dst = 0; dst < kNodes; ++dst) {
        if (dst == me) continue;
        co_await s.send_message(dst, Bytes::kib(16),
                                static_cast<std::uint64_t>(me));
      }
    }(*cluster.stacks[src], src));
    group.spawn(recv_n(*cluster.stacks[src], kNodes - 1, received[src]));
  }
  group.join();

  for (int n = 0; n < kNodes; ++n) {
    ASSERT_EQ(received[n].size(), static_cast<std::size_t>(kNodes - 1));
    // Every node hears from every other node exactly once.
    std::vector<bool> seen(kNodes, false);
    for (const auto& m : received[n]) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(m.src)]);
      seen[static_cast<std::size_t>(m.src)] = true;
      EXPECT_EQ(m.dst, n);
    }
  }
}

TEST(Tcp, PerPacketCostLoadsHostCpu) {
  TcpCluster cluster(2);
  std::vector<Message> received;
  sim::ProcessGroup group(cluster.eng);
  group.spawn(send_one(*cluster.stacks[0], 1, Bytes::mib(1), 0, {}));
  group.spawn(recv_n(*cluster.stacks[1], 1, received));
  group.join();
  // ~1 MiB / 1460 B/packet ~ 718 packets at 4 us each ~ 2.9 ms of stack
  // time on the receiver.
  const Time stack_time = cluster.nodes[1]->cpu().total_protocol_time();
  EXPECT_GT(stack_time.as_millis(), 2.0);
  EXPECT_GT(cluster.nodes[1]->cpu().interrupts_serviced(), 0u);
}

TEST(Tcp, ThroughputImprovesWithTransferSize) {
  auto goodput = [](Bytes size) {
    TcpCluster cluster(2);
    std::vector<Message> received;
    sim::ProcessGroup group(cluster.eng);
    group.spawn(send_one(*cluster.stacks[0], 1, size, 0, {}));
    group.spawn(recv_n(*cluster.stacks[1], 1, received));
    group.join();
    const Time dt = received[0].delivered_at - received[0].sent_at;
    return static_cast<double>(size.count()) / dt.as_seconds();
  };
  const double small = goodput(Bytes::kib(4));
  const double large = goodput(Bytes::mib(4));
  EXPECT_GT(large, 4.0 * small);
  // Large transfers should reach a respectable fraction of GigE.
  EXPECT_GT(large, 30e6);
  EXPECT_LT(large, 125e6);
}

}  // namespace
}  // namespace acc::proto
