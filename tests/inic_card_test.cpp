// INIC device-model tests: streaming rates, credit flow control without
// loss, in-stream transforms, threshold-batched host delivery, and the
// prototype's shared-bus penalty.
#include "inic/card.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hw/node.hpp"
#include "net/network.hpp"
#include "sim/process.hpp"
#include "one_lp_fabric.hpp"

namespace acc::inic {
namespace {

struct InicCluster {
  explicit InicCluster(std::size_t n, InicConfig cfg = InicConfig::ideal(),
                       net::NetworkConfig net_cfg = {})
      : substrate(n, net_cfg) {
    cfg = cfg.tuned_for(n, net_cfg.port_buffer);
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<hw::Node>(eng, static_cast<int>(i)));
      cards.push_back(std::make_unique<InicCard>(*nodes[i], network, cfg));
    }
  }

  test::OneLpFabric substrate;
  sim::Engine& eng = substrate.eng;
  net::Fabric& network = substrate.net;
  std::vector<std::unique_ptr<hw::Node>> nodes;
  std::vector<std::unique_ptr<InicCard>> cards;
};

sim::Process recv_n(InicCard& card, std::size_t n,
                    std::vector<proto::Message>& out) {
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(co_await card.card_inbox().recv());
  }
}

TEST(Inic, DeliversStreamWithPayload) {
  InicCluster cluster(2);
  std::vector<proto::Message> received;
  sim::ProcessGroup group(cluster.eng);
  group.spawn([](InicCard& c) -> sim::Process {
    std::vector<int> data(3);
    data[0] = 7;
    data[1] = 8;
    data[2] = 9;
    co_await c.send_stream(1, Bytes::kib(128), 5, std::move(data));
  }(*cluster.cards[0]));
  group.spawn(recv_n(*cluster.cards[1], 1, received));
  group.join();

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].src, 0);
  EXPECT_EQ(received[0].tag, 5u);
  EXPECT_EQ(received[0].size, Bytes::kib(128));
  EXPECT_EQ(std::any_cast<std::vector<int>>(received[0].payload),
            (std::vector<int>{7, 8, 9}));
  EXPECT_EQ(cluster.network.frames_dropped(), 0u);
}

TEST(Inic, StreamRateApproachesHostDmaLimit) {
  // The pipeline is host-DMA limited (80 < 90 MB/s); a large stream's
  // end-to-end goodput should be within ~15% of 80 MiB/s.
  InicCluster cluster(2);
  std::vector<proto::Message> received;
  sim::ProcessGroup group(cluster.eng);
  group.spawn([](InicCard& c) -> sim::Process {
    co_await c.send_stream(1, Bytes::mib(8), 0, std::any{});
  }(*cluster.cards[0]));
  group.spawn(recv_n(*cluster.cards[1], 1, received));
  group.join();

  const Time dt = received[0].delivered_at - received[0].sent_at;
  const double rate = 8.0 * 1024 * 1024 / dt.as_seconds();
  EXPECT_GT(rate, 0.85 * 80 * 1024 * 1024);
  EXPECT_LT(rate, 90 * 1024 * 1024);
}

TEST(Inic, NoInterruptsReachTheHostCpu) {
  InicCluster cluster(2);
  std::vector<proto::Message> received;
  sim::ProcessGroup group(cluster.eng);
  group.spawn([](InicCard& c) -> sim::Process {
    co_await c.send_stream(1, Bytes::mib(1), 0, std::any{});
  }(*cluster.cards[0]));
  group.spawn(recv_n(*cluster.cards[1], 1, received));
  group.join();

  // The whole exchange happened without a single host interrupt or any
  // per-packet protocol work — the paper's headline mechanism.
  for (const auto& node : cluster.nodes) {
    EXPECT_EQ(node->cpu().interrupts_serviced(), 0u);
    EXPECT_EQ(node->cpu().total_protocol_time(), Time::zero());
  }
}

TEST(Inic, SendTransformAppliesToStream) {
  InicCluster cluster(2);
  cluster.cards[0]->set_send_transform([](std::any in) -> std::any {
    auto v = std::any_cast<std::vector<int>>(std::move(in));
    for (auto& x : v) x *= 10;
    return v;
  });
  cluster.cards[1]->set_recv_transform([](std::any in) -> std::any {
    auto v = std::any_cast<std::vector<int>>(std::move(in));
    for (auto& x : v) x += 1;
    return v;
  });

  std::vector<proto::Message> received;
  sim::ProcessGroup group(cluster.eng);
  group.spawn([](InicCard& c) -> sim::Process {
    std::vector<int> data(2);
    data[0] = 1;
    data[1] = 2;
    co_await c.send_stream(1, Bytes::kib(4), 0, std::move(data));
  }(*cluster.cards[0]));
  group.spawn(recv_n(*cluster.cards[1], 1, received));
  group.join();

  EXPECT_EQ(std::any_cast<std::vector<int>>(received[0].payload),
            (std::vector<int>{11, 21}));
}

TEST(Inic, CreditsPreventLossInAllToAll) {
  constexpr int kNodes = 8;
  InicCluster cluster(kNodes);
  std::vector<std::vector<proto::Message>> received(kNodes);
  sim::ProcessGroup group(cluster.eng);
  for (int src = 0; src < kNodes; ++src) {
    group.spawn([](InicCard& c, int me) -> sim::Process {
      for (int dst = 0; dst < kNodes; ++dst) {
        if (dst == me) continue;
        co_await c.send_stream(dst, Bytes::kib(256),
                               static_cast<std::uint64_t>(me), std::any{});
      }
    }(*cluster.cards[src], src));
    group.spawn(recv_n(*cluster.cards[src], kNodes - 1, received[src]));
  }
  group.join();

  EXPECT_EQ(cluster.network.frames_dropped(), 0u);
  for (int n = 0; n < kNodes; ++n) {
    EXPECT_EQ(received[n].size(), static_cast<std::size_t>(kNodes - 1));
  }
  // The no-loss property came from the credit window staying inside the
  // port buffer.
  EXPECT_LE(cluster.network.peak_buffer_occupancy().count(),
            net::NetworkConfig{}.port_buffer.count());
  EXPECT_GT(cluster.cards[0]->credits_received(), 0u);
}

TEST(Inic, PrototypeSharedBusHalvesStreamRate) {
  auto run = [](InicConfig cfg) {
    InicCluster cluster(2, cfg);
    std::vector<proto::Message> received;
    sim::ProcessGroup group(cluster.eng);
    group.spawn([](InicCard& c) -> sim::Process {
      co_await c.send_stream(1, Bytes::mib(4), 0, std::any{});
    }(*cluster.cards[0]));
    group.spawn(recv_n(*cluster.cards[1], 1, received));
    group.join();
    const Time dt = received[0].delivered_at - received[0].sent_at;
    return 4.0 * 1024 * 1024 / dt.as_seconds() / (1024 * 1024);  // MiB/s
  };
  const double ideal = run(InicConfig::ideal());
  const double proto = run(InicConfig::prototype_aceii());
  // The shared 132 MB/s bus carries each byte twice per card, so the
  // prototype must stream markedly slower than the ideal card.
  EXPECT_LT(proto, 0.82 * ideal);
  EXPECT_GT(proto, 0.35 * ideal);
}

TEST(Inic, BulkDmaToHostTakesHostDmaTime) {
  InicCluster cluster(2);
  Time done = Time::zero();
  sim::ProcessGroup group(cluster.eng);
  group.spawn([](InicCard& c, sim::Engine& e, Time& out) -> sim::Process {
    co_await c.dma_to_host(Bytes::mib(8));
    out = e.now();
  }(*cluster.cards[0], cluster.eng, done));
  group.join();
  const double expected = 8.0 / 80.0;  // seconds at 80 MiB/s
  EXPECT_NEAR(done.as_seconds(), expected, 0.01 * expected);
  EXPECT_EQ(cluster.cards[0]->bytes_to_host(), Bytes::mib(8));
}

TEST(Inic, ThresholdBatchingDelaysFirstDelivery) {
  // Equation 15: with N buckets, N x 64 KB must accumulate before any
  // one bucket is guaranteed to cross the DMA threshold.  Feed buckets
  // round-robin and check nothing is delivered until a bucket fills.
  InicCluster cluster(2);
  auto& card = *cluster.cards[0];
  const Bytes chunk = Bytes::kib(16);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t b = 0; b < 4; ++b) card.accumulate_for_host(b, chunk);
  }
  // 3 rounds x 16 KiB = 48 KiB per bucket: still under the 64 KiB
  // threshold, so nothing has been booked.
  EXPECT_EQ(card.bytes_to_host(), Bytes::zero());
  for (std::size_t b = 0; b < 4; ++b) card.accumulate_for_host(b, chunk);
  // Now every bucket crossed 64 KiB.
  EXPECT_EQ(card.bytes_to_host(), Bytes::kib(64) * 4);

  // flush_to_host picks up the remainders.
  card.accumulate_for_host(0, Bytes::kib(10));
  sim::ProcessGroup group(cluster.eng);
  group.spawn([](InicCard& c) -> sim::Process {
    co_await c.flush_to_host();
  }(card));
  group.join();
  EXPECT_EQ(card.bytes_to_host(), Bytes::kib(64) * 4 + Bytes::kib(10));
}

TEST(Inic, RejectsSendToSelf) {
  // Processes are lazy: the failure surfaces when the process runs.
  InicCluster cluster(2);
  sim::ProcessGroup group(cluster.eng);
  group.spawn(cluster.cards[0]->send_stream(0, Bytes::kib(1), 0, {}));
  EXPECT_THROW(group.join(), std::invalid_argument);
}

TEST(Inic, TunedConfigShrinksBurstForLargeClusters) {
  const InicConfig base = InicConfig::ideal();
  const InicConfig p2 = base.tuned_for(2, Bytes::kib(512));
  const InicConfig p16 = base.tuned_for(16, Bytes::kib(512));
  EXPECT_EQ(p2.burst, base.burst);
  EXPECT_LT(p16.burst.count(), base.burst.count());
  EXPECT_GE(p16.burst.count(), base.packet.count());
  // Worst case in flight still fits the buffer.
  EXPECT_LE(15u * p16.credit_bursts * p16.burst.count(),
            Bytes::kib(512).count());
}

}  // namespace
}  // namespace acc::inic
