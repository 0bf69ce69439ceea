// Compute-accelerator mode (Section 2): kernel offload timing, the
// separate-host-path claim on the ideal card, and the prototype's
// shared-bus contention between offload and network traffic.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hw/node.hpp"
#include "inic/card.hpp"
#include "net/network.hpp"
#include "sim/process.hpp"

namespace acc::inic {
namespace {

struct Rig {
  explicit Rig(InicConfig cfg) {
    network = std::make_unique<net::Fabric>(eng, 2);
    node_a = std::make_unique<hw::Node>(eng, 0);
    node_b = std::make_unique<hw::Node>(eng, 1);
    card_a = std::make_unique<InicCard>(*node_a, *network, cfg);
    card_b = std::make_unique<InicCard>(*node_b, *network, cfg);
  }
  sim::Engine eng;
  std::unique_ptr<net::Fabric> network;
  std::unique_ptr<hw::Node> node_a, node_b;
  std::unique_ptr<InicCard> card_a, card_b;
};

TEST(InicCompute, OffloadTimeIsMemoryPathBoundForFastKernels) {
  Rig rig(InicConfig::ideal());
  Time done = Time::zero();
  sim::ProcessGroup group(rig.eng);
  group.spawn([](InicCard& c, sim::Engine& e, Time& out) -> sim::Process {
    // Kernel much faster than the 80 MiB/s host path: round trip is
    // 2 x data / 80 MiB/s.
    co_await c.compute_offload(Bytes::mib(8),
                               Bandwidth::mib_per_sec(1000.0));
    out = e.now();
  }(*rig.card_a, rig.eng, done));
  group.join();
  const double expected = 2.0 * 8.0 / 80.0;
  EXPECT_NEAR(done.as_seconds(), expected, 0.05 * expected);
}

TEST(InicCompute, SlowKernelExtendsCriticalPath) {
  Rig rig(InicConfig::ideal());
  Time fast = Time::zero(), slow = Time::zero();
  sim::ProcessGroup group(rig.eng);
  group.spawn([](InicCard& c, sim::Engine& e, Time& f, Time& s) -> sim::Process {
    const Time t0 = e.now();
    co_await c.compute_offload(Bytes::mib(4), Bandwidth::mib_per_sec(500.0));
    f = e.now() - t0;
    const Time t1 = e.now();
    co_await c.compute_offload(Bytes::mib(4), Bandwidth::mib_per_sec(10.0));
    s = e.now() - t1;
  }(*rig.card_a, rig.eng, fast, slow));
  group.join();
  // 10 MiB/s kernel on 4 MiB -> >= 0.4 s; fast kernel ~0.1 s.
  EXPECT_GT(slow.as_seconds(), 3.0 * fast.as_seconds());
  EXPECT_GT(slow.as_seconds(), 0.39);
}

TEST(InicCompute, KernelTransformAppliesToPayload) {
  Rig rig(InicConfig::ideal());
  std::any payload = std::vector<int>(4, 2);
  sim::ProcessGroup group(rig.eng);
  group.spawn([](InicCard& c, std::any& p) -> sim::Process {
    co_await c.compute_offload(Bytes::kib(4), Bandwidth::mib_per_sec(500.0),
                               &p, [](std::any in) -> std::any {
                                 auto v = std::any_cast<std::vector<int>>(
                                     std::move(in));
                                 for (auto& x : v) x *= 3;
                                 return v;
                               });
  }(*rig.card_a, payload));
  group.join();
  EXPECT_EQ(std::any_cast<std::vector<int>>(payload),
            (std::vector<int>(4, 6)));
}

/// Streams 8 MiB card-to-card while a compute offload runs, and returns
/// the stream's delivery time.
Time stream_time_with_offload(InicConfig cfg, bool offload) {
  Rig rig(cfg);
  Time delivered = Time::zero();
  sim::ProcessGroup group(rig.eng);
  group.spawn([](InicCard& c) -> sim::Process {
    co_await c.send_stream(1, Bytes::mib(8), 0, std::any{});
  }(*rig.card_a));
  group.spawn([](InicCard& c, sim::Engine& e, Time& out) -> sim::Process {
    (void)co_await c.card_inbox().recv();
    out = e.now();
  }(*rig.card_b, rig.eng, delivered));
  if (offload) {
    group.spawn([](InicCard& c) -> sim::Process {
      for (int i = 0; i < 4; ++i) {
        co_await c.compute_offload(Bytes::mib(8),
                                   Bandwidth::mib_per_sec(1000.0));
      }
    }(*rig.card_a));
  }
  group.join();
  return delivered;
}

TEST(InicCompute, IdealCardOffloadDoesNotSlowNetworking) {
  // Section 2: "a separate path to host memory is configured to allow
  // normal network operations."
  const Time clean = stream_time_with_offload(InicConfig::ideal(), false);
  const Time busy = stream_time_with_offload(InicConfig::ideal(), true);
  EXPECT_NEAR(busy.as_seconds(), clean.as_seconds(),
              0.02 * clean.as_seconds());
}

TEST(InicCompute, PrototypeOffloadContendsOnTheSharedBus) {
  const Time clean =
      stream_time_with_offload(InicConfig::prototype_aceii(), false);
  const Time busy =
      stream_time_with_offload(InicConfig::prototype_aceii(), true);
  EXPECT_GT(busy.as_seconds(), 1.3 * clean.as_seconds());
}

}  // namespace
}  // namespace acc::inic
