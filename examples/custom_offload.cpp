// Custom offload: using the INIC device API directly to build a new
// in-stream application — the "Combined Compute/Protocol Accelerator"
// mode of Section 2, beyond the two applications the paper evaluates.
//
// Scenario: a distributed histogram/reduce.  Every node streams a block
// of samples to a collector node; the INIC's FPGA computes the per-block
// histogram *as the data flows through the card* ("processing data as it
// passes through the device at zero cost"), so the collector receives
// ready-made histograms instead of raw samples being post-processed on
// its host CPU.
//
//   $ ./custom_offload
#include <array>
#include <cstdio>
#include <vector>

#include "core/acc.hpp"

using namespace acc;

namespace {

constexpr int kCollector = 0;
constexpr std::size_t kNodes = 8;
constexpr std::size_t kSamplesPerNode = 1 << 18;
constexpr std::size_t kBins = 16;

using BinCounts = std::array<std::uint64_t, kBins>;

/// The FPGA kernel: samples in, histogram out, applied in-stream.
std::any histogram_kernel(std::any payload) {
  const auto samples = std::any_cast<std::vector<std::uint32_t>>(payload);
  BinCounts h{};
  for (std::uint32_t s : samples) {
    ++h[s >> 28];  // top 4 bits select one of 16 bins
  }
  return h;
}

sim::Process sender(apps::SimCluster& cluster, int me) {
  // Generate this node's samples and stream them through the card; the
  // send transform turns the raw stream into a histogram in flight.
  auto samples = algo::uniform_keys(kSamplesPerNode,
                                    static_cast<std::uint64_t>(me) + 1);
  inic::InicCard& card = cluster.card(static_cast<std::size_t>(me));
  card.set_send_transform(histogram_kernel);
  co_await card.send_stream(kCollector,
                            Bytes(kSamplesPerNode * sizeof(std::uint32_t)),
                            static_cast<std::uint64_t>(me),
                            std::move(samples));
}

sim::Process collector(apps::SimCluster& cluster, BinCounts& total,
                       Time& finished) {
  inic::InicCard& card = cluster.card(kCollector);
  for (std::size_t i = 0; i + 1 < kNodes; ++i) {
    proto::Message msg = co_await card.card_inbox().recv();
    const auto h = std::any_cast<BinCounts>(msg.payload);
    for (std::size_t b = 0; b < kBins; ++b) total[b] += h[b];
  }
  // Only the tiny histograms cross to the host, not the raw samples.
  co_await card.dma_to_host(Bytes(kBins * sizeof(std::uint64_t) * (kNodes - 1)));
  finished = cluster.engine().now();
}

}  // namespace

int main() {
  apps::SimCluster cluster(kNodes, apps::Interconnect::kInicIdeal);

  BinCounts total{};
  Time finished = Time::zero();
  sim::ProcessGroup group(*cluster.parallel());
  for (int node = 1; node < static_cast<int>(kNodes); ++node) {
    group.spawn(sender(cluster, node));
  }
  group.spawn(collector(cluster, total, finished));
  group.join();

  // The collector node also contributes locally (no network needed).
  {
    auto samples = algo::uniform_keys(kSamplesPerNode, 1000);
    const auto h =
        std::any_cast<BinCounts>(histogram_kernel(std::move(samples)));
    for (std::size_t b = 0; b < kBins; ++b) total[b] += h[b];
  }

  std::uint64_t count = 0;
  for (std::uint64_t c : total) count += c;
  std::printf("distributed histogram over %zu nodes x %zu samples "
              "(done at %.2f ms simulated):\n",
              kNodes, kSamplesPerNode, finished.as_millis());
  for (std::size_t b = 0; b < kBins; ++b) {
    std::printf("  bin %2zu: %8llu\n", b,
                static_cast<unsigned long long>(total[b]));
  }
  std::printf("total samples binned: %llu (expected %llu)\n",
              static_cast<unsigned long long>(count),
              static_cast<unsigned long long>(kNodes * kSamplesPerNode));
  std::printf("host CPU interrupts during the whole run: %llu\n",
              static_cast<unsigned long long>(
                  cluster.node(kCollector).cpu().interrupts_serviced()));
  return count == kNodes * kSamplesPerNode ? 0 : 1;
}
