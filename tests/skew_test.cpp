// Skewed key distributions and the sampling pre-sort remedy
// (Section 3.2's caveat about the uniform assumption).
#include <gtest/gtest.h>

#include <algorithm>

#include "algo/sort.hpp"
#include "apps/sort_app.hpp"

namespace acc {
namespace {

TEST(GaussianKeys, ConcentratesAroundTheMean) {
  const auto keys = algo::gaussian_keys(1 << 16, 3);
  // ~68% of keys within one sigma (2^29) of 2^31.
  const std::uint32_t lo = (1u << 31) - (1u << 29);
  const std::uint32_t hi = (1u << 31) + (1u << 29);
  std::size_t inside = 0;
  for (auto k : keys) {
    if (k >= lo && k < hi) ++inside;
  }
  const double frac = static_cast<double>(inside) / keys.size();
  EXPECT_NEAR(frac, 0.68, 0.03);
}

TEST(GaussianKeys, TopBitBucketsAreImbalanced) {
  const auto keys = algo::gaussian_keys(1 << 18, 5);
  const auto hist = algo::bucket_histogram(keys, 8);
  const auto mx = *std::max_element(hist.begin(), hist.end());
  const auto mn = *std::min_element(hist.begin(), hist.end());
  // The middle buckets hold many times the tail buckets.
  EXPECT_GT(mx, 8 * std::max<std::size_t>(mn, 1));
}

TEST(Splitters, BalanceGaussianLoad) {
  const auto keys = algo::gaussian_keys(1 << 18, 5);
  const auto splitters = algo::choose_splitters(keys, 8);
  ASSERT_EQ(splitters.size(), 7u);
  EXPECT_TRUE(std::is_sorted(splitters.begin(), splitters.end()));
  const auto buckets = algo::splitter_partition(keys, splitters);
  const double expected = static_cast<double>(keys.size()) / 8.0;
  for (const auto& b : buckets) {
    EXPECT_NEAR(static_cast<double>(b.size()), expected, 0.12 * expected);
  }
}

TEST(Splitters, BucketOrderIsValueOrder) {
  const auto keys = algo::uniform_keys(4096, 6);
  const auto splitters = algo::choose_splitters(keys, 4);
  const auto buckets = algo::splitter_partition(keys, splitters);
  for (std::size_t b = 0; b + 1 < buckets.size(); ++b) {
    if (buckets[b].empty() || buckets[b + 1].empty()) continue;
    EXPECT_LE(*std::max_element(buckets[b].begin(), buckets[b].end()),
              *std::min_element(buckets[b + 1].begin(), buckets[b + 1].end()));
  }
}

TEST(Splitters, SplitterBucketMatchesPartition) {
  const auto keys = algo::uniform_keys(1000, 8);
  const auto splitters = algo::choose_splitters(keys, 8);
  for (algo::Key k : keys) {
    const std::size_t b = algo::splitter_bucket(k, splitters);
    ASSERT_LT(b, 8u);
    if (b > 0) {
      EXPECT_GE(k, splitters[b - 1]);
    }
    if (b < 7) {
      EXPECT_LT(k, splitters[b]);
    }
  }
}

TEST(SkewedSort, GaussianSortVerifiesWithTopBits) {
  apps::SimCluster cluster(4, apps::Interconnect::kGigabitTcp);
  apps::SortRunOptions opts;
  opts.verify = true;
  opts.distribution = apps::KeyDistribution::kGaussian;
  const auto r = run_parallel_sort(cluster, 1 << 15, opts);
  EXPECT_TRUE(r.verified);
}

TEST(SkewedSort, GaussianSortVerifiesWithSplitters) {
  for (auto ic : {apps::Interconnect::kGigabitTcp,
                  apps::Interconnect::kInicIdeal}) {
    apps::SimCluster cluster(4, ic);
    apps::SortRunOptions opts;
    opts.verify = true;
    opts.distribution = apps::KeyDistribution::kGaussian;
    opts.sampling_splitters = true;
    const auto r = run_parallel_sort(cluster, 1 << 15, opts);
    EXPECT_TRUE(r.verified) << to_string(ic);
  }
}

TEST(SkewedSort, SamplingReducesSkewPenalty) {
  // Under a narrow Gaussian, top-bit bucketing sends nearly everything
  // to two nodes; the sampling pre-sort phase rebalances and the run
  // gets faster.  (Timing-only runs with real histograms.)
  auto run = [](bool sampling) {
    apps::SimCluster cluster(8, apps::Interconnect::kInicIdeal);
    apps::SortRunOptions opts;
    opts.verify = false;
    opts.distribution = apps::KeyDistribution::kGaussian;
    opts.gaussian_sigma = static_cast<double>(1u << 27);  // narrow
    opts.sampling_splitters = sampling;
    return run_parallel_sort(cluster, std::size_t{1} << 22, opts).total;
  };
  const Time skewed = run(false);
  const Time balanced = run(true);
  EXPECT_LT(balanced.as_seconds(), 0.75 * skewed.as_seconds());
}

TEST(SkewedSort, UniformKeysGainLittleFromSampling) {
  auto run = [](bool sampling) {
    apps::SimCluster cluster(8, apps::Interconnect::kInicIdeal);
    apps::SortRunOptions opts;
    opts.verify = false;
    opts.sampling_splitters = sampling;
    return run_parallel_sort(cluster, std::size_t{1} << 22, opts).total;
  };
  const Time plain = run(false);
  const Time sampled = run(true);
  // Within 15% either way: the paper's uniform assumption really does
  // make the pre-sort phase unnecessary.
  EXPECT_NEAR(sampled.as_seconds() / plain.as_seconds(), 1.0, 0.15);
}

}  // namespace
}  // namespace acc
