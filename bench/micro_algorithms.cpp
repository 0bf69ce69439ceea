// Google-benchmark microbenchmarks of the real algorithm kernels,
// including the paper's Section 3.2 claim that Count Sort beats
// quicksort ("as much as 2.5x faster").
#include <benchmark/benchmark.h>

#include "algo/fft.hpp"
#include "algo/sort.hpp"
#include "algo/transpose.hpp"
#include "common/rng.hpp"

namespace {

using namespace acc;

void BM_CountSort(benchmark::State& state) {
  const auto keys =
      algo::uniform_keys(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto copy = keys;
    algo::count_sort(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CountSort)->Range(1 << 12, 1 << 20);

void BM_Quicksort(benchmark::State& state) {
  const auto keys =
      algo::uniform_keys(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto copy = keys;
    algo::quicksort(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Quicksort)->Range(1 << 12, 1 << 20);

void BM_StdSort(benchmark::State& state) {
  const auto keys =
      algo::uniform_keys(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto copy = keys;
    std::sort(copy.begin(), copy.end());
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StdSort)->Range(1 << 12, 1 << 20);

void BM_CacheAwareSort(benchmark::State& state) {
  const auto keys = algo::uniform_keys(1 << 20, 1);
  for (auto _ : state) {
    auto copy = keys;
    algo::cache_aware_sort(copy, static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_CacheAwareSort)->Arg(1)->Arg(16)->Arg(128)->Arg(256)->Arg(1024);

void BM_BucketPartition(benchmark::State& state) {
  const auto keys = algo::uniform_keys(1 << 20, 1);
  for (auto _ : state) {
    auto buckets = algo::bucket_sort_partition(
        keys, static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(buckets.data());
  }
}
BENCHMARK(BM_BucketPartition)->Arg(8)->Arg(16)->Arg(256);

void BM_Fft1D(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  algo::FftPlan plan(n, algo::FftPlan::Direction::kForward);
  Rng rng(3);
  std::vector<algo::Complex> signal(n);
  for (auto& x : signal) x = algo::Complex(rng.uniform(-1, 1), 0.0);
  for (auto _ : state) {
    auto copy = signal;
    plan.execute(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Fft1D)->Arg(256)->Arg(512)->Arg(2048)->Arg(4096);

void BM_Fft2D(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  algo::Matrix<algo::Complex> m(n, n);
  for (auto& x : m.storage()) x = algo::Complex(rng.uniform(-1, 1), 0.0);
  for (auto _ : state) {
    auto copy = m;
    algo::fft2d_inplace(copy);
    benchmark::DoNotOptimize(copy.storage().data());
  }
}
BENCHMARK(BM_Fft2D)->Arg(256)->Arg(512);

void BM_LocalTransposeBlocks(benchmark::State& state) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 512, m = n / p;
  algo::Matrix<algo::Complex> slab(m, n, algo::Complex(1.0, 2.0));
  for (auto _ : state) {
    algo::local_transpose_blocks(slab);
    benchmark::DoNotOptimize(slab.storage().data());
  }
}
BENCHMARK(BM_LocalTransposeBlocks)->Arg(1)->Arg(4)->Arg(16);

// What one transpose round does per node on the data side: every M x M
// block of the slab extracted transposed, in one pass.
void BM_ExtractBlockTransposed(benchmark::State& state) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 512, m = n / p;
  algo::Matrix<algo::Complex> slab(m, n, algo::Complex(1.0, 2.0));
  for (auto _ : state) {
    for (std::size_t q = 0; q < p; ++q) {
      auto block = algo::extract_block_transposed(slab, q);
      benchmark::DoNotOptimize(block.storage().data());
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ExtractBlockTransposed)->Arg(1)->Arg(4)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
