// Distributed-transpose decomposition: the local-transpose / all-to-all /
// interleave pipeline must compose to the true global transpose for any
// (N, P) with P | N — this is the invariant the INIC datapath relies on.
#include "algo/transpose.hpp"

#include <gtest/gtest.h>

#include "algo/matrix.hpp"

namespace acc::algo {
namespace {

using IntMatrix = Matrix<int>;

IntMatrix numbered(std::size_t rows, std::size_t cols, int base = 0) {
  IntMatrix m(rows, cols);
  int v = base;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m.at(r, c) = v++;
  }
  return m;
}

TEST(Matrix, TransposedSwapsIndices) {
  auto m = numbered(2, 3);
  auto t = transposed(m);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(t.at(c, r), m.at(r, c));
    }
  }
}

TEST(Matrix, SquareInplaceTransposeIsInvolution) {
  auto m = numbered(8, 8);
  auto original = m;
  transpose_square_inplace(m);
  EXPECT_NE(m, original);
  transpose_square_inplace(m);
  EXPECT_EQ(m, original);
}

TEST(Matrix, TiledSquareTransposeMatchesNaive) {
  // Sizes below, at and around the tile edge, so partial tiles on the
  // diagonal and off it are both covered.
  for (std::size_t n : {1, 3, 15, 16, 17, 33, 64}) {
    auto m = numbered(n, n);
    const auto original = m;
    transpose_square_inplace(m);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        ASSERT_EQ(m.at(r, c), original.at(c, r))
            << "n " << n << " at (" << r << ", " << c << ")";
      }
    }
  }
}

TEST(Blocks, ExtractBlockPullsCorrectColumns) {
  // Slab: 2 rows x 6 cols, M = 2, 3 blocks.
  auto slab = numbered(2, 6);
  auto b1 = extract_block(slab, 1);
  EXPECT_EQ(b1.at(0, 0), slab.at(0, 2));
  EXPECT_EQ(b1.at(0, 1), slab.at(0, 3));
  EXPECT_EQ(b1.at(1, 0), slab.at(1, 2));
  EXPECT_EQ(b1.at(1, 1), slab.at(1, 3));
}

TEST(Blocks, LocalTransposeTransposesEachBlockIndependently) {
  auto slab = numbered(2, 4);
  auto original = slab;
  local_transpose_blocks(slab);
  // Block 0.
  EXPECT_EQ(slab.at(0, 0), original.at(0, 0));
  EXPECT_EQ(slab.at(0, 1), original.at(1, 0));
  EXPECT_EQ(slab.at(1, 0), original.at(0, 1));
  // Block 1.
  EXPECT_EQ(slab.at(0, 2), original.at(0, 2));
  EXPECT_EQ(slab.at(0, 3), original.at(1, 2));
  EXPECT_EQ(slab.at(1, 2), original.at(0, 3));
}

TEST(Blocks, ExtractBlockTransposedEqualsLocalTransposeThenExtract) {
  const std::size_t p_count = 3;
  for (std::size_t m : {1, 3, 16, 17, 128}) {
    const auto slab = numbered(m, m * p_count);
    auto stepwise = slab;
    local_transpose_blocks(stepwise);
    for (std::size_t q = 0; q < p_count; ++q) {
      EXPECT_EQ(extract_block_transposed(slab, q), extract_block(stepwise, q))
          << "m " << m << " block " << q;
    }
  }
}

TEST(Blocks, InterleavePlacesBlockAtProcessorOffset) {
  IntMatrix slab(2, 6, -1);
  auto block = numbered(2, 2, 100);
  interleave_block(slab, block, 2);
  EXPECT_EQ(slab.at(0, 4), 100);
  EXPECT_EQ(slab.at(0, 5), 101);
  EXPECT_EQ(slab.at(1, 4), 102);
  EXPECT_EQ(slab.at(1, 5), 103);
  EXPECT_EQ(slab.at(0, 0), -1);  // untouched columns
}

struct TransposeCase {
  std::size_t n;
  std::size_t p;
};

class DistributedTranspose : public ::testing::TestWithParam<TransposeCase> {};

TEST_P(DistributedTranspose, PipelineEqualsGlobalTranspose) {
  const auto [n, p_count] = GetParam();
  const std::size_t m = n / p_count;
  ASSERT_EQ(m * p_count, n);

  // Build the row-block-distributed matrix.
  std::vector<IntMatrix> slabs;
  for (std::size_t p = 0; p < p_count; ++p) {
    slabs.push_back(numbered(m, n, static_cast<int>(p * m * n)));
  }
  const auto expected = distributed_transpose_reference(slabs);

  // Run the fused pipeline the way the cluster does: every processor
  // "sends" block q, transposed on extraction, to processor q, and every
  // receiver interleaves by sender rank.
  std::vector<IntMatrix> fused(p_count, IntMatrix(m, n));
  for (std::size_t sender = 0; sender < p_count; ++sender) {
    for (std::size_t receiver = 0; receiver < p_count; ++receiver) {
      interleave_block(fused[receiver],
                       extract_block_transposed(slabs[sender], receiver),
                       sender);
    }
  }

  // And the three steps one by one: local transpose of every block,
  // plain extraction, interleave.
  std::vector<IntMatrix> result(p_count, IntMatrix(m, n));
  for (auto& slab : slabs) local_transpose_blocks(slab);
  for (std::size_t sender = 0; sender < p_count; ++sender) {
    for (std::size_t receiver = 0; receiver < p_count; ++receiver) {
      auto block = extract_block(slabs[sender], receiver);
      interleave_block(result[receiver], block, sender);
    }
  }

  for (std::size_t p = 0; p < p_count; ++p) {
    EXPECT_EQ(result[p], expected[p]) << "processor " << p;
    EXPECT_EQ(fused[p], expected[p]) << "processor " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DistributedTranspose,
    ::testing::Values(TransposeCase{4, 1}, TransposeCase{4, 2},
                      TransposeCase{4, 4}, TransposeCase{8, 2},
                      TransposeCase{16, 4}, TransposeCase{32, 8},
                      TransposeCase{64, 16}, TransposeCase{12, 3}));

TEST(DistributedTransposeReference, DoubleTransposeIsIdentity) {
  const std::size_t n = 8, p_count = 4, m = n / p_count;
  std::vector<IntMatrix> slabs;
  for (std::size_t p = 0; p < p_count; ++p) {
    slabs.push_back(numbered(m, n, static_cast<int>(p * 100)));
  }
  auto once = distributed_transpose_reference(slabs);
  auto twice = distributed_transpose_reference(once);
  for (std::size_t p = 0; p < p_count; ++p) {
    EXPECT_EQ(twice[p], slabs[p]);
  }
}

}  // namespace
}  // namespace acc::algo
