// Distributed matrix transpose decomposition (Section 3.1.2).
//
// With a row-block distribution of an N x N matrix over P processors,
// each processor owns M = N/P rows.  The transpose decomposes into:
//   1. local transpose  — transpose each M x M block of the local slab,
//   2. all-to-all       — block (p -> q) travels to processor q,
//   3. final permutation — interleave received blocks into the new slab.
// On the standard cluster the host CPU does steps 1 and 3; on the ACC the
// INIC applies them to the data stream in flight (Figure 2b).  The same
// functions implement both, so the simulated INIC produces bit-identical
// results to the host path.
//
// Both paths fuse step 1 into the block extraction: extract_block_transposed
// reads block q of the untouched slab and writes it transposed in one tiled
// pass.  local_transpose_blocks + extract_block is the step-by-step
// definition it is tested against.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "algo/matrix.hpp"

namespace acc::algo {

/// Extracts block q (columns [q*M, (q+1)*M)) of a local M x N slab.
template <typename T>
Matrix<T> extract_block(const Matrix<T>& slab, std::size_t q) {
  const std::size_t m = slab.rows();
  Matrix<T> block(m, m);
  for (std::size_t r = 0; r < m; ++r) {
    const T* src = slab.row(r) + q * m;
    for (std::size_t c = 0; c < m; ++c) block.at(r, c) = src[c];
  }
  return block;
}

/// Step 1: transposes every M x M block of the slab in place.
template <typename T>
void local_transpose_blocks(Matrix<T>& slab) {
  const std::size_t m = slab.rows();
  assert(slab.cols() % m == 0);
  const std::size_t blocks = slab.cols() / m;
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = r + 1; c < m; ++c) {
        std::swap(slab.at(r, b * m + c), slab.at(c, b * m + r));
      }
    }
  }
}

/// Steps 1 and 2 fused: block q of `slab` transposed, i.e.
/// extract_block(slab, q) after local_transpose_blocks(slab), read in
/// kTransposeTile-square tiles without touching the slab.
template <typename T>
Matrix<T> extract_block_transposed(const Matrix<T>& slab, std::size_t q) {
  const std::size_t m = slab.rows();
  assert(slab.cols() >= (q + 1) * m);
  Matrix<T> block(m, m);
  for (std::size_t rb = 0; rb < m; rb += kTransposeTile) {
    const std::size_t r_end = std::min(rb + kTransposeTile, m);
    for (std::size_t cb = 0; cb < m; cb += kTransposeTile) {
      const std::size_t c_end = std::min(cb + kTransposeTile, m);
      for (std::size_t r = rb; r < r_end; ++r) {
        T* dst = block.row(r);
        for (std::size_t c = cb; c < c_end; ++c) {
          dst[c] = slab.at(c, q * m + r);
        }
      }
    }
  }
  return block;
}

/// Step 3: places a received (already locally-transposed) block from
/// processor p into columns [p*M, (p+1)*M) of the destination slab.
template <typename T>
void interleave_block(Matrix<T>& slab, const Matrix<T>& block, std::size_t p) {
  const std::size_t m = slab.rows();
  assert(block.rows() == m && block.cols() == m);
  for (std::size_t r = 0; r < m; ++r) {
    T* dst = slab.row(r) + p * m;
    const T* src = block.row(r);
    for (std::size_t c = 0; c < m; ++c) dst[c] = src[c];
  }
}

/// Reference: performs the whole distributed transpose on P slabs at once
/// (the serial oracle for the distributed implementations).
template <typename T>
std::vector<Matrix<T>> distributed_transpose_reference(
    const std::vector<Matrix<T>>& slabs) {
  const std::size_t p_count = slabs.size();
  assert(p_count > 0);
  const std::size_t m = slabs[0].rows();
  const std::size_t n = slabs[0].cols();
  assert(m * p_count == n);

  // Assemble the global matrix, transpose it, and re-slice.
  Matrix<T> global(n, n);
  for (std::size_t p = 0; p < p_count; ++p) {
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        global.at(p * m + r, c) = slabs[p].at(r, c);
      }
    }
  }
  transpose_square_inplace(global);
  std::vector<Matrix<T>> out(p_count, Matrix<T>(m, n));
  for (std::size_t p = 0; p < p_count; ++p) {
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        out[p].at(r, c) = global.at(p * m + r, c);
      }
    }
  }
  return out;
}

}  // namespace acc::algo
