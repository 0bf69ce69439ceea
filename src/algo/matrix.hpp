// Row-major matrix container used by the FFT and transpose code.
//
// The distributed 2D-FFT works on row-block partitions: each node owns an
// M x N slab of an N x N matrix (M = N / P).  Matrix<T> is that slab — a
// minimal owning container with bounds-checked element access in debug
// builds and views cheap enough to pass around the simulator.
//
// The transposes here and in transpose.hpp walk kTransposeTile-square
// tiles, so the strided side of each copy stays cache-resident; they only
// move elements, so the result is the same as the naive loop's.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace acc::algo {

template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  T& at(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const T& at(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  T* row(std::size_t r) {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }
  const T* row(std::size_t r) const {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }

  std::vector<T>& storage() { return data_; }
  const std::vector<T>& storage() const { return data_; }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

/// Out-of-place transpose (works for any shape).
template <typename T>
Matrix<T> transposed(const Matrix<T>& m) {
  Matrix<T> out(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const T* src = m.row(r);
    for (std::size_t c = 0; c < m.cols(); ++c) {
      out.at(c, r) = src[c];
    }
  }
  return out;
}

/// Edge of the square tiles the transposes walk: a 16 x 16 tile of
/// complex<double> is 4 KiB, so a tile and its mirror stay in L1 while
/// the strided side is read.
inline constexpr std::size_t kTransposeTile = 16;

/// In-place transpose of a square matrix, tile by tile: each tile above
/// the diagonal is swapped with its mirror below it.
template <typename T>
void transpose_square_inplace(Matrix<T>& m) {
  assert(m.rows() == m.cols());
  const std::size_t n = m.rows();
  T* a = m.storage().data();
  for (std::size_t rb = 0; rb < n; rb += kTransposeTile) {
    const std::size_t r_end = std::min(rb + kTransposeTile, n);
    for (std::size_t cb = rb; cb < n; cb += kTransposeTile) {
      const std::size_t c_end = std::min(cb + kTransposeTile, n);
      for (std::size_t r = rb; r < r_end; ++r) {
        for (std::size_t c = std::max(cb, r + 1); c < c_end; ++c) {
          std::swap(a[r * n + c], a[c * n + r]);
        }
      }
    }
  }
}

}  // namespace acc::algo
