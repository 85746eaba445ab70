#include "la/sparse.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "la/backend.h"

namespace oftec::la {

void TripletBuilder::add(std::size_t r, std::size_t c, double v) {
  if (r >= n_ || c >= n_) {
    throw std::out_of_range("TripletBuilder::add: index out of range");
  }
  triplets_.push_back({r, c, v});
}

SparseMatrix TripletBuilder::build() const {
  if (n_ > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    throw std::length_error(
        "TripletBuilder::build: more than 2^31 - 1 rows for int32 offsets");
  }
  // Sort by (row, col), stably, so duplicates stay in insertion order and
  // each sum below runs in the order the caller added its terms: a counting
  // sort by row, then an insertion sort by column within each row. Both are
  // stable, so this is std::stable_sort's permutation. Each row is then
  // coalesced in place while it is in cache: sorted[0, m) ends up holding
  // each stored entry once, rows ascending and columns ascending within a
  // row, row r's entries at [row_end[r − 1], row_end[r]).
  struct Entry {
    std::size_t col;
    double value;
  };
  std::vector<std::size_t> row_start(n_ + 1, 0);
  for (const Triplet& t : triplets_) ++row_start[t.row + 1];
  std::partial_sum(row_start.begin(), row_start.end(), row_start.begin());
  std::vector<Entry> sorted(triplets_.size());
  {
    std::vector<std::size_t> next(row_start.begin(), row_start.end() - 1);
    for (const Triplet& t : triplets_) sorted[next[t.row]++] = {t.col, t.value};
  }

  constexpr std::size_t kC = SparseMatrix::kC;
  SparseMatrix a;
  a.n_ = n_;
  const std::size_t slices = (n_ + kC - 1) / kC;
  std::vector<std::size_t> row_end(slices * kC, 0);
  std::size_t m = 0;
  for (std::size_t r = 0; r < n_; ++r) {
    const auto first = sorted.begin() + std::ptrdiff_t(row_start[r]);
    const auto last = sorted.begin() + std::ptrdiff_t(row_start[r + 1]);
    for (auto it = first; it != last; ++it) {
      const Entry t = *it;
      auto hole = it;
      for (; hole != first && t.col < hole[-1].col; --hole) *hole = hole[-1];
      *hole = t;
    }
    for (auto it = first; it != last;) {
      const std::size_t c = it->col;
      double acc = 0.0;
      for (; it != last && it->col == c; ++it) acc += it->value;
      sorted[m++] = {c, acc};
    }
    row_end[r] = m;
  }
  std::fill(row_end.begin() + static_cast<std::ptrdiff_t>(n_), row_end.end(),
            m);
  a.nnz_ = m;

  // Each slice's slots: an 8-way merge of its rows' offsets c − r, which
  // ascend within a row. Each step opens one slot at the smallest pending
  // offset and moves every row pending at it into its lane.
  constexpr std::ptrdiff_t kDone = std::numeric_limits<std::ptrdiff_t>::max();
  a.slice_start_.resize(slices + 1);
  std::vector<std::size_t> slot_of(m);  // storage index of each entry
  for (std::size_t s = 0; s < slices; ++s) {
    a.slice_start_[s] = a.offset_.size();
    std::size_t cur[kC];
    std::ptrdiff_t pending[kC];
    const auto advance = [&](std::size_t l) {
      const std::size_t r = s * kC + l;
      pending[l] = cur[l] == row_end[r]
                       ? kDone
                       : static_cast<std::ptrdiff_t>(sorted[cur[l]].col) -
                             static_cast<std::ptrdiff_t>(r);
    };
    for (std::size_t l = 0; l < kC; ++l) {
      cur[l] = s * kC + l == 0 ? 0 : row_end[s * kC + l - 1];
      advance(l);
    }
    for (;;) {
      const std::ptrdiff_t lowest = *std::min_element(pending, pending + kC);
      if (lowest == kDone) break;
      const std::size_t slot = a.offset_.size();
      unsigned live = 0;
      for (std::size_t l = 0; l < kC; ++l) {
        if (pending[l] != lowest) continue;
        live |= 1u << l;
        slot_of[cur[l]++] = kC * slot + l;
        advance(l);
      }
      a.offset_.push_back(static_cast<std::int32_t>(lowest));
      a.mask_.push_back(static_cast<std::uint8_t>(live));
    }
  }
  a.slice_start_[slices] = a.offset_.size();

  a.values_.assign(kC * a.offset_.size(), 0.0);
  for (std::size_t e = 0; e < m; ++e) a.values_[slot_of[e]] = sorted[e].value;
  return a;
}

Sell8View SparseMatrix::view() const {
  return {n_, slice_start_.data(), offset_.data(), mask_.data(),
          values_.data()};
}

Vector SparseMatrix::multiply(const Vector& x) const {
  if (x.size() != n_) {
    throw std::invalid_argument("SparseMatrix::multiply: size mismatch");
  }
  Vector y(n_, 0.0);
  backend().sell8_matvec(view(), x.data(), nullptr, y.data());
  return y;
}

double SparseMatrix::multiply_dot(const Vector& x, Vector& y) const {
  if (x.size() != n_) {
    throw std::invalid_argument("SparseMatrix::multiply_dot: size mismatch");
  }
  y.resize(n_);
  return backend().sell8_matvec(view(), x.data(), nullptr, y.data());
}

void SparseMatrix::residual_into(const Vector& b, const Vector& x,
                                 Vector& r) const {
  if (x.size() != n_ || b.size() != n_) {
    throw std::invalid_argument("SparseMatrix::residual_into: size mismatch");
  }
  r.resize(n_);
  backend().sell8_matvec(view(), x.data(), b.data(), r.data());
}

Vector SparseMatrix::diagonal() const {
  Vector d(n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) {
    const std::size_t p = position(r, r);
    if (p != npos) d[r] = values_[p];
  }
  return d;
}

std::size_t SparseMatrix::position(std::size_t r, std::size_t c) const {
  if (r >= n_ || c >= n_) {
    throw std::out_of_range("SparseMatrix::position: index out of range");
  }
  const std::ptrdiff_t offset =
      static_cast<std::ptrdiff_t>(c) - static_cast<std::ptrdiff_t>(r);
  const std::size_t lane = r % kC;
  for (std::size_t k = slice_start_[r / kC]; k < slice_start_[r / kC + 1];
       ++k) {
    if (offset_[k] < offset) continue;
    if (offset_[k] == offset && (mask_[k] >> lane & 1u) != 0) {
      return kC * k + lane;
    }
    break;
  }
  return npos;
}

double SparseMatrix::get(std::size_t r, std::size_t c) const {
  const std::size_t p = position(r, c);
  return p != npos ? values_[p] : 0.0;
}

bool SparseMatrix::is_symmetric(double tol) const {
  bool symmetric = true;
  for_each_entry([&](std::size_t r, std::size_t c, std::size_t p) {
    symmetric = symmetric && !(std::abs(values_[p] - get(c, r)) > tol);
  });
  return symmetric;
}

}  // namespace oftec::la
