// Deterministic layer-major stacked systems for the column preconditioner
// tests (test_column_jacobi and the backend-parity suite).
//
// The numbering mirrors the thermal grid's: m slabs of nx·ny cells, slab by
// slab, with one lumped "ring" node after each of the top three slabs (so
// the slabs are not all contiguous and the rings are singletons). Vertical
// couplings join cell c of adjacent slabs; lateral couplings join
// neighbouring cells within a slab, scaled by `lateral` (0 leaves a matrix
// that is exactly block-tridiagonal by column, rings decoupled). Every
// diagonal is the sum of its couplings plus a small positive ambient term,
// so the matrix is symmetric and strictly diagonally dominant: SPD.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/sparse.h"
#include "la/vector_ops.h"
#include "util/rng.h"

namespace oftec::la::testing {

struct LayeredCase {
  SparseMatrix a;
  Vector b;
  std::size_t cells = 0;
  std::vector<std::size_t> slab_first;
  std::vector<std::size_t> rings;
};

inline LayeredCase make_layered_case(std::uint64_t seed, std::size_t nx,
                                     std::size_t ny, std::size_t slabs,
                                     double lateral) {
  util::Rng rng(seed);
  LayeredCase c;
  c.cells = nx * ny;
  std::size_t next = 0;
  for (std::size_t k = 0; k < slabs; ++k) {
    c.slab_first.push_back(next);
    next += c.cells;
    if (k + 3 >= slabs) c.rings.push_back(next++);
  }
  const std::size_t n = next;

  Vector diag(n, 0.0);
  TripletBuilder builder(n);
  const auto couple = [&](std::size_t i, std::size_t j, double g) {
    builder.add(i, j, -g);
    builder.add(j, i, -g);
    diag[i] += g;
    diag[j] += g;
  };
  for (std::size_t k = 0; k + 1 < slabs; ++k) {
    for (std::size_t cell = 0; cell < c.cells; ++cell) {
      couple(c.slab_first[k] + cell, c.slab_first[k + 1] + cell,
             rng.uniform(1.0, 20.0));
    }
  }
  if (lateral > 0.0) {
    for (std::size_t k = 0; k < slabs; ++k) {
      if (k % 3 == 1) continue;  // interface-like slabs: no lateral edges
      const std::size_t f = c.slab_first[k];
      for (std::size_t iy = 0; iy < ny; ++iy) {
        for (std::size_t ix = 0; ix < nx; ++ix) {
          const std::size_t cell = iy * nx + ix;
          if (ix + 1 < nx) {
            couple(f + cell, f + cell + 1, lateral * rng.uniform(0.5, 1.5));
          }
          if (iy + 1 < ny) {
            couple(f + cell, f + cell + nx, lateral * rng.uniform(0.5, 1.5));
          }
        }
      }
    }
    // Each ring touches the first row of the slab just below it and the
    // next ring up.
    for (std::size_t r = 0; r < c.rings.size(); ++r) {
      const std::size_t below = c.slab_first[slabs - c.rings.size() + r];
      for (std::size_t ix = 0; ix < nx; ++ix) {
        couple(below + ix, c.rings[r], lateral * rng.uniform(0.5, 1.5));
      }
      if (r + 1 < c.rings.size()) {
        couple(c.rings[r], c.rings[r + 1], rng.uniform(0.5, 2.0));
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, diag[i] + rng.uniform(0.01, 0.1));
  }
  c.a = builder.build();
  c.b.resize(n);
  for (double& v : c.b) v = rng.uniform(-1.0, 1.0);
  return c;
}

}  // namespace oftec::la::testing
