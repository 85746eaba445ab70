// Regenerates tests/la/goldens/la_scalar.txt — the bit-exact outputs of the
// scalar solver stack over the frozen cases in golden_systems.h — and
// la_simd.txt, the bits of every simd kernel (backend_golden_lines) as the
// AVX-512 table computes them.
//
// The checked-in la_scalar.txt was produced at the seed revision, *before*
// the column-major band storage and the la::Backend seam existed; the parity
// suite uses it to prove the scalar backend still reproduces those bits.
// la_simd.txt was produced from the hand-written AVX2/AVX-512 kernels that
// preceded the single kernel source, and pins the simd bits from then on.
// Rerun this tool only when deliberately adding new cases (append-only) —
// regenerating existing lines after a numerics change would defeat the test.
//
// Usage: gen_la_goldens <scalar-output-file> <simd-output-file>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "la/banded_lu.h"
#include "tests/la/golden_systems.h"

int main(int argc, char** argv) {
  using namespace oftec::la;
  using namespace oftec::la::testing;
  if (argc != 3) {
    std::cerr << "usage: gen_la_goldens <scalar-output-file> "
                 "<simd-output-file>\n";
    return 2;
  }
  std::ofstream out(argv[1]);
  if (!out) {
    std::cerr << "gen_la_goldens: cannot open " << argv[1] << "\n";
    return 1;
  }
  // Goldens pin *scalar* bits; never let OFTEC_LA_BACKEND leak simd in here.
  install_backend("scalar");
  out << "# scalar-backend goldens; doubles as IEEE-754 hex. Append-only.\n";

  for (const auto& s : lu_golden_specs()) {
    const BandedCase c = make_banded_case(s.seed, s.n, s.kl, s.ku, s.boost);
    const BandedLu lu(c.a);
    const Vector x = lu.solve(c.b);
    out << c.name << " pivot " << hex_double(lu.min_abs_pivot()) << " x";
    for (const double v : x) out << ' ' << hex_double(v);
    out << '\n';
  }

  for (const auto& s : spd_golden_specs()) {
    const BandedCase c = make_spd_case(s.seed, s.n, s.k);
    const BandedCholeskyNumeric chol = factor_cholesky(c.a);
    const Vector x = chol.solve(c.b);
    out << c.name << " diag " << hex_double(chol.min_diagonal()) << " x";
    for (const double v : x) out << ' ' << hex_double(v);
    out << '\n';
  }

  for (const auto& s : vec_golden_specs()) {
    const VectorCase c = make_vector_case(s.seed, s.n);
    out << c.name << " dot " << hex_double(dot(c.x, c.y));
    Vector y = c.y;
    axpy(c.alpha, c.x, y);
    out << " axpy";
    for (const double v : y) out << ' ' << hex_double(v);
    y = c.y;
    const double ad = axpy_dot(c.alpha, c.x, y);
    out << " axpy_dot " << hex_double(ad);
    out << " mad " << hex_double(max_abs_diff(c.x, c.y)) << '\n';
  }

  for (const auto& s : large_spd_golden_specs()) {
    const BandedCase c = make_spd_case(s.seed, s.n, s.k);
    const BandedCholeskyNumeric chol = factor_cholesky(c.a);
    const Vector x = chol.solve(c.b);
    out << c.name << " diag " << hex_double(chol.min_diagonal()) << " x";
    for (const double v : x) out << ' ' << hex_double(v);
    out << '\n';
  }

  for (const auto& s : kernel_golden_specs()) {
    const KernelCase c = make_kernel_case(s.seed, s.n);
    out << c.name;
    for (const std::string& t : kernel_fingerprint(scalar_backend(), c)) {
      out << ' ' << t;
    }
    out << '\n';
  }
  std::cout << "wrote " << argv[1] << "\n";

  if (!avx512_supported()) {
    std::cerr << "gen_la_goldens: the simd goldens come from the AVX-512 "
                 "table, which this CPU lacks; "
              << argv[2] << " not written\n";
    return 1;
  }
  std::ofstream simd(argv[2]);
  if (!simd) {
    std::cerr << "gen_la_goldens: cannot open " << argv[2] << "\n";
    return 1;
  }
  install_backend("avx512");
  simd << "# simd-backend goldens (AVX-512 table; AVX2 must match); doubles "
          "and FNV-1a vector digests as hex. Append-only.\n";
  for (const auto& [name, toks] : backend_golden_lines()) {
    simd << name;
    for (const std::string& t : toks) simd << ' ' << t;
    simd << '\n';
  }
  std::cout << "wrote " << argv[2] << "\n";
  return 0;
}
