// Tests: the GF(256) arithmetic kernel (util/gf256.hpp) underneath the
// kReedSolomon redundancy scheme.
//
// Field axioms over the whole field (mul/div/inverse round-trips against
// the log/exp tables), Cauchy encode-matrix structure (every square
// submatrix invertible — the MDS property), the Gauss-Jordan inverse, and
// its singular-matrix rejection. Byte-level decoding is checked by the
// failure matrix's shadow codec (tests/failure_matrix.cpp).

#include <gtest/gtest.h>

#include <vector>

#include "util/gf256.hpp"
#include "util/rng.hpp"

namespace spbc {
namespace {

namespace gf = util::gf256;

gf::Matrix matmul(const gf::Matrix& lhs, const gf::Matrix& rhs) {
  gf::Matrix out(lhs.rows, rhs.cols);
  for (int r = 0; r < lhs.rows; ++r)
    for (int i = 0; i < lhs.cols; ++i)
      for (int c = 0; c < rhs.cols; ++c)
        out.at(r, c) ^= gf::mul(lhs.at(r, i), rhs.at(i, c));
  return out;
}

TEST(Gf256, MulDivInverseRoundTrips) {
  // a * inv(a) == 1 and div undoes mul, across the whole field.
  for (int a = 1; a < 256; ++a) {
    const uint8_t ua = static_cast<uint8_t>(a);
    EXPECT_EQ(gf::mul(ua, gf::inv(ua)), 1) << "a=" << a;
    for (int b = 1; b < 256; ++b) {
      const uint8_t ub = static_cast<uint8_t>(b);
      const uint8_t p = gf::mul(ua, ub);
      EXPECT_EQ(gf::div(p, ub), ua) << "a=" << a << " b=" << b;
      EXPECT_EQ(gf::mul(ua, ub), gf::mul(ub, ua));
    }
  }
  // Zero annihilates; log/exp are inverse maps.
  for (int a = 0; a < 256; ++a)
    EXPECT_EQ(gf::mul(static_cast<uint8_t>(a), 0), 0);
  for (int a = 1; a < 256; ++a)
    EXPECT_EQ(gf::exp(gf::log(static_cast<uint8_t>(a))),
              static_cast<uint8_t>(a));
}

TEST(Gf256, MulIsDistributive) {
  util::Pcg32 rng(7, 0x6f);
  for (int i = 0; i < 2000; ++i) {
    const uint8_t a = static_cast<uint8_t>(rng.next_bounded(256));
    const uint8_t b = static_cast<uint8_t>(rng.next_bounded(256));
    const uint8_t c = static_cast<uint8_t>(rng.next_bounded(256));
    EXPECT_EQ(gf::mul(a, static_cast<uint8_t>(b ^ c)),
              static_cast<uint8_t>(gf::mul(a, b) ^ gf::mul(a, c)));
    EXPECT_EQ(gf::mul(gf::mul(a, b), c), gf::mul(a, gf::mul(b, c)));
  }
}

TEST(Gf256, CauchySquareSubmatricesInvertible) {
  // The MDS property: every square submatrix of the Cauchy block is
  // nonsingular. Exhaustive for the (k, m) the redundancy layer uses.
  for (int k = 2; k <= 8; ++k) {
    for (int m = 1; m <= 4; ++m) {
      const gf::Matrix c = gf::cauchy_parity_matrix(k, m);
      // All 1x1 and 2x2 submatrices.
      for (int i = 0; i < m; ++i)
        for (int j = 0; j < k; ++j) EXPECT_NE(c.at(i, j), 0);
      for (int i1 = 0; i1 < m; ++i1)
        for (int i2 = i1 + 1; i2 < m; ++i2)
          for (int j1 = 0; j1 < k; ++j1)
            for (int j2 = j1 + 1; j2 < k; ++j2) {
              gf::Matrix sub(2, 2);
              sub.at(0, 0) = c.at(i1, j1);
              sub.at(0, 1) = c.at(i1, j2);
              sub.at(1, 0) = c.at(i2, j1);
              sub.at(1, 1) = c.at(i2, j2);
              EXPECT_TRUE(gf::invert(sub))
                  << "k=" << k << " m=" << m << " rows " << i1 << "," << i2
                  << " cols " << j1 << "," << j2;
            }
    }
  }
}

TEST(Gf256, MatrixInverseRoundTrip) {
  util::Pcg32 rng(11, 0xa1);
  for (int n = 1; n <= 6; ++n) {
    // Random invertible matrices: retry until invert succeeds, then check
    // A * A^-1 == I.
    for (int trial = 0; trial < 20; ++trial) {
      gf::Matrix a(n, n);
      for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c)
          a.at(r, c) = static_cast<uint8_t>(rng.next_bounded(256));
      gf::Matrix ai = a;
      if (!gf::invert(ai)) continue;
      const gf::Matrix prod = matmul(a, ai);
      for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c)
          EXPECT_EQ(prod.at(r, c), r == c ? 1 : 0) << "n=" << n;
    }
  }
}

TEST(Gf256, SingularMatrixRejected) {
  // Duplicate rows => singular.
  gf::Matrix a(3, 3);
  for (int c = 0; c < 3; ++c) {
    a.at(0, c) = static_cast<uint8_t>(c + 1);
    a.at(1, c) = static_cast<uint8_t>(c + 1);
    a.at(2, c) = static_cast<uint8_t>(7 * (c + 1));
  }
  EXPECT_FALSE(gf::invert(a));
  // All-zero matrix.
  gf::Matrix z(2, 2);
  EXPECT_FALSE(gf::invert(z));
  // Row 2 = row 0 ^ row 1 (GF addition) => linearly dependent.
  gf::Matrix d(3, 3);
  util::Pcg32 rng(3, 0x11);
  for (int c = 0; c < 3; ++c) {
    d.at(0, c) = static_cast<uint8_t>(1 + rng.next_bounded(255));
    d.at(1, c) = static_cast<uint8_t>(1 + rng.next_bounded(255));
    d.at(2, c) = d.at(0, c) ^ d.at(1, c);
  }
  EXPECT_FALSE(gf::invert(d));
}

}  // namespace
}  // namespace spbc
