#pragma once
// GF(256) arithmetic for the Reed-Solomon redundancy scheme.
//
// The Reed-Solomon redundancy scheme (ckpt/redundancy.hpp, kReedSolomon)
// protects a checkpoint group against up to m concurrent node losses by
// storing m parity fragments next to k data fragments — the classic MDS
// erasure-code regime (any k of the k+m fragments reconstruct the data).
// This header is the arithmetic kernel underneath: the field, the encode
// matrix, and the Gaussian-elimination solver the restore planner uses to
// prove (or reject) a decode before any network read is scheduled. Runs
// never encode bytes: the scheme is a cost and liveness model, and the byte
// level decode lives in the failure-matrix test oracle (DESIGN.md §11).
//
//   * Field: GF(2^8) with the primitive polynomial x^8+x^4+x^3+x^2+1
//     (0x11D, the polynomial jerasure and ISA-L use), generator 2. mul/div
//     run off 256-entry log/exp tables built once at static-init time.
//   * Encode matrix: a Cauchy matrix, entries 1/(x_i ^ y_j) with the x
//     (parity indices) and y (data indices) drawn from disjoint element
//     sets. Every square submatrix of a Cauchy matrix is nonsingular, which
//     is exactly the MDS property: any k surviving rows of the stacked
//     [I; C] generator are invertible, so any loss pattern of <= m
//     fragments decodes. (A plain Vandermonde matrix does not survive the
//     systematic reduction with this guarantee, hence Cauchy.)

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spbc::util::gf256 {

/// y = a * b in GF(256).
uint8_t mul(uint8_t a, uint8_t b);
/// y = a / b in GF(256). b must be nonzero.
uint8_t div(uint8_t a, uint8_t b);
/// Multiplicative inverse. a must be nonzero.
uint8_t inv(uint8_t a);
/// Generator powers / logs (exp wraps mod 255; log(0) is undefined).
uint8_t exp(int e);
uint8_t log(uint8_t a);

/// dst[i] ^= c * src[i] — the row operation both encode and decode reduce
/// to (and the XOR fold when c == 1).
void mul_add(uint8_t* dst, const uint8_t* src, size_t n, uint8_t c);

/// Dense row-major GF(256) matrix, sized rows x cols.
struct Matrix {
  int rows = 0;
  int cols = 0;
  std::vector<uint8_t> a;

  Matrix() = default;
  Matrix(int r, int c) : rows(r), cols(c), a(static_cast<size_t>(r) * c, 0) {}
  uint8_t& at(int r, int c) { return a[static_cast<size_t>(r) * cols + c]; }
  uint8_t at(int r, int c) const {
    return a[static_cast<size_t>(r) * cols + c];
  }
};

/// The m x k Cauchy parity block: parity row i is sum_j C(i,j) * data_j.
/// Requires k + m <= 256 (distinct field elements for the index sets).
Matrix cauchy_parity_matrix(int k, int m);

/// In-place Gauss-Jordan inverse. Returns false (matrix left unspecified)
/// when the matrix is singular — the "singular submatrix rejection" path a
/// caller must treat as "this fragment selection cannot decode".
bool invert(Matrix& mat);

}  // namespace spbc::util::gf256
