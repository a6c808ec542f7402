#include "util/gf256.hpp"

#include <utility>

#include "util/assert.hpp"

namespace spbc::util::gf256 {

namespace {

// Log/exp tables over 0x11D with generator 2, built once. exp_ is doubled so
// mul can index exp_[log a + log b] without a mod-255.
struct Tables {
  uint8_t exp_[512];
  uint8_t log_[256];

  Tables() {
    int x = 1;
    for (int i = 0; i < 255; ++i) {
      exp_[i] = static_cast<uint8_t>(x);
      log_[x] = static_cast<uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= 0x11D;
    }
    for (int i = 255; i < 512; ++i) exp_[i] = exp_[i - 255];
    log_[0] = 0;  // never consulted for 0 (checked by callers)
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

}  // namespace

uint8_t mul(uint8_t a, uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const Tables& t = tables();
  return t.exp_[t.log_[a] + t.log_[b]];
}

uint8_t div(uint8_t a, uint8_t b) {
  SPBC_ASSERT(b != 0);
  if (a == 0) return 0;
  const Tables& t = tables();
  return t.exp_[t.log_[a] + 255 - t.log_[b]];
}

uint8_t inv(uint8_t a) {
  SPBC_ASSERT(a != 0);
  const Tables& t = tables();
  return t.exp_[255 - t.log_[a]];
}

uint8_t exp(int e) {
  e %= 255;
  if (e < 0) e += 255;
  return tables().exp_[e];
}

uint8_t log(uint8_t a) {
  SPBC_ASSERT(a != 0);
  return tables().log_[a];
}

void mul_add(uint8_t* dst, const uint8_t* src, size_t n, uint8_t c) {
  if (c == 0) return;
  if (c == 1) {
    for (size_t i = 0; i < n; ++i) dst[i] ^= src[i];
    return;
  }
  const Tables& t = tables();
  const int lc = t.log_[c];
  for (size_t i = 0; i < n; ++i) {
    const uint8_t s = src[i];
    if (s != 0) dst[i] ^= t.exp_[t.log_[s] + lc];
  }
}

Matrix cauchy_parity_matrix(int k, int m) {
  SPBC_ASSERT(k >= 1 && m >= 0 && k + m <= 256);
  // x_i = i (parity side), y_j = m + j (data side): disjoint by construction,
  // so x_i ^ y_j != 0 and every entry is well defined.
  Matrix c(m, k);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < k; ++j)
      c.at(i, j) = inv(static_cast<uint8_t>(i ^ (m + j)));
  return c;
}

bool invert(Matrix& mat) {
  SPBC_ASSERT(mat.rows == mat.cols);
  const int n = mat.rows;
  Matrix aug(n, 2 * n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) aug.at(r, c) = mat.at(r, c);
    aug.at(r, n + r) = 1;
  }
  for (int col = 0; col < n; ++col) {
    int pivot = -1;
    for (int r = col; r < n; ++r) {
      if (aug.at(r, col) != 0) {
        pivot = r;
        break;
      }
    }
    if (pivot < 0) return false;  // singular: no invertible selection
    if (pivot != col) {
      for (int c = 0; c < 2 * n; ++c)
        std::swap(aug.at(pivot, c), aug.at(col, c));
    }
    const uint8_t d = inv(aug.at(col, col));
    for (int c = 0; c < 2 * n; ++c) aug.at(col, c) = mul(aug.at(col, c), d);
    for (int r = 0; r < n; ++r) {
      if (r == col) continue;
      const uint8_t f = aug.at(r, col);
      if (f == 0) continue;
      for (int c = 0; c < 2 * n; ++c)
        aug.at(r, c) ^= mul(f, aug.at(col, c));
    }
  }
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c) mat.at(r, c) = aug.at(r, n + c);
  return true;
}

}  // namespace spbc::util::gf256
