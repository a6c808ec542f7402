#include "util/codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>

#include "util/assert.hpp"

namespace spbc::util::codec {

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr uint32_t kHashBits = 13;

uint32_t hash4(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  // Fibonacci hashing of the 4-byte prefix; the single-entry table makes the
  // match finder O(n) and fully deterministic.
  return (v * 2654435761u) >> (32 - kHashBits);
}

uint64_t load64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Number of leading equal bytes (in memory order) of two words whose XOR
/// is `x != 0`.
size_t equal_prefix_bytes(uint64_t x) {
  if constexpr (std::endian::native == std::endian::little)
    return static_cast<size_t>(std::countr_zero(x)) / 8;
  else
    return static_cast<size_t>(std::countl_zero(x)) / 8;
}

/// Length of the common prefix of `a[0..)` and `b[0..)`, at most `limit`
/// bytes: eight bytes per step, then byte by byte near the input's end.
size_t match_length(const unsigned char* a, const unsigned char* b, size_t limit) {
  size_t len = 0;
  while (len + 8 <= limit) {
    const uint64_t x = load64(a + len) ^ load64(b + len);
    if (x != 0) return len + equal_prefix_bytes(x);
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

unsigned char* put_len(unsigned char* op, size_t extra) {
  // 255-coded continuation of a nibble that saturated at 15.
  while (extra >= 255) {
    *op++ = 255;
    extra -= 255;
  }
  *op++ = static_cast<unsigned char>(extra);
  return op;
}

unsigned char* emit(unsigned char* op, const unsigned char* lit, size_t nlit,
                    size_t match_len, size_t offset) {
  const size_t lit_nib = nlit < 15 ? nlit : 15;
  const size_t match_nib =
      match_len == 0 ? 0 : (match_len - kMinMatch < 15 ? match_len - kMinMatch : 15);
  *op++ = static_cast<unsigned char>((lit_nib << 4) | match_nib);
  if (lit_nib == 15) op = put_len(op, nlit - 15);
  std::memcpy(op, lit, nlit);
  op += nlit;
  if (match_len == 0) return op;  // final literal-only token
  *op++ = static_cast<unsigned char>(offset & 0xff);
  *op++ = static_cast<unsigned char>((offset >> 8) & 0xff);
  if (match_nib == 15) op = put_len(op, match_len - kMinMatch - 15);
  return op;
}

/// Per-thread encode buffer, grown to the largest request and reused: the
/// threaded shard executor may compress on several threads at once.
unsigned char* encode_buffer(size_t bytes) {
  thread_local std::unique_ptr<unsigned char[]> buf;
  thread_local size_t cap = 0;
  if (cap < bytes) {
    buf.reset(new unsigned char[bytes]);
    cap = bytes;
  }
  return buf.get();
}

/// Per-thread match table: 32 KiB on the caller's stack would remain resident
/// in every rank fiber that ever compressed (DESIGN.md §12).
thread_local std::unique_ptr<uint32_t[]> t_table(new uint32_t[1u << kHashBits]);

/// Adds a 255-coded length continuation to `len`; false when the stream
/// ends before the terminating byte.
bool get_len(const unsigned char* enc, size_t n, size_t& ip, size_t& len) {
  unsigned char c;
  do {
    if (ip >= n) return false;
    c = enc[ip++];
    len += c;
  } while (c == 255);
  return true;
}

}  // namespace

std::vector<unsigned char> lz_compress(const unsigned char* data, size_t n) {
  if (n == 0) return {};
  // Worst case, no match at all: one token, at most n/255 + 1 length bytes
  // and n literals. A match token never costs more than the bytes it covers.
  unsigned char* const out = encode_buffer(n + n / 255 + 16);
  unsigned char* op = out;
  uint32_t* const table = t_table.get();
  std::memset(table, 0xff, sizeof(uint32_t) << kHashBits);  // 0xffffffff = empty slot
  size_t lit_start = 0;
  size_t pos = 0;
  // The last kMinMatch-1 bytes can never start a match (hash4 reads 4 bytes
  // and a match must not run past the end without being clamped below).
  const size_t match_limit = n >= kMinMatch ? n - kMinMatch + 1 : 0;
  while (pos < match_limit) {
    const uint32_t h = hash4(data + pos);
    const uint32_t cand = table[h];
    table[h] = static_cast<uint32_t>(pos);
    if (cand == 0xffffffffu || pos - cand > kMaxOffset ||
        std::memcmp(data + cand, data + pos, kMinMatch) != 0) {
      ++pos;
      continue;
    }
    const size_t len =
        kMinMatch + match_length(data + cand + kMinMatch, data + pos + kMinMatch,
                                 n - pos - kMinMatch);
    op = emit(op, data + lit_start, pos - lit_start, len, pos - cand);
    pos += len;
    lit_start = pos;
  }
  if (lit_start < n) op = emit(op, data + lit_start, n - lit_start, 0, 0);
  return std::vector<unsigned char>(out, op);
}

bool lz_decompress(const unsigned char* enc, size_t n, unsigned char* out,
                   size_t out_n) {
  size_t ip = 0;
  size_t op = 0;
  while (ip < n) {
    const unsigned char token = enc[ip++];
    size_t nlit = token >> 4;
    if (nlit == 15 && !get_len(enc, n, ip, nlit)) return false;
    if (nlit > n - ip || nlit > out_n - op) return false;  // literal overrun
    std::memcpy(out + op, enc + ip, nlit);
    ip += nlit;
    op += nlit;
    if ((token & 0x0f) == 0 && ip == n) break;  // final literal-only token
    if (n - ip < 2) return false;                // truncated match offset
    const size_t offset = static_cast<size_t>(enc[ip]) |
                          (static_cast<size_t>(enc[ip + 1]) << 8);
    ip += 2;
    size_t mlen = (token & 0x0f) + kMinMatch;
    if ((token & 0x0f) == 15 && !get_len(enc, n, ip, mlen)) return false;
    if (offset == 0 || offset > op || mlen > out_n - op) return false;
    unsigned char* const dst = out + op;
    if (offset >= mlen) {
      std::memcpy(dst, dst - offset, mlen);
    } else if (offset == 1) {
      std::memset(dst, dst[-1], mlen);  // a constant run
    } else if (offset >= 8) {
      // Self-overlapping match: a step may read bytes this match wrote, but
      // each 8-byte chunk ends at or before the chunk it fills begins.
      const unsigned char* src = dst - offset;
      size_t i = 0;
      for (; i + 8 <= mlen; i += 8) std::memcpy(dst + i, src + i, 8);
      std::memcpy(dst + i, src + i, mlen - i);  // shorter than the offset
    } else {
      // A short period (2..7 bytes): lay down one period, then keep doubling
      // the periodic prefix — dst[0..done) is whole periods, so copying its
      // head after it continues the pattern.
      std::memcpy(dst, dst - offset, offset);
      for (size_t done = offset; done < mlen;) {
        const size_t len = std::min(done, mlen - done);
        std::memcpy(dst + done, dst, len);
        done += len;
      }
    }
    op += mlen;
  }
  return op == out_n;
}

std::vector<unsigned char> lz_decompress(const std::vector<unsigned char>& enc,
                                         size_t out_n) {
  std::vector<unsigned char> out(out_n);
  const bool ok = lz_decompress(enc.data(), enc.size(), out.data(), out_n);
  SPBC_ASSERT_MSG(ok, "codec: malformed stream or decoded size mismatch");
  return out;
}

}  // namespace spbc::util::codec
