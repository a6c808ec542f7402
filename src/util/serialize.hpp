#pragma once
// Flat binary serialization used for checkpoints.
//
// Checkpoints must capture both application state (registered by the workload)
// and runtime state (channel seqnums, unexpected queues, logs). A simple
// length-prefixed byte stream is sufficient and keeps restore bit-exact;
// fixed-size regions go raw (put_raw / get_raw).

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"

namespace spbc::util {

class ByteWriter {
 public:
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteWriter::put requires trivially copyable types");
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  void put_bytes(const void* data, size_t len) {
    put<uint64_t>(len);
    put_raw(data, len);
  }

  /// Appends `len` bytes with no length prefix: the reader must know the
  /// length (a fixed-size region).
  void put_raw(const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  template <typename T>
  void put_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<uint64_t>(v.size());
    if (!v.empty()) {
      const auto* p = reinterpret_cast<const unsigned char*>(v.data());
      buf_.insert(buf_.end(), p, p + v.size() * sizeof(T));
    }
  }

  void put_string(const std::string& s) { put_bytes(s.data(), s.size()); }

  const std::vector<unsigned char>& bytes() const { return buf_; }
  std::vector<unsigned char> take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<unsigned char> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<unsigned char>& buf) : buf_(buf) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    SPBC_ASSERT_MSG(pos_ + sizeof(T) <= buf_.size(),
                    "ByteReader overrun: pos=" << pos_ << " need=" << sizeof(T)
                                               << " size=" << buf_.size());
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::vector<unsigned char> get_bytes() {
    auto len = get<uint64_t>();
    SPBC_ASSERT(pos_ + len <= buf_.size());
    std::vector<unsigned char> out(buf_.begin() + static_cast<long>(pos_),
                                   buf_.begin() + static_cast<long>(pos_ + len));
    pos_ += len;
    return out;
  }

  /// Reads `len` bytes written by ByteWriter::put_raw into `dst`.
  void get_raw(void* dst, size_t len) {
    SPBC_ASSERT(pos_ + len <= buf_.size());
    if (len > 0) std::memcpy(dst, buf_.data() + pos_, len);
    pos_ += len;
  }

  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    auto n = get<uint64_t>();
    SPBC_ASSERT(pos_ + n * sizeof(T) <= buf_.size());
    std::vector<T> out(n);
    if (n > 0) {
      std::memcpy(out.data(), buf_.data() + pos_, n * sizeof(T));
      pos_ += n * sizeof(T);
    }
    return out;
  }

  std::string get_string() {
    auto b = get_bytes();
    return std::string(b.begin(), b.end());
  }

  bool exhausted() const { return pos_ == buf_.size(); }
  size_t position() const { return pos_; }

 private:
  const std::vector<unsigned char>& buf_;
  size_t pos_ = 0;
};

}  // namespace spbc::util
