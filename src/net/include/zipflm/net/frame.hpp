// The byte layout shared by the serve and telemetry frames: a type
// byte, then little-endian fixed-width fields, strings and arrays
// prefixed by a u64 count.  Writer appends; Reader is strict — a
// truncated field, a count larger than the bytes left in the frame, a
// wrong type byte or a leftover byte is a ProtocolError whose message
// names the frame kind ("serve frame ...", "telemetry frame ...").
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "zipflm/net/transport.hpp"

namespace zipflm::net::frame {

/// Append-only writer with patchable length slots (a chunk splitter
/// counts sections as it packs them).
class Writer {
 public:
  // The type byte is the vector's first element, not a 1-byte insert
  // (which GCC 12 misreports as -Wstringop-overflow).
  template <typename Type>
    requires std::is_enum_v<Type>
  explicit Writer(Type type) : bytes_{static_cast<std::byte>(type)} {}

  void u8(std::uint8_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void str(std::string_view s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void array(const std::vector<T>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(T));
  }

  std::size_t reserve_u64() {
    const std::size_t at = bytes_.size();
    u64(0);
    return at;
  }
  void patch_u64(std::size_t at, std::uint64_t v) {
    std::memcpy(bytes_.data() + at, &v, sizeof(v));
  }

  std::size_t size() const noexcept { return bytes_.size(); }
  std::vector<std::byte> take() { return std::move(bytes_); }

 private:
  void raw(const void* data, std::size_t size) {
    if (size == 0) return;
    const auto* p = static_cast<const std::byte*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }
  std::vector<std::byte> bytes_;
};

/// Strict reader over one frame; `kind` prefixes every error message.
class Reader {
 public:
  template <typename Type>
    requires std::is_enum_v<Type>
  Reader(const std::vector<std::byte>& bytes, Type expected, const char* kind)
      : bytes_(bytes), kind_(kind) {
    const std::uint8_t got = u8();
    if (got != static_cast<std::uint8_t>(expected)) {
      fail("type mismatch: expected " +
           std::to_string(static_cast<int>(expected)) + ", got " +
           std::to_string(got));
    }
  }

  std::uint8_t u8() { return scalar<std::uint8_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  std::int64_t i64() { return scalar<std::int64_t>(); }
  double f64() { return scalar<double>(); }
  std::string str() {
    const std::uint64_t n = u64();
    if (n > remaining()) {
      fail("string length " + std::to_string(n) + " exceeds the frame");
    }
    std::string s(static_cast<std::size_t>(n), '\0');
    raw(s.data(), s.size());
    return s;
  }
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> array() {
    std::vector<T> v(static_cast<std::size_t>(count(sizeof(T))));
    raw(v.data(), v.size() * sizeof(T));
    return v;
  }

  /// A count whose elements each occupy at least `min_element_bytes`
  /// of what is left in the frame.
  std::uint64_t count(std::size_t min_element_bytes) {
    const std::uint64_t n = u64();
    if (min_element_bytes > 0 && n > remaining() / min_element_bytes) {
      fail("count " + std::to_string(n) + " exceeds the frame");
    }
    return n;
  }

  std::size_t remaining() const noexcept { return bytes_.size() - cursor_; }

  void finish() const {
    if (cursor_ != bytes_.size()) {
      fail("carries " + std::to_string(remaining()) + " trailing bytes");
    }
  }

 private:
  template <typename T>
  T scalar() {
    T v;
    raw(&v, sizeof(v));
    return v;
  }

  void raw(void* out, std::size_t size) {
    if (remaining() < size) {
      fail("truncated: wanted " + std::to_string(size) + " bytes, " +
           std::to_string(remaining()) + " left");
    }
    if (size == 0) return;
    std::memcpy(out, bytes_.data() + cursor_, size);
    cursor_ += size;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw ProtocolError(std::string(kind_) + " frame " + what);
  }

  const std::vector<std::byte>& bytes_;
  const char* kind_;
  std::size_t cursor_ = 0;
};

}  // namespace zipflm::net::frame
