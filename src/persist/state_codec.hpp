#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace topil::persist {

// Sizes, counts and ids are std::size_t fields saved as u64: one call
// names both.
static_assert(std::is_same_v<std::size_t, std::uint64_t>,
              "persist saves std::size_t fields as u64");

// Little-endian binary codec for snapshot, log and wire payloads.
//
// StateWriter and StateReader have one call per kind of field, under the
// same name, so each record is one function template over the two: the
// writer takes every field by const reference and appends it, the reader
// assigns it. A check that only a restore makes sits next to its field,
// under `if constexpr (Io::kReading)`. Sections start with 4-byte tags so
// a reader that drifts out of sync fails at the next tag instead of
// misreading bytes.

/// What a record's field list holds: a const reference for the writer,
/// which reads the object, a mutable one for the reader, which fills it.
template <typename Io, typename T>
using Ref = std::conditional_t<Io::kReading, T&, const T&>;

class StateWriter {
 public:
  static constexpr bool kReading = false;

  void u32(std::uint32_t v) { append(&v, sizeof(v)); }
  void u64(std::uint64_t v) { append(&v, sizeof(v)); }
  void f64(double v) { append(&v, sizeof(v)); }
  void boolean(bool v) {
    const std::uint8_t byte = v ? 1 : 0;
    append(&byte, 1);
  }
  void str(std::string_view s) {
    u64(s.size());
    append(s.data(), s.size());
  }
  /// 4-character section marker (e.g. "SIM ").
  void tag(const char (&t)[5]) { append(t, 4); }

  /// `n` values whose count the record fixes elsewhere.
  template <typename T>
  void array(const T* p, std::size_t n) {
    static_assert(std::is_arithmetic_v<T>);
    append(p, n * sizeof(T));
  }

  /// The count, then the values.
  template <typename T>
  void seq(const std::vector<T>& v) {
    u64(v.size());
    array(v.data(), v.size());
  }
  /// The count, then `each(element)` for every element.
  template <typename C, typename Each>
  void seq(const C& c, Each&& each) {
    u64(c.size());
    for (const auto& element : c) each(element);
  }

  /// A presence flag, then `each(value)` if there is one.
  template <typename T, typename Each>
  void optional(const std::optional<T>& o, Each&& each) {
    boolean(o.has_value());
    if (o) each(*o);
  }

  const std::string& buffer() const { return buf_; }
  std::string take_buffer() { return std::move(buf_); }

 private:
  void append(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  std::string buf_;
};

/// Bounds-checked decoder over a byte buffer. Every count it reads is
/// bounded by division against the bytes left before anything is sized,
/// so a corrupt count fails instead of allocating. All failures throw
/// InvalidArgument via TOPIL_REQUIRE.
class StateReader {
 public:
  static constexpr bool kReading = true;

  explicit StateReader(std::string_view data) : data_(data) {}

  void u32(std::uint32_t& v) { read(&v, 1); }
  void u64(std::uint64_t& v) { read(&v, 1); }
  void f64(double& v) { read(&v, 1); }
  void boolean(bool& v) {
    std::uint8_t byte = 0;
    read(&byte, 1);
    v = byte != 0;
  }
  void str(std::string& s) {
    const std::size_t n = count(1, "string");
    s.assign(static_cast<const char*>(take(n, 1)), n);
  }
  void tag(const char (&t)[5]) {
    TOPIL_REQUIRE(std::memcmp(take(4, 1), t, 4) == 0,
                  std::string("persist: state section mismatch: expected '") +
                      t + "'");
  }

  template <typename T>
  void array(T* p, std::size_t n) {
    static_assert(std::is_arithmetic_v<T>);
    read(p, n);
  }

  template <typename T>
  void seq(std::vector<T>& v) {
    v.resize(count(sizeof(T), "vector"));
    array(v.data(), v.size());
  }
  /// Replaces the contents of `c`: `each` fills every element, a map's as
  /// a (key, value) pair.
  template <typename C, typename Each>
  void seq(C& c, Each&& each) {
    const std::size_t n = count(1, "sequence");
    c.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if constexpr (requires { typename C::mapped_type; }) {
        std::pair<typename C::key_type, typename C::mapped_type> entry;
        each(entry);
        c.emplace(std::move(entry));
      } else {
        each(c.emplace_back());
      }
    }
  }

  template <typename T, typename Each>
  void optional(std::optional<T>& o, Each&& each) {
    bool present = false;
    boolean(present);
    if (present) {
      each(o.emplace());
    } else {
      o.reset();
    }
  }

  std::size_t remaining() const { return data_.size() - pos_; }

  /// Rejects trailing garbage after the last expected field.
  void require_done() const {
    TOPIL_REQUIRE(remaining() == 0,
                  "persist: " + std::to_string(remaining()) +
                      " trailing byte(s) after last field");
  }

 private:
  /// `n` elements of `elem_size` bytes, bounded before the product forms.
  const void* take(std::size_t n, std::size_t elem_size) {
    TOPIL_REQUIRE(n <= remaining() / elem_size,
                  "persist: truncated state: need " + std::to_string(n) +
                      " element(s) of " + std::to_string(elem_size) +
                      " byte(s) at offset " + std::to_string(pos_) +
                      ", have " + std::to_string(remaining()) + " byte(s)");
    const void* p = data_.data() + pos_;
    pos_ += n * elem_size;
    return p;
  }

  template <typename T>
  void read(T* p, std::size_t n) {
    const void* src = take(n, sizeof(T));
    if (n > 0) std::memcpy(p, src, n * sizeof(T));
  }

  /// A count of elements that take at least `elem_size` bytes each.
  std::size_t count(std::size_t elem_size, const char* what) {
    std::uint64_t n = 0;
    u64(n);
    TOPIL_REQUIRE(n <= remaining() / elem_size,
                  std::string("persist: implausible ") + what + " length " +
                      std::to_string(n) + " (only " +
                      std::to_string(remaining()) + " byte(s) remain)");
    return n;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// State kept behind save_state/restore_state hooks (a governor's, a
/// frequency policy's), inside a record's field list.
template <typename Io, typename Hooked>
void hook_fields(Io& io, Hooked& hooked) {
  if constexpr (Io::kReading) {
    hooked.restore_state(io);
  } else {
    hooked.save_state(io);
  }
}

/// A vector whose length the restoring object already has (the
/// platform's cores, clusters or thermal nodes): saved like `seq`, and a
/// reader refuses another length before it reads a value.
template <typename Io, typename Vector>
void fixed_seq(Io& io, Vector& v, const char* what) {
  std::size_t n = v.size();
  io.u64(n);
  if constexpr (Io::kReading) {
    TOPIL_REQUIRE(n == v.size(), std::string("persist: ") + what +
                                     " count " + std::to_string(n) +
                                     " does not match " +
                                     std::to_string(v.size()));
  }
  io.array(v.data(), v.size());
}

}  // namespace topil::persist
