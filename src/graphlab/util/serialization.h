// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Binary serialization archives.
//
// Everything that crosses a machine boundary — RPC payloads, ghost
// vertex/edge updates, scheduler forwards, atom journal records, snapshot
// journals — is serialized through these archives.  Keeping the discipline
// honest (no shared-memory shortcuts between machines) is what makes the
// byte accounting in the network-utilization figures meaningful, and it is
// what lets the TCP transport ship the same bytes between real processes.
//
// Wire discipline (hardened for the multi-process transport):
//  * Arithmetic types and enums are encoded canonically: fixed width
//    (sizeof(T) on the LP64 platforms this repo targets) with
//    little-endian byte order regardless of host endianness, so an
//    archive produced on one machine decodes bit-identically on another.
//  * InArchive never exhibits undefined behavior on truncated or corrupt
//    input.  An over-read zero-fills the destination, marks the archive
//    failed (ok() == false, status() describes the position), and drains
//    it (AtEnd() becomes true) so `while (!ia.AtEnd())` decode loops
//    terminate.  Container length fields are validated against the bytes
//    remaining before any allocation, so a corrupt 2^60 length cannot
//    trigger a giant resize.
//
// Supported out of the box: arithmetic types and enums, std::string,
// std::pair, std::vector, std::array, std::map/unordered_map.  User types
// participate by defining member functions
//     void Save(OutArchive* oa) const;
//     void Load(InArchive* ia);

#ifndef GRAPHLAB_UTIL_SERIALIZATION_H_
#define GRAPHLAB_UTIL_SERIALIZATION_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graphlab/util/logging.h"
#include "graphlab/util/status.h"

namespace graphlab {

class OutArchive;
class InArchive;

namespace internal {
template <typename T, typename = void>
struct HasSaveMember : std::false_type {};
template <typename T>
struct HasSaveMember<T, std::void_t<decltype(std::declval<const T&>().Save(
                            std::declval<OutArchive*>()))>>
    : std::true_type {};

template <typename T, typename = void>
struct HasLoadMember : std::false_type {};
template <typename T>
struct HasLoadMember<T, std::void_t<decltype(std::declval<T&>().Load(
                            std::declval<InArchive*>()))>>
    : std::true_type {};

/// True when T's in-memory representation equals its wire representation,
/// so contiguous runs can be memcpy'd in bulk.
template <typename T>
inline constexpr bool kMemcpyWireCompatible =
    (std::is_arithmetic_v<T> || std::is_enum_v<T>) &&
    (std::endian::native == std::endian::little || sizeof(T) == 1);
}  // namespace internal

/// Serializes values into a growable byte buffer.
class OutArchive {
 public:
  OutArchive() = default;

  /// Raw byte append.
  void WriteBytes(const void* data, size_t n) {
    const char* p = static_cast<const char*>(data);
    buffer_.insert(buffer_.end(), p, p + n);
  }

  template <typename T>
  OutArchive& operator<<(const T& value) {
    Write(value);
    return *this;
  }

  template <typename T>
  void Write(const T& value) {
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      WritePrimitive(value);
    } else if constexpr (internal::HasSaveMember<T>::value) {
      value.Save(this);
    } else {
      static_assert(internal::HasSaveMember<T>::value,
                    "type is not serializable: add Save/Load members");
    }
  }

  void Write(const std::string& s) {
    Write<uint64_t>(s.size());
    WriteBytes(s.data(), s.size());
  }

  template <typename A, typename B>
  void Write(const std::pair<A, B>& p) {
    Write(p.first);
    Write(p.second);
  }

  template <typename T>
  void Write(const std::vector<T>& v) {
    Write<uint64_t>(v.size());
    if constexpr (internal::kMemcpyWireCompatible<T>) {
      WriteBytes(v.data(), v.size() * sizeof(T));
    } else {
      for (const T& e : v) Write(e);
    }
  }

  template <typename T, size_t N>
  void Write(const std::array<T, N>& a) {
    if constexpr (internal::kMemcpyWireCompatible<T>) {
      WriteBytes(a.data(), N * sizeof(T));
    } else {
      for (const T& e : a) Write(e);
    }
  }

  template <typename K, typename V>
  void Write(const std::map<K, V>& m) {
    Write<uint64_t>(m.size());
    for (const auto& kv : m) Write(kv);
  }

  template <typename K, typename V>
  void Write(const std::unordered_map<K, V>& m) {
    Write<uint64_t>(m.size());
    for (const auto& kv : m) Write(kv);
  }

  /// Pre-sizes the buffer for `n` bytes in total.
  void Reserve(size_t n) { buffer_.reserve(n); }

  const std::vector<char>& buffer() const { return buffer_; }
  std::vector<char> TakeBuffer() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }
  void Clear() { buffer_.clear(); }

 private:
  template <typename T>
  void WritePrimitive(const T& value) {
    if constexpr (internal::kMemcpyWireCompatible<T>) {
      WriteBytes(&value, sizeof(T));
    } else {
      // Big-endian host: canonicalize to little-endian on the wire.
      unsigned char bytes[sizeof(T)];
      std::memcpy(bytes, &value, sizeof(T));
      std::reverse(bytes, bytes + sizeof(T));
      WriteBytes(bytes, sizeof(T));
    }
  }

  std::vector<char> buffer_;
};

/// Deserializes values from a byte buffer produced by OutArchive.
///
/// Decoding never crashes on truncated or corrupt input: a failed read
/// zero-fills its destination, latches the failure (ok() == false) and
/// drains the archive so decode loops keyed on AtEnd() terminate.  Callers
/// on the wire path must check ok() after decoding.
class InArchive {
 public:
  InArchive(const void* data, size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}
  explicit InArchive(const std::vector<char>& buf)
      : InArchive(buf.data(), buf.size()) {}

  /// Raw byte extraction.  Returns false (and fails the archive) on
  /// underflow; `out` is zero-filled in that case.
  bool ReadBytes(void* out, size_t n) {
    if (failed_ || n > size_ - pos_) {
      Fail(out, n);
      return false;
    }
    // An empty read may come with null pointers (an empty vector's
    // data()), which memcpy does not accept even for zero bytes.
    if (n != 0) std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  template <typename T>
  InArchive& operator>>(T& value) {
    Read(&value);
    return *this;
  }

  template <typename T>
  void Read(T* value) {
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      ReadPrimitive(value);
    } else if constexpr (internal::HasLoadMember<T>::value) {
      value->Load(this);
    } else {
      static_assert(internal::HasLoadMember<T>::value,
                    "type is not deserializable: add Save/Load members");
    }
  }

  template <typename T>
  T ReadValue() {
    T v{};
    Read(&v);
    return v;
  }

  void Read(std::string* s) {
    uint64_t n = ReadValue<uint64_t>();
    if (failed_ || n > remaining()) {
      s->clear();
      Fail(nullptr, 0);
      return;
    }
    s->resize(n);
    ReadBytes(s->data(), n);
  }

  template <typename A, typename B>
  void Read(std::pair<A, B>* p) {
    Read(&p->first);
    Read(&p->second);
  }

  template <typename T>
  void Read(std::vector<T>* v) {
    uint64_t n = ReadValue<uint64_t>();
    // Validate the length against the bytes left before any allocation
    // (divide, not multiply: n * sizeof(T) could overflow).  Every element
    // consumes at least one byte on the wire except zero-size custom
    // types, which no framework type uses.
    const uint64_t max_elems = (std::is_arithmetic_v<T> || std::is_enum_v<T>)
                                   ? remaining() / sizeof(T)
                                   : remaining();
    if (failed_ || n > max_elems) {
      v->clear();
      Fail(nullptr, 0);
      return;
    }
    v->resize(n);
    if constexpr (internal::kMemcpyWireCompatible<T>) {
      ReadBytes(v->data(), n * sizeof(T));
    } else {
      for (uint64_t i = 0; i < n && !failed_; ++i) Read(&(*v)[i]);
    }
  }

  template <typename T, size_t N>
  void Read(std::array<T, N>* a) {
    if constexpr (internal::kMemcpyWireCompatible<T>) {
      ReadBytes(a->data(), N * sizeof(T));
    } else {
      for (T& e : *a) Read(&e);
    }
  }

  template <typename K, typename V>
  void Read(std::map<K, V>* m) {
    uint64_t n = ReadValue<uint64_t>();
    m->clear();
    if (failed_ || n > remaining()) {
      Fail(nullptr, 0);
      return;
    }
    for (uint64_t i = 0; i < n && !failed_; ++i) {
      std::pair<K, V> kv;
      Read(&kv);
      if (!failed_) m->insert(std::move(kv));
    }
  }

  template <typename K, typename V>
  void Read(std::unordered_map<K, V>* m) {
    uint64_t n = ReadValue<uint64_t>();
    m->clear();
    if (failed_ || n > remaining()) {
      Fail(nullptr, 0);
      return;
    }
    m->reserve(n);
    for (uint64_t i = 0; i < n && !failed_; ++i) {
      std::pair<K, V> kv;
      Read(&kv);
      if (!failed_) m->insert(std::move(kv));
    }
  }

  /// True while no read has over-run the buffer.
  bool ok() const { return !failed_; }

  /// OK while ok(); Corruption naming the failure position otherwise.
  Status status() const {
    if (!failed_) return Status::OK();
    return Status::Corruption("archive truncated or corrupt at byte " +
                              std::to_string(failed_at_) + " of " +
                              std::to_string(size_));
  }

  size_t remaining() const { return size_ - pos_; }

  /// The unread bytes, for decoders that parse a run of the archive in
  /// place (graph/column_codec.h); Skip() then consumes what they used.
  std::string_view Rest() const { return {data_ + pos_, size_ - pos_}; }

  /// Consumes `n` bytes.  Returns false (and fails the archive) when
  /// fewer remain.
  bool Skip(size_t n) {
    if (failed_ || n > size_ - pos_) {
      Fail(nullptr, 0);
      return false;
    }
    pos_ += n;
    return true;
  }

  /// True once the archive is exhausted — including after a failed read,
  /// so `while (!ia.AtEnd())` decode loops always terminate.
  bool AtEnd() const { return pos_ == size_; }
  size_t position() const { return pos_; }

 private:
  template <typename T>
  void ReadPrimitive(T* value) {
    if constexpr (internal::kMemcpyWireCompatible<T>) {
      ReadBytes(value, sizeof(T));
    } else {
      unsigned char bytes[sizeof(T)];
      if (!ReadBytes(bytes, sizeof(T))) {
        *value = T{};
        return;
      }
      std::reverse(bytes, bytes + sizeof(T));
      std::memcpy(value, bytes, sizeof(T));
    }
  }

  void Fail(void* out, size_t n) {
    if (!failed_) {
      failed_ = true;
      failed_at_ = pos_;
    }
    pos_ = size_;  // drain: AtEnd() holds from now on
    if (out != nullptr && n > 0) std::memset(out, 0, n);
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
  size_t failed_at_ = 0;
};

/// Convenience: serialized byte size of a value.
template <typename T>
size_t SerializedSize(const T& value) {
  OutArchive oa;
  oa << value;
  return oa.size();
}

}  // namespace graphlab

#endif  // GRAPHLAB_UTIL_SERIALIZATION_H_
