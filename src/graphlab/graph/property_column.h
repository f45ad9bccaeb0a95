// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// PropertyColumn<T>: one contiguous, cache-line-aligned property column of
// the struct-of-arrays graph storage (graph/storage.h).
//
// A gather loop spends its time streaming one or two property fields
// of many entities; an array-of-structs layout drags every unrelated field
// of each record through the cache with them.  A PropertyColumn stores one
// field for ALL entities contiguously, 64-byte aligned, so
//
//  * a gather touching only neighbor data reads sizeof(T) bytes per
//    neighbor instead of sizeof(Record),
//  * sequential scans (bulk flush version checks, snapshot journaling,
//    top-k serving queries) are pure streaming reads the hardware
//    prefetcher handles, and
//  * the compiler sees plain `T* __restrict`-able pointers it can
//    vectorize over (bench/columnar_kernels.cc carries the -fopt-info-vec
//    evidence).

#ifndef GRAPHLAB_GRAPH_PROPERTY_COLUMN_H_
#define GRAPHLAB_GRAPH_PROPERTY_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <utility>
#include <vector>

namespace graphlab {

/// Allocator handing out `Alignment`-aligned blocks, so column base
/// pointers start on a cache-line (and are SIMD-load friendly).
template <typename T, std::size_t Alignment = 64>
struct AlignedAllocator {
  using value_type = T;
  static_assert((Alignment & (Alignment - 1)) == 0, "power of two");

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{std::max(Alignment, alignof(T))}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{std::max(Alignment, alignof(T))});
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };
  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

template <typename T>
class PropertyColumn {
 public:
  static constexpr std::size_t kAlignment = 64;
  using value_type = T;

  PropertyColumn() = default;
  explicit PropertyColumn(std::size_t n) : values_(n) {}

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  void clear() { values_.clear(); }
  void reserve(std::size_t n) { values_.reserve(n); }
  void resize(std::size_t n) { values_.resize(n); }
  void assign(std::size_t n, const T& v) { values_.assign(n, v); }

  void push_back(const T& v) { values_.push_back(v); }
  void push_back(T&& v) { values_.push_back(std::move(v)); }
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    return values_.emplace_back(std::forward<Args>(args)...);
  }

  T& operator[](std::size_t i) { return values_[i]; }
  const T& operator[](std::size_t i) const { return values_[i]; }

  T* data() { return values_.data(); }
  const T* data() const { return values_.data(); }
  std::span<T> span() { return {values_.data(), values_.size()}; }
  std::span<const T> span() const { return {values_.data(), values_.size()}; }

  auto begin() { return values_.begin(); }
  auto end() { return values_.end(); }
  auto begin() const { return values_.begin(); }
  auto end() const { return values_.end(); }

 private:
  std::vector<T, AlignedAllocator<T, kAlignment>> values_;
};

}  // namespace graphlab

#endif  // GRAPHLAB_GRAPH_PROPERTY_COLUMN_H_
