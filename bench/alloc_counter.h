// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Binary-wide heap-allocation counter: replaces the global operator
// new/delete family with versions that bump one relaxed atomic, so
// "this fast path performs zero allocations" is a hard, countable
// claim (asserted in tests/scheduler_stress_test.cc, reported by
// bench_scheduler_scaling).
//
// Include from exactly ONE translation unit per binary — the operators
// are deliberately non-inline definitions, so a second inclusion in the
// same binary fails to link instead of silently splitting the count.

#ifndef BENCH_ALLOC_COUNTER_H_
#define BENCH_ALLOC_COUNTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace alloc_counter {

inline std::atomic<uint64_t> g_allocations{0};

/// Total allocations observed so far (relaxed; diff two reads around a
/// quiesced window for an exact count).
inline uint64_t Count() {
  return g_allocations.load(std::memory_order_relaxed);
}

inline void* CountedAllocNoThrow(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  return align <= alignof(std::max_align_t)
             ? std::malloc(size)
             : std::aligned_alloc(align, (size + align - 1) / align * align);
}

inline void* CountedAlloc(std::size_t size, std::size_t align) {
  void* p = CountedAllocNoThrow(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace alloc_counter

void* operator new(std::size_t size) {
  return alloc_counter::CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return alloc_counter::CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return alloc_counter::CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return alloc_counter::CountedAlloc(size, static_cast<std::size_t>(align));
}
// The nothrow forms too: a sanitizer runtime defines its own, whose
// blocks the free()-based deletes below would release with the wrong
// allocator (std::stable_sort's temporary buffer takes this path).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return alloc_counter::CountedAllocNoThrow(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return alloc_counter::CountedAllocNoThrow(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return alloc_counter::CountedAllocNoThrow(size,
                                            static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return alloc_counter::CountedAllocNoThrow(size,
                                            static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // BENCH_ALLOC_COUNTER_H_
