// Cache-line-aligned, huge-page-friendly flat buffers.
//
// All grid and sub-plane storage in the library goes through AlignedBuffer so
// that SIMD aligned loads/stores and streaming stores are legal on the first
// element of every row, and so large allocations can be backed by 2 MB pages
// (the paper reports 5-20% gains from large pages via reduced TLB misses).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace s35 {

inline constexpr std::size_t kCacheLineBytes = 64;
inline constexpr std::size_t kHugePageBytes = 2u << 20;

// Allocates `bytes` aligned to `alignment`; requests transparent huge pages
// for allocations of 2 MB or more (best effort, never fails the allocation).
//
// With S35_HUGEPAGES=1 the request is strengthened for >= 2 MB allocations:
// the block is 2 MB-aligned and size-rounded so the kernel can back the
// *entire* range with 2 MB pages (a 64 B-aligned block usually leaves its
// unaligned head and tail on 4 KB pages). The paper attributes 5-20% LBM
// gains to exactly this (Section III-A); memsim's TLB model predicts the
// miss-rate cut and the bench roofline report validates it. Strict
// alignment failure falls back to the default path — allocation never
// fails because huge pages are unavailable.
void* aligned_malloc(std::size_t bytes, std::size_t alignment = kCacheLineBytes);
void aligned_free(void* p) noexcept;

// True when S35_HUGEPAGES is set to a non-"0" value (re-read every call so
// tests and benches can flip it between allocations).
bool hugepages_requested();

// Process-wide accounting of the opt-in huge-page path, for bench records
// and tests. `huge_bytes` counts bytes in 2 MB-aligned, MADV_HUGEPAGE-advised
// blocks (what the kernel *may* back with huge pages — THP is best effort);
// `fallbacks` counts eligible allocations where strict alignment failed.
struct HugePageStats {
  std::uint64_t huge_requests = 0;
  std::uint64_t huge_bytes = 0;
  std::uint64_t fallbacks = 0;
};
HugePageStats hugepage_stats();
void reset_hugepage_stats();

// Fixed-size aligned array of trivially-copyable T. Unlike std::vector it
// never default-constructs per element (a 512^3 grid is 134M elements), and
// guarantees 64-byte alignment of data().
template <typename T>
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t n) : size_(n) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (n > 0) data_ = static_cast<T*>(aligned_malloc(n * sizeof(T)));
  }

  AlignedBuffer(std::size_t n, T fill_value) : AlignedBuffer(n) { fill(fill_value); }

  AlignedBuffer(const AlignedBuffer& other) : AlignedBuffer(other.size_) {
    if (size_ > 0) std::memcpy(data_, other.data_, size_ * sizeof(T));
  }

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}

  AlignedBuffer& operator=(AlignedBuffer other) noexcept {
    swap(other);
    return *this;
  }

  ~AlignedBuffer() { aligned_free(data_); }

  void swap(AlignedBuffer& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
  }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  T& operator[](std::size_t i) {
    S35_DCHECK(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    S35_DCHECK(i < size_);
    return data_[i];
  }

  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }

  void fill(T value) {
    for (std::size_t i = 0; i < size_; ++i) data_[i] = value;
  }

  // Zero-fills elements [begin, end). Building block for parallel
  // first-touch initialization: under Linux's first-touch policy the pages
  // of the range land on the NUMA node of the calling thread.
  void zero_range(std::size_t begin, std::size_t end) {
    S35_DCHECK(begin <= end && end <= size_);
    if (begin < end) std::memset(data_ + begin, 0, (end - begin) * sizeof(T));
  }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace s35
