// Fixed-size side array whose entries cost no memory until written.
//
// Per-page side tables are sized by the virtual region, not by what a
// process actually uses: a 1 GiB soft region with 20 bytes of metadata per
// page is 5 MiB, and zero-filling it up front makes every process pay that
// in RSS whether or not it ever commits a page. LazyZeroArray backs the
// table with an anonymous MAP_NORESERVE mapping instead. The kernel supplies
// zero-filled pages on first write, so only the parts of the table that are
// written become resident (reads of untouched entries map the shared zero
// page), and every entry starts out as all-zero bytes.
//
// Consequently T's all-zero bit pattern must be its "empty" state, and T
// must be trivially destructible (nothing runs on unmap): integers, atomics
// of integers or pointers, and plain structs whose zero value means "none".

#ifndef SOFTMEM_SRC_COMMON_LAZY_ZERO_ARRAY_H_
#define SOFTMEM_SRC_COMMON_LAZY_ZERO_ARRAY_H_

#include <sys/mman.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

#include "src/common/status.h"

namespace softmem {

template <typename T>
class LazyZeroArray {
  static_assert(std::is_trivially_destructible_v<T>,
                "LazyZeroArray entries are never destroyed");

 public:
  LazyZeroArray() = default;

  // Maps `n` zero entries. Fails (never aborts) when the mapping cannot be
  // made or n * sizeof(T) overflows.
  static Result<LazyZeroArray> Create(size_t n) {
    if (n == 0) {
      return InvalidArgumentError("LazyZeroArray of zero entries");
    }
    if (n > SIZE_MAX / sizeof(T)) {
      return ResourceExhaustedError("LazyZeroArray size overflows");
    }
    void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) {
      return ResourceExhaustedError(std::string("side-array mmap failed: ") +
                                    std::strerror(errno));
    }
    return LazyZeroArray(static_cast<T*>(p), n);
  }

  ~LazyZeroArray() { Unmap(); }

  LazyZeroArray(LazyZeroArray&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)), size_(std::exchange(o.size_, 0)) {}
  LazyZeroArray& operator=(LazyZeroArray&& o) noexcept {
    if (this != &o) {
      Unmap();
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  LazyZeroArray(const LazyZeroArray&) = delete;
  LazyZeroArray& operator=(const LazyZeroArray&) = delete;

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  size_t size() const { return size_; }

 private:
  LazyZeroArray(T* data, size_t size) : data_(data), size_(size) {}

  void Unmap() {
    if (data_ != nullptr) {
      ::munmap(data_, size_ * sizeof(T));
      data_ = nullptr;
      size_ = 0;
    }
  }

  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace softmem

#endif  // SOFTMEM_SRC_COMMON_LAZY_ZERO_ARRAY_H_
