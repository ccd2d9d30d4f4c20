#pragma once
// Thread-local bump/free-list arena for the simulator's per-op heap traffic.
//
// A paper-scale world (131,072 ranks in VN mode) allocates one coroutine
// frame per rank plus an OpState per in-flight send/recv/collective — tens
// of millions of small, short-lived, same-sized blocks over a run.  The
// global allocator charges lock traffic, size-class lookup, and ~16-32
// bytes of header per block for them; this arena instead carves 64-byte
// granules out of 256 KiB chunks with a bump pointer and recycles freed
// blocks through per-size-class LIFO free lists, so the steady-state
// alloc/free pair is a couple of pointer moves with zero metadata.
//
// Threading model: one arena per thread (`threadArena()`), matching the
// runtime's confinement invariant — a Simulation (its coroutine frames,
// OpStates, matching nodes) lives and dies on the thread that created it.
// The scenario ThreadPool runs each Simulation inside a single worker, so
// allocation and deallocation always hit the same arena.  There is no
// cross-thread free support, by design.
//
// Under AddressSanitizer the arena forwards straight to ::operator new /
// ::operator delete: recycling granules would hide use-after-free on
// coroutine frames and OpStates from the sanitizer, and the sanitize
// preset exists precisely to catch those.

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define BGP_ARENA_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BGP_ARENA_PASSTHROUGH 1
#endif
#endif
#ifndef BGP_ARENA_PASSTHROUGH
#define BGP_ARENA_PASSTHROUGH 0
#endif

namespace bgp::support {

class Arena {
 public:
  /// Allocation granule; every small block is rounded up to a multiple.
  /// 64 bytes keeps distinct OpStates / matching nodes off each other's
  /// cache lines and makes every class offset max_align_t-aligned.
  static constexpr std::size_t kGranule = 64;
  /// Largest size served from the arena; bigger blocks (oversized
  /// coroutine frames of deeply-capturing rank programs) pass through to
  /// the global allocator, which handles rarities fine.
  static constexpr std::size_t kMaxSmall = 4096;
  static constexpr std::size_t kClasses = kMaxSmall / kGranule;
  static constexpr std::size_t kChunkBytes = 256 * 1024;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    // Normal shutdown: every block was returned, the chunks can go.  If
    // an allocation outlived the arena (e.g. a Request stashed in a
    // static), freeing the chunks would dangle it — leak them instead;
    // the process is exiting anyway.
    if (liveBlocks_ == 0)
      for (void* c : chunks_) ::operator delete(c);
  }

  void* allocate(std::size_t n) {
    if (n == 0) n = 1;
    if (n > kMaxSmall) return ::operator new(n);
    const std::size_t cls = (n - 1) / kGranule;  // 0..kClasses-1
    ++liveBlocks_;
    if (void* p = freeLists_[cls]) {
      freeLists_[cls] = *static_cast<void**>(p);
      return p;
    }
    const std::size_t bytes = (cls + 1) * kGranule;
    if (bumpRemaining_ < bytes) refill();
    void* p = bump_;
    bump_ += bytes;
    bumpRemaining_ -= bytes;
    return p;
  }

  void deallocate(void* p, std::size_t n) noexcept {
    if (p == nullptr) return;
    if (n == 0) n = 1;
    if (n > kMaxSmall) {
      ::operator delete(p);
      return;
    }
    const std::size_t cls = (n - 1) / kGranule;
    *static_cast<void**>(p) = freeLists_[cls];
    freeLists_[cls] = p;
    --liveBlocks_;
  }

  /// Outstanding small blocks (diagnostics / tests).
  std::uint64_t liveBlocks() const { return liveBlocks_; }
  /// Bytes of chunk memory owned by the arena (diagnostics / tests).
  std::size_t reservedBytes() const { return chunks_.size() * kChunkBytes; }

 private:
  void refill() {
    // The tail of the previous chunk (< one max-class block) is abandoned;
    // at 4 KiB max class per 256 KiB chunk that wastes under 1.6%.
    bump_ = static_cast<unsigned char*>(::operator new(kChunkBytes));
    bumpRemaining_ = kChunkBytes;
    chunks_.push_back(bump_);
  }

  unsigned char* bump_ = nullptr;
  std::size_t bumpRemaining_ = 0;
  void* freeLists_[kClasses] = {};
  std::vector<void*> chunks_;
  std::uint64_t liveBlocks_ = 0;
};

/// The calling thread's arena (created on first use, destroyed at thread
/// exit — after every Simulation confined to the thread is gone).
inline Arena& threadArena() {
  thread_local Arena arena;
  return arena;
}

inline void* arenaAllocate(std::size_t n) {
#if BGP_ARENA_PASSTHROUGH
  return ::operator new(n);
#else
  return threadArena().allocate(n);
#endif
}

inline void arenaDeallocate(void* p,
                            [[maybe_unused]] std::size_t n) noexcept {
#if BGP_ARENA_PASSTHROUGH
  ::operator delete(p);
#else
  threadArena().deallocate(p, n);
#endif
}

}  // namespace bgp::support
