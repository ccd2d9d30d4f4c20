#pragma once
// SmallFn: a move-only `void()` callable with inline small-buffer storage.
//
// The event engine schedules millions of short-lived callbacks whose
// captures are a few pointers and scalars (a Request, a couple of ints, a
// double).  `std::function` heap-allocates for most of these and its
// type-erased copy/move machinery dominates heap sift costs.  SmallFn
// stores captures up to kInlineBytes in place — no allocation on the
// scheduling fast path — and falls back to a heap box only for oversized
// or over-aligned captures.  Trivially-copyable captures relocate with a
// plain memcpy.  At 56 bytes, a SmallFn plus the engine's free-list link
// fill exactly one 64-byte event slot.

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace bgp::sim {

class SmallFn {
 public:
  /// Sized to hold the largest capture the runtime schedules today
  /// (`[this, &comm, 3 ints, double, Request]` = 48 bytes) inline.
  static constexpr std::size_t kInlineBytes = 48;
  /// Captures are pointers and scalars; 8-byte alignment keeps the
  /// object at 56 bytes (max_align_t would pad it to 64).
  static constexpr std::size_t kInlineAlign = alignof(void*);

  SmallFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  /// Destroys the current target (if any) and constructs `f` directly in
  /// the buffer — no temporary, no move, for the scheduling fast path.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void emplace(F&& f) {
    reset();
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kBoxedOps<D>;
    }
  }

  SmallFn(SmallFn&& other) noexcept { stealFrom(other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      stealFrom(other);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  void reset() noexcept {
    if (ops_ && ops_->destroy) ops_->destroy(buf_);
    ops_ = nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs dst from src and destroys src; null => memcpy.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Null => trivially destructible, nothing to do.
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static void inlineInvoke(void* b) {
    (*std::launder(reinterpret_cast<D*>(b)))();
  }
  template <typename D>
  static void inlineRelocate(void* dst, void* src) noexcept {
    D* s = std::launder(reinterpret_cast<D*>(src));
    ::new (dst) D(std::move(*s));
    s->~D();
  }
  template <typename D>
  static void inlineDestroy(void* b) noexcept {
    std::launder(reinterpret_cast<D*>(b))->~D();
  }
  template <typename D>
  static void boxedInvoke(void* b) {
    (**std::launder(reinterpret_cast<D**>(b)))();
  }
  template <typename D>
  static void boxedDestroy(void* b) noexcept {
    delete *std::launder(reinterpret_cast<D**>(b));
  }

  template <typename D>
  static constexpr Ops kInlineOps{
      &inlineInvoke<D>,
      std::is_trivially_copyable_v<D> ? nullptr : &inlineRelocate<D>,
      std::is_trivially_destructible_v<D> ? nullptr : &inlineDestroy<D>};
  template <typename D>
  static constexpr Ops kBoxedOps{&boxedInvoke<D>, nullptr, &boxedDestroy<D>};

  void stealFrom(SmallFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_) {
      if (ops_->relocate) {
        ops_->relocate(buf_, other.buf_);
      } else {
        std::memcpy(buf_, other.buf_, kInlineBytes);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(SmallFn) == 56, "SmallFn must leave room in a 64 B slot");

}  // namespace bgp::sim
