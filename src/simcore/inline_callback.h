// InlineCallback: small-buffer-optimized move-only callable, plus the
// CallbackArena free-list pool its oversize captures fall back to.
//
// The simulation kernel fires millions of events per second; wrapping every
// event callback in std::function costs a heap allocation (control block or
// oversize capture) plus double indirection on each of them. InlineCallback
// stores the functor inline when it is small (<= kInlineBytes) and nothrow
// movable — which covers every kernel-path capture in this repository — and
// otherwise places it in a block drawn from a CallbackArena: a size-classed
// free-list pool that grows a chunk at a time and recycles blocks forever, so
// even the oversize path performs no steady-state heap allocation. Each
// outline block carries a self-describing header (owning arena + size class),
// which keeps InlineCallback itself arena-agnostic after construction: it can
// be moved across containers and destroyed anywhere the arena still lives.
//
// Ownership contract: a CallbackArena must outlive every InlineCallback whose
// capture it holds. The Simulation declares its arena before the event-record
// slabs and epoch-task buffers for exactly this reason.
#ifndef MONOTASKS_SRC_SIMCORE_INLINE_CALLBACK_H_
#define MONOTASKS_SRC_SIMCORE_INLINE_CALLBACK_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace monosim {

// Size-classed free-list pool for callback captures too large for the inline
// buffer. Blocks are drawn from chunk allocations (many blocks per heap
// request) and returned to a per-class free list, never to the heap, so a
// steady-state workload that keeps re-creating the same oversize callback
// touches the allocator only while the pool warms up. Captures beyond the
// largest class fall through to operator new (header-tagged so Free() knows).
class CallbackArena {
 public:
  CallbackArena() = default;
  ~CallbackArena() = default;

  CallbackArena(const CallbackArena&) = delete;
  CallbackArena& operator=(const CallbackArena&) = delete;

  // Returns max_align_t-aligned storage for `bytes`. `arena` may be null, in
  // which case (as for oversize requests) the block comes from operator new;
  // either way the block must be released with Free().
  static void* Allocate(CallbackArena* arena, size_t bytes);

  // Returns `payload` (a pointer previously returned by Allocate) to its
  // owning arena's free list, or to the heap for unpooled blocks.
  static void Free(void* payload);

 private:
  struct alignas(alignof(std::max_align_t)) BlockHeader {
    CallbackArena* arena;  // Null: block came straight from operator new.
    size_t size_class;     // Index into free_, unused for unpooled blocks.
    BlockHeader* next_free;
  };

  // Payload bytes per class. Doubling classes keep internal waste under 2x;
  // the largest class comfortably holds any capture seen in this repository.
  static constexpr std::array<size_t, 5> kClassBytes = {64, 128, 256, 512, 1024};
  static constexpr size_t kBlocksPerChunk = 64;

  static void* PayloadOf(BlockHeader* header) { return header + 1; }
  static BlockHeader* HeaderOf(void* payload) {
    return static_cast<BlockHeader*>(payload) - 1;
  }

  void GrowClass(size_t size_class);

  std::array<BlockHeader*, kClassBytes.size()> free_ = {};
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
};

// Move-only type-erased void() callable. The functor lives inline when small
// and nothrow movable, otherwise in a CallbackArena block chosen at
// construction. Invoking an empty InlineCallback is a checked error.
class InlineCallback {
 public:
  // Inline capacity. 48 bytes holds a capture of six pointers — every
  // scheduling site on the kernel hot path fits with room to spare — while
  // keeping the wrapper at 64 bytes, one cache line.
  static constexpr size_t kInlineBytes = 48;

  InlineCallback() = default;

  // Wraps `fn`, drawing overflow storage from `arena` (nullable: oversize
  // captures then come from the heap, still released via the block header).
  // A null function pointer or empty std::function yields an empty callback.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback>>>
  InlineCallback(F&& fn, CallbackArena* arena = nullptr) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>,
                  "InlineCallback requires a void() callable");
    if constexpr (requires { fn == nullptr; }) {
      if (fn == nullptr) {
        return;  // Empty, like a default-constructed std::function.
      }
    }
    if constexpr (kStoresInline<D>) {
      ::new (static_cast<void*>(inline_buf_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      void* block = CallbackArena::Allocate(arena, sizeof(D));
      ::new (block) D(std::forward<F>(fn));
      outline_ = block;
      ops_ = &kOutlineOps<D>;
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { MoveFrom(other); }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    MONO_CHECK_MSG(ops_ != nullptr, "invoking an empty InlineCallback");
    ops_->invoke(this);
  }

  // Destroys the wrapped functor (returning any arena block) and empties.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(this);
      ops_ = nullptr;
    }
  }

 private:
  template <typename D>
  static constexpr bool kStoresInline =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  struct Ops {
    void (*invoke)(InlineCallback* self);
    // Move-constructs dst's storage from src's and destroys src's functor
    // (src's ops_ is cleared by the caller). Must be noexcept.
    void (*relocate)(InlineCallback* src, InlineCallback* dst);
    void (*destroy)(InlineCallback* self);
  };

  // Declared before the ops tables below: static member initializers are not
  // complete-class contexts, so they can only name members already seen.
  union {
    alignas(alignof(std::max_align_t)) unsigned char inline_buf_[kInlineBytes];
    void* outline_;
  };
  const Ops* ops_ = nullptr;

  template <typename D>
  D* InlineTarget() {
    return std::launder(reinterpret_cast<D*>(inline_buf_));
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](InlineCallback* self) { (*self->InlineTarget<D>())(); },
      [](InlineCallback* src, InlineCallback* dst) {
        ::new (static_cast<void*>(dst->inline_buf_))
            D(std::move(*src->InlineTarget<D>()));
        src->InlineTarget<D>()->~D();
      },
      [](InlineCallback* self) { self->InlineTarget<D>()->~D(); },
  };

  template <typename D>
  static constexpr Ops kOutlineOps = {
      [](InlineCallback* self) { (*static_cast<D*>(self->outline_))(); },
      [](InlineCallback* src, InlineCallback* dst) {
        dst->outline_ = src->outline_;
      },
      [](InlineCallback* self) {
        void* block = self->outline_;
        static_cast<D*>(block)->~D();
        CallbackArena::Free(block);
      },
  };

  void MoveFrom(InlineCallback& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(&other, this);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }
};

// Wraps `fn` against `arena`; a ready-made InlineCallback (e.g. one a
// component already built against the same arena) passes through without
// re-wrapping.
template <typename F>
InlineCallback WrapCallback(F&& fn, CallbackArena* arena) {
  if constexpr (std::is_same_v<std::decay_t<F>, InlineCallback>) {
    return std::forward<F>(fn);
  } else {
    return InlineCallback(std::forward<F>(fn), arena);
  }
}

}  // namespace monosim

#endif  // MONOTASKS_SRC_SIMCORE_INLINE_CALLBACK_H_
