// Small-buffer-optimized move-only callable for scheduled closures.
//
// The hot events (processor resumes, message deliveries, handler
// dispatches) are plain (handler, object) pairs and need no closure
// (sim/engine.h). What schedules a closure — Stache's queued-request retry,
// ccached's pump, tests and host-cost probes — captures at most
// kInlineSize bytes on every steady-state path, so scheduling one never
// touches the heap, unlike std::function, which boxes any capture larger
// than its (implementation-defined, often 16-byte) inline buffer. Oversized
// callables still work via a boxed fallback so cold-path and test code can
// schedule arbitrary closures.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace presto::sim {

class InlineFn {
 public:
  // Large enough for the biggest steady-state capture (Stache's
  // queued-request retry: this + home + block + requester + flag) with
  // headroom.
  static constexpr std::size_t kInlineSize = 48;

  InlineFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (*std::launder(static_cast<Fn*>(p)))(); };
      relocate_ = [](void* dst, void* src) {
        Fn* s = std::launder(static_cast<Fn*>(src));
        if (dst != nullptr) ::new (dst) Fn(std::move(*s));
        s->~Fn();
      };
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = [](void* p) { (**std::launder(static_cast<Fn**>(p)))(); };
      relocate_ = [](void* dst, void* src) {
        Fn** s = std::launder(static_cast<Fn**>(src));
        if (dst != nullptr)
          ::new (dst) Fn*(*s);  // ownership moves with the pointer
        else
          delete *s;
      };
    }
  }

  InlineFn(InlineFn&& o) noexcept
      : invoke_(o.invoke_), relocate_(o.relocate_) {
    if (relocate_ != nullptr) o.relocate_(buf_, o.buf_);
    o.invoke_ = nullptr;
    o.relocate_ = nullptr;
  }

  InlineFn& operator=(InlineFn&& o) noexcept {
    if (this != &o) {
      reset();
      invoke_ = o.invoke_;
      relocate_ = o.relocate_;
      if (relocate_ != nullptr) o.relocate_(buf_, o.buf_);
      o.invoke_ = nullptr;
      o.relocate_ = nullptr;
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  void operator()() { invoke_(buf_); }

  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  void reset() {
    if (relocate_ != nullptr) {
      relocate_(nullptr, buf_);
      invoke_ = nullptr;
      relocate_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  void (*invoke_)(void*) = nullptr;
  // relocate_(dst, src): move-construct into dst and end src's lifetime;
  // with dst == nullptr, just destroy src.
  void (*relocate_)(void* dst, void* src) = nullptr;
};

}  // namespace presto::sim
