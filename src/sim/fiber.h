// User-level fibers: heap-allocated stacks with a fast in-thread context
// switch, the mechanism every simulated processor runs on.
//
// A handoff between simulated processors is a direct stack switch — save
// callee-saved registers, swap stack pointers, restore — at tens of
// nanoseconds. On x86-64 and aarch64 the switch is hand-rolled assembly
// (sim/fiber_swap.S, fcontext-style); other architectures (or
// -DPRESTO_FIBER_FORCE_UCONTEXT builds) fall back to portable ucontext.h
// swapcontext, which is slower (it saves the signal mask via a syscall) but
// identical in semantics.
//
// Stacks are mmap'd with a PROT_NONE guard page below them plus an in-band
// canary word, so an overflow faults deterministically (or trips the canary
// check at the next switch) instead of corrupting a neighbour. The size
// comes from the PRESTO_STACK_SIZE environment variable (bytes, optional
// k/m suffix; default 1 MiB, 2 MiB under ASan whose redzones inflate
// frames), overridable per engine for tests.
//
// AddressSanitizer is fully supported: every switch is bracketed with
// __sanitizer_start_switch_fiber/__sanitizer_finish_switch_fiber so ASan
// tracks the active stack, and a dying fiber's final switch passes the
// null fake-stack handle that tells ASan to release its bookkeeping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#if defined(PRESTO_FIBER_FORCE_UCONTEXT) || \
    !(defined(__x86_64__) || defined(__aarch64__))
#define PRESTO_FIBER_ASM 0
#include <ucontext.h>
#else
#define PRESTO_FIBER_ASM 1
#endif

namespace presto::sim {

// How an Engine drives its processors' fibers. Both produce bit-identical
// simulated results for a given engine mode
// (tests/parallel_equivalence_test.cc).
enum class Backend {
  kFiber,     // every fiber on one OS thread per Engine
  kParallel,  // fibers sharded over a worker pool, windowed engine required
};

// Every backend, in the order error messages list their names.
inline constexpr Backend kAllBackends[] = {Backend::kFiber,
                                           Backend::kParallel};

// kFiber, overridable at runtime with PRESTO_BACKEND=fiber|parallel.
Backend default_backend();
const char* backend_name(Backend b);
// Parses a name as printed by backend_name; false on unknown names.
bool backend_from_name(std::string_view name, Backend* out);
// "fiber, parallel": every accepted name, for error messages.
std::string backend_names();

// A suspendable execution context: the saved stack pointer of a fiber or of
// a regular OS-thread stack (the engine driver, or a destructor performing a
// teardown kill), plus sanitizer bookkeeping. A context is resumed by
// fiber_switch()ing to it and becomes valid the moment some context switches
// away while saving into it.
struct FiberContext {
#if PRESTO_FIBER_ASM
  void* sp = nullptr;
#else
  ucontext_t uc = {};
#endif
  // ASan bookkeeping (unused but harmless otherwise). Bounds of thread
  // stacks are learned on the first switch landing that came from them.
  void* asan_fake_stack = nullptr;
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  // TSan fiber handle: created with the Fiber for fiber stacks, captured
  // lazily (__tsan_get_current_fiber) the first time a host-thread context
  // switches away. Unused outside TSan builds.
  void* tsan = nullptr;
};

class Fiber {
 public:
  // The entry runs on the fiber's own stack, must not let exceptions escape,
  // and returns the context the fiber terminally switches to when done; the
  // fiber's stack is dead (no live frames) from that moment on.
  using Entry = FiberContext* (*)(void* arg);

  Fiber(Entry entry, void* arg, std::size_t stack_size = default_stack_size());
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  FiberContext& context() { return ctx_; }

  // False once an overflow has clobbered the low end of the stack. The guard
  // page catches overflows that jump past it; the canary catches bulk
  // overwrites that started above it.
  bool canary_intact() const;
  std::size_t stack_size() const { return usable_size_; }

  // PRESTO_STACK_SIZE (bytes, k/m suffixes), parsed once.
  static std::size_t default_stack_size();

  // Internal: called by the assembly thunk on first activation. Never
  // returns, but deliberately NOT marked [[noreturn]]: ASan instruments
  // calls to noreturn functions with __asan_handle_no_return(), which
  // unpoisons the "current" stack before __sanitizer_finish_switch_fiber
  // has told ASan which stack is current — tripping an internal CHECK.
  void run_entry() noexcept;

 private:
  void seed_context();

  FiberContext ctx_;
  Entry entry_;
  void* arg_;
  void* map_ = nullptr;          // mmap base (guard page)
  std::size_t map_size_ = 0;
  unsigned char* stack_lo_ = nullptr;  // lowest usable byte, above the guard
  std::size_t usable_size_ = 0;
};

// Suspends the currently running context into `from` and resumes `to`.
// Returns when another context switches back into `from`.
void fiber_switch(FiberContext& from, FiberContext& to);

// Re-binds a host-thread context to the calling thread. A windowed lane's
// drain-loop context may be entered from a different worker thread each
// window (workers claim lanes from a shared cursor, sim/parallel.h); under
// TSan the context's fiber handle is lazily captured from whichever thread
// first switched away from it, so before draining on a possibly-different
// thread the handle must be refreshed to the current thread's. No-op outside
// TSan builds.
void bind_host_context(FiberContext& ctx);

// Final switch out of a context that will never be resumed (fiber entry
// completed, or a killed fiber finished unwinding). Tells ASan the old
// stack is dying. Never returns; not marked [[noreturn]] for the same
// ASan-instrumentation reason as Fiber::run_entry.
void fiber_exit_to(FiberContext& dying, FiberContext& to);

}  // namespace presto::sim
