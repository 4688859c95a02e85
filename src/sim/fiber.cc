#include "sim/fiber.h"

#include <cstdlib>
#include <cstring>
#include <new>

#include <sys/mman.h>
#include <unistd.h>

#include "util/check.h"

#if defined(__SANITIZE_ADDRESS__)
#define PRESTO_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PRESTO_ASAN 1
#endif
#endif
#ifndef PRESTO_ASAN
#define PRESTO_ASAN 0
#endif

#if PRESTO_ASAN
#include <sanitizer/common_interface_defs.h>
#endif

#if defined(__SANITIZE_THREAD__)
#define PRESTO_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PRESTO_TSAN 1
#endif
#endif
#ifndef PRESTO_TSAN
#define PRESTO_TSAN 0
#endif

#if PRESTO_TSAN
#include <sanitizer/tsan_interface.h>
#endif

#if PRESTO_FIBER_ASM
extern "C" {
// sim/fiber_swap.S
void presto_fiber_swap(void** save_sp, void* new_sp);
void presto_fiber_thunk();
}
#endif

extern "C" void presto_fiber_cxx_entry(void* fiber);

namespace presto::sim {

namespace {

constexpr std::uint64_t kCanary = 0xF1BE25AFE57ACC11ULL;  // "fiber-safe stack"

// The context that performed the switch we just landed from. Written by the
// switching side immediately before the raw swap, read by the landing side
// immediately after; single-OS-thread per engine makes this exact, and
// thread_local keeps concurrent engines (util/pool.h) independent.
thread_local FiberContext* tls_incoming = nullptr;

// Completes a switch on the landing side: tells ASan which stack is live
// again and learns the bounds of the stack we came from (fills them in for
// thread-stack contexts ASan knows but we never measured).
inline void finish_incoming_switch(FiberContext& self) {
#if PRESTO_ASAN
  FiberContext* prev = tls_incoming;
  __sanitizer_finish_switch_fiber(self.asan_fake_stack, &prev->stack_bottom,
                                  &prev->stack_size);
#else
  (void)self;
#endif
}

inline void raw_swap(FiberContext& from, FiberContext& to) {
#if PRESTO_FIBER_ASM
  presto_fiber_swap(&from.sp, to.sp);
#else
  PRESTO_CHECK(swapcontext(&from.uc, &to.uc) == 0, "swapcontext failed");
#endif
}

std::size_t page_size() {
  static const std::size_t p = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return p;
}

std::size_t round_up_pages(std::size_t n) {
  const std::size_t p = page_size();
  return (n + p - 1) / p * p;
}

#if !PRESTO_FIBER_ASM
// makecontext only passes ints; smuggle the Fiber* through two halves.
void ucontext_trampoline(unsigned hi, unsigned lo) {
  const auto bits = (static_cast<std::uintptr_t>(hi) << 32) |
                    static_cast<std::uintptr_t>(lo);
  presto_fiber_cxx_entry(reinterpret_cast<void*>(bits));
}
#endif

}  // namespace

Backend default_backend() {
  static const Backend b = [] {
    Backend parsed = Backend::kFiber;
    const char* v = std::getenv("PRESTO_BACKEND");
    if (v != nullptr && v[0] != '\0')
      PRESTO_CHECK(backend_from_name(v, &parsed),
                   "PRESTO_BACKEND: unknown backend '"
                       << v << "' (expected one of: " << backend_names()
                       << ")");
    return parsed;
  }();
  return b;
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kFiber: return "fiber";
    case Backend::kParallel: return "parallel";
  }
  return "unknown";
}

bool backend_from_name(std::string_view name, Backend* out) {
  for (const Backend b : kAllBackends) {
    if (name == backend_name(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

std::string backend_names() {
  std::string names;
  for (const Backend b : kAllBackends) {
    if (!names.empty()) names += ", ";
    names += backend_name(b);
  }
  return names;
}

std::size_t Fiber::default_stack_size() {
  static const std::size_t size = [] {
    // ASan redzones roughly double frame sizes; give fibers headroom.
    std::size_t bytes = PRESTO_ASAN ? 2u * 1024 * 1024 : 1u * 1024 * 1024;
    const char* v = std::getenv("PRESTO_STACK_SIZE");
    if (v != nullptr && v[0] != '\0') {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(v, &end, 10);
      std::size_t mult = 1;
      if (end != nullptr && (*end == 'k' || *end == 'K')) {
        mult = 1024;
        ++end;
      } else if (end != nullptr && (*end == 'm' || *end == 'M')) {
        mult = 1024 * 1024;
        ++end;
      }
      PRESTO_CHECK(end != nullptr && *end == '\0' && n > 0,
                   "PRESTO_STACK_SIZE: expected bytes with optional k/m "
                   "suffix, got '"
                       << v << "'");
      bytes = static_cast<std::size_t>(n) * mult;
    }
    // Handler events run on whichever fiber drives the loop; below this the
    // guard page would fire on perfectly ordinary runs.
    constexpr std::size_t kMin = 64 * 1024;
    return bytes < kMin ? kMin : bytes;
  }();
  return size;
}

Fiber::~Fiber() {
#if PRESTO_TSAN
  // Never the running fiber here: a live fiber is killed (and terminally
  // switched out of) before its Fiber is destroyed.
  if (ctx_.tsan != nullptr) __tsan_destroy_fiber(ctx_.tsan);
#endif
  if (map_ != nullptr) munmap(map_, map_size_);
}

Fiber::Fiber(Entry entry, void* arg, std::size_t stack_size)
    : entry_(entry), arg_(arg) {
#if PRESTO_TSAN
  ctx_.tsan = __tsan_create_fiber(0);
#endif
  usable_size_ = round_up_pages(stack_size);
  map_size_ = usable_size_ + page_size();  // + low guard page
  map_ = mmap(nullptr, map_size_, PROT_READ | PROT_WRITE,
              MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  PRESTO_CHECK(map_ != MAP_FAILED,
               "fiber stack mmap of " << map_size_ << " bytes failed");
  PRESTO_CHECK(mprotect(map_, page_size(), PROT_NONE) == 0,
               "fiber guard page mprotect failed");
  stack_lo_ = static_cast<unsigned char*>(map_) + page_size();
  std::memcpy(stack_lo_, &kCanary, sizeof(kCanary));
  ctx_.stack_bottom = stack_lo_;
  ctx_.stack_size = usable_size_;
  seed_context();
}

bool Fiber::canary_intact() const {
  std::uint64_t v;
  std::memcpy(&v, stack_lo_, sizeof(v));
  return v == kCanary;
}

void Fiber::seed_context() {
#if PRESTO_FIBER_ASM
  unsigned char* top = stack_lo_ + usable_size_;  // page-aligned high end
#if defined(__x86_64__)
  // Mirror presto_fiber_swap's frame so its restore path "returns" into
  // presto_fiber_thunk with r12 = this. Layout (see fiber_swap.S):
  //   sp+0  mxcsr | fcw<<32        sp+32 r12 = this
  //   sp+8  r15                    sp+40 rbx
  //   sp+16 r14                    sp+48 rbp
  //   sp+24 r13                    sp+56 return address = thunk
  //   (sp+64: zero sentinel return address for backtracers)
  // sp ends ≡ 8 (mod 16) so the thunk sees a call-convention stack.
  std::uint64_t* sp = reinterpret_cast<std::uint64_t*>(top) - 9;
  std::uint32_t mxcsr;
  std::uint16_t fcw;
  __asm__ volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
  sp[0] = static_cast<std::uint64_t>(mxcsr) |
          (static_cast<std::uint64_t>(fcw) << 32);
  sp[1] = 0;                                     // r15
  sp[2] = 0;                                     // r14
  sp[3] = 0;                                     // r13
  sp[4] = reinterpret_cast<std::uint64_t>(this); // r12
  sp[5] = 0;                                     // rbx
  sp[6] = 0;                                     // rbp
  sp[7] = reinterpret_cast<std::uint64_t>(&presto_fiber_thunk);
  sp[8] = 0;                                     // sentinel return address
  ctx_.sp = sp;
#elif defined(__aarch64__)
  // 160-byte frame restored by presto_fiber_swap: x19 = this at +0, the
  // return target x30 = thunk at +88; sp stays 16-aligned throughout.
  std::uint64_t* sp = reinterpret_cast<std::uint64_t*>(top) - 22;  // 160+16
  std::memset(sp, 0, 22 * sizeof(std::uint64_t));
  sp[0] = reinterpret_cast<std::uint64_t>(this);  // x19
  sp[11] = reinterpret_cast<std::uint64_t>(&presto_fiber_thunk);  // x30
  ctx_.sp = sp;
#endif
#else
  PRESTO_CHECK(getcontext(&ctx_.uc) == 0, "getcontext failed");
  ctx_.uc.uc_stack.ss_sp = stack_lo_;
  ctx_.uc.uc_stack.ss_size = usable_size_;
  ctx_.uc.uc_link = nullptr;  // entries never return; they fiber_exit_to
  const auto bits = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx_.uc, reinterpret_cast<void (*)()>(&ucontext_trampoline), 2,
              static_cast<unsigned>(bits >> 32),
              static_cast<unsigned>(bits & 0xFFFFFFFFu));
#endif
}

void Fiber::run_entry() noexcept {
  finish_incoming_switch(ctx_);
  FiberContext* exit_to = entry_(arg_);
  fiber_exit_to(ctx_, *exit_to);
}

void fiber_switch(FiberContext& from, FiberContext& to) {
#if PRESTO_ASAN
  __sanitizer_start_switch_fiber(&from.asan_fake_stack, to.stack_bottom,
                                 to.stack_size);
#endif
#if PRESTO_TSAN
  // Host-thread contexts (engine driver, lane drain loops, teardown killers)
  // get their TSan fiber handle the first time they switch away.
  if (from.tsan == nullptr) from.tsan = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(to.tsan, 0);
#endif
  tls_incoming = &from;
  raw_swap(from, to);
  finish_incoming_switch(from);
}

void bind_host_context(FiberContext& ctx) {
#if PRESTO_TSAN
  ctx.tsan = __tsan_get_current_fiber();
#else
  (void)ctx;
#endif
}

void fiber_exit_to(FiberContext& dying, FiberContext& to) {
#if PRESTO_ASAN
  // Null fake-stack handle: the outgoing stack is gone for good; ASan frees
  // its bookkeeping instead of expecting a later return.
  __sanitizer_start_switch_fiber(nullptr, to.stack_bottom, to.stack_size);
#endif
#if PRESTO_TSAN
  if (dying.tsan == nullptr) dying.tsan = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(to.tsan, 0);
#endif
  tls_incoming = &dying;
  raw_swap(dying, to);
  PRESTO_FAIL("dead fiber resumed");
}

}  // namespace presto::sim

extern "C" void presto_fiber_cxx_entry(void* fiber) {
  static_cast<presto::sim::Fiber*>(fiber)->run_entry();
}
