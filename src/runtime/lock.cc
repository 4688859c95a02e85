#include "runtime/lock.h"

#include "trace/hooks.h"

namespace presto::runtime {

SharedLock SharedLock::create(mem::GlobalSpace& space, int home) {
  SharedLock l;
  l.word_ = space.arena_alloc(home, sizeof(std::uint64_t),
                              /*align=*/space.block_size());
  return l;
}

void SharedLock::acquire(NodeCtx& c) {
  const sim::Time t0 = c.proc().now();
  trace::Hooks* h = c.proc().engine().trace_hooks();
  const std::uint64_t lock_block = c.space().block_of(word_);
  if (h != nullptr) [[unlikely]]
    h->on_lock_acquire(c.id(), lock_block, t0);
  bool contended = false;
  for (;;) {
    bool got = false;
    c.rmw<std::uint64_t>(word_, [&](std::uint64_t& w) {
      if (w == 0) {
        w = 1;
        got = true;
      }
    });
    if (got) break;
    contended = true;
    // Back off, letting pending protocol events (including the holder's
    // release) make progress.
    c.charge(sim::microseconds(5));
    c.proc().yield();
  }
  if (h != nullptr) [[unlikely]]
    h->on_lock_acquired(c.id(), lock_block, c.proc().now(), contended);
  // Only contended acquisitions count as lock wait; the cost of fetching
  // the lock block itself is already accounted as remote wait.
  if (contended) c.counters().lock_wait += c.proc().now() - t0;
}

void SharedLock::release(NodeCtx& c) {
  trace::Hooks* h = c.proc().engine().trace_hooks();
  if (h != nullptr) [[unlikely]]
    h->on_lock_release(c.id(), c.space().block_of(word_), c.proc().now());
  c.rmw<std::uint64_t>(word_, [](std::uint64_t& w) { w = 0; });
}

}  // namespace presto::runtime
