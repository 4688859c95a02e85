// Global shared address space with fine-grain access control — the Tempest
// substrate (Reinhardt et al. [14]) that Blizzard implements on the CM-5.
//
// The space is carved into pages (home-assignment granularity, as in C**'s
// page-grain data distribution) and cache blocks (coherence granularity,
// 32–1024 bytes). Every node keeps its own copy of any page it touches plus
// a per-block access tag {Invalid, ReadOnly, ReadWrite}; an access that the
// tag does not permit vectors to a user-level fault handler (the coherence
// protocol), which blocks the accessing processor until the tag is upgraded.
// Data genuinely moves between per-node frames, so coherence-protocol bugs
// corrupt application results and are caught by the numeric tests.
//
// The access path mirrors the hardware split Blizzard emulates in software:
// a permitted access that lies inside one materialized page completes inline
// here, with one tag probe per block it touches and one copy (no virtual
// call, no std::function), whatever the block size. Only faults,
// page-spanning accesses and first touches of a page's frame drop into the
// out-of-line slow path.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "util/check.h"

namespace presto::trace {
class Hooks;
}  // namespace presto::trace

namespace presto::mem {

using Addr = std::uint64_t;
using BlockId = std::uint64_t;
using PageId = std::uint64_t;

enum class Tag : std::uint8_t { Invalid = 0, ReadOnly = 1, ReadWrite = 2 };

// Installed by the coherence protocol; on_fault runs on the faulting node's
// processor thread and must block it until the access is permitted.
class FaultHandler {
 public:
  virtual void on_fault(int node, BlockId b, bool is_write) = 0;

 protected:
  ~FaultHandler() = default;
};

struct MemConfig {
  std::uint32_t block_size = 32;   // power of two, 8..page_size
  std::uint32_t page_size = 4096;  // power of two, multiple of block_size
};

class GlobalSpace {
 public:
  GlobalSpace(int nodes, const MemConfig& cfg);

  int nodes() const { return nodes_; }
  std::uint32_t block_size() const { return cfg_.block_size; }
  std::uint32_t page_size() const { return cfg_.page_size; }
  std::size_t size_bytes() const { return size_; }
  std::size_t num_blocks() const { return size_ / cfg_.block_size; }
  std::size_t num_pages() const { return size_ / cfg_.page_size; }

  BlockId block_of(Addr a) const { return a >> block_shift_; }
  PageId page_of(Addr a) const { return a >> page_shift_; }
  PageId page_of_block(BlockId b) const {
    return b >> (page_shift_ - block_shift_);
  }
  Addr block_base(BlockId b) const { return b << block_shift_; }

  int home_of_page(PageId p) const {
    return page_home_[static_cast<std::size_t>(p)];
  }
  int home_of_block(BlockId b) const { return home_of_page(page_of_block(b)); }
  int home_of_addr(Addr a) const { return home_of_page(page_of(a)); }

  // ---- Allocation ----------------------------------------------------------

  // Allocates `bytes` rounded up to whole pages; `home(i)` gives the home
  // node of the i-th page of the allocation. Returns the base address.
  Addr alloc(std::size_t bytes, const std::function<int(PageId)>& home);

  // Serializer for structural growth: alloc resizes every node's tag and
  // frame tables, which no concurrently-draining lane may observe. A
  // windowed engine installs its window-boundary gate here
  // (sim::Engine::boundary_gate); unset (the default), growth runs inline.
  void set_grow_gate(std::function<void(std::function<void()>)> gate) {
    grow_gate_ = std::move(gate);
  }

  // Allocates all pages on one node.
  Addr alloc_on_node(int node, std::size_t bytes);

  // Small-object bump allocation from a per-node arena (pages homed at the
  // node). Used for dynamically grown structures (quad-/oct-tree cells).
  Addr arena_alloc(int node, std::size_t bytes, std::size_t align = 8);

  // Arena mark/reset let an application rebuild a structure each iteration
  // at the *same* addresses (Barnes rebuilds its tree every step; address
  // stability is what makes the communication schedule repetitive).
  std::size_t arena_mark(int node) const;
  void arena_reset(int node, std::size_t mark);

  // ---- Commutative (reduction) regions -------------------------------------

  // Marks [base, base+bytes) as commutative: every block the range touches
  // may be updated with order-independent privatized int64 adds
  // (NodeCtx::cc_add). The marking is advisory for invalidation protocols —
  // only the ccached protocol, the tracer's merge attribution, and the
  // oracle's exemptions consult it. Set before the parallel section begins;
  // marks are never cleared.
  void set_commutative(Addr base, std::size_t bytes);
  bool is_commutative(BlockId b) const {
    const std::size_t i = static_cast<std::size_t>(b);
    return i < commutative_.size() && commutative_[i] != 0;
  }

  // ---- Access control ------------------------------------------------------

  // Tags are stored in page-granularity chunks materialized on first
  // set_tag: a node that never touches a page holds a null pointer for it,
  // which reads as Invalid — so per-node tag storage is O(pages touched),
  // not O(nodes × blocks), and a 1024-node space stays affordable.
  Tag tag(int node, BlockId b) const {
    const std::uint8_t* c =
        tags_[static_cast<std::size_t>(node)]
             [static_cast<std::size_t>(b >> tag_chunk_shift_)]
                 .get();
    if (c == nullptr) return Tag::Invalid;
    return static_cast<Tag>(c[b & tag_chunk_mask_]);
  }
  void set_tag(int node, BlockId b, Tag t) {
    std::uint8_t* c = tags_[static_cast<std::size_t>(node)]
                           [static_cast<std::size_t>(b >> tag_chunk_shift_)]
                               .get();
    if (c == nullptr) {
      if (t == Tag::Invalid) return;  // null chunk already reads as Invalid
      c = materialize_tags(node, static_cast<PageId>(b >> tag_chunk_shift_));
    }
    c[b & tag_chunk_mask_] = static_cast<std::uint8_t>(t);
  }

  // Host bytes held by materialized tag chunks and the per-node chunk
  // tables (telemetry for the scale benchmarks).
  std::size_t tag_bytes_resident() const;

  // Node-local bytes of block b if its page frame has been materialized,
  // else nullptr. Never allocates — safe for whole-space validation sweeps.
  const std::byte* peek_block(int node, BlockId b) const {
    const PageId p = page_of_block(b);
    const std::byte* f =
        frames_[static_cast<std::size_t>(node)][static_cast<std::size_t>(p)]
            .get();
    if (f == nullptr) return nullptr;
    return f + (block_base(b) & (cfg_.page_size - 1));
  }

  // Pointer to the node-local bytes of block b (frame allocated on demand).
  std::byte* block_data(int node, BlockId b) {
    const PageId p = page_of_block(b);
    std::byte* f =
        frames_[static_cast<std::size_t>(node)][static_cast<std::size_t>(p)]
            .get();
    if (f == nullptr) f = materialize_frame(node, p);
    return f + (block_base(b) & (cfg_.page_size - 1));
  }

  // ---- Application access path (runs on the node's processor thread) ------

  void set_fault_handler(FaultHandler* h) { fault_ = h; }

  // The run's observer (trace/hooks.h), copied from the engine's by
  // runtime::System so the per-access path tests a member; nullptr
  // detaches. Its access hooks see every completed access, once per block.
  void set_trace_hooks(trace::Hooks* h) { hooks_ = h; }

  // An access inside one page whose frame is materialized and whose every
  // block the tag permits is one copy of n bytes, block-spanning or not;
  // an attached observer then sees the same per-block calls the slow path
  // makes. Faults, page-spanning accesses and unmaterialized frames take the
  // out-of-line slow path, which moves the same bytes block by block.
  void read(int node, Addr a, void* out, std::size_t n) {
    if (const std::byte* src = permitted(node, a, n, Tag::ReadOnly))
        [[likely]] {
      std::memcpy(out, src, n);
      if (hooks_ != nullptr) [[unlikely]] observe_read(node, a, out, n);
      return;
    }
    read_slow(node, a, out, n);
  }

  void write(int node, Addr a, const void* in, std::size_t n) {
    if (std::byte* dst = permitted(node, a, n, Tag::ReadWrite)) [[likely]] {
      std::memcpy(dst, in, n);
      if (hooks_ != nullptr) [[unlikely]] observe_write(node, a, in, n);
      return;
    }
    write_slow(node, a, in, n);
  }

  // Read-modify-write executed without yielding between the read and the
  // write once ReadWrite permission is held (the primitive shared locks are
  // built on). `fn` mutates the bytes in place.
  void rmw(int node, Addr a, std::size_t n,
           const std::function<void(void*)>& fn);

  template <typename T>
  T read_value(int node, Addr a) {
    T v;
    read(node, a, &v, sizeof(T));
    return v;
  }
  template <typename T>
  void write_value(int node, Addr a, const T& v) {
    write(node, a, &v, sizeof(T));
  }

 private:
  Addr alloc_now(std::size_t bytes, const std::function<int(PageId)>& home);
  void grow_to(std::size_t new_size);
  std::byte* materialize_frame(int node, PageId p);
  std::uint8_t* materialize_tags(int node, PageId p);
  // The node-local bytes at a when [a, a+n) lies in one page whose frame is
  // materialized and every block it touches holds at least `need` (tags
  // order Invalid < ReadOnly < ReadWrite); else nullptr.
  std::byte* permitted(int node, Addr a, std::size_t n, Tag need) {
    const std::size_t off =
        static_cast<std::size_t>(a) & (cfg_.page_size - 1);
    if (off + n > cfg_.page_size) return nullptr;
    const auto nd = static_cast<std::size_t>(node);
    const auto p = static_cast<std::size_t>(a >> page_shift_);
    const std::uint8_t* t = tags_[nd][p].get();
    std::byte* f = frames_[nd][p].get();
    if (t == nullptr || f == nullptr) return nullptr;
    const std::size_t last = (off + (n > 0 ? n - 1 : 0)) >> block_shift_;
    for (std::size_t i = off >> block_shift_; i <= last; ++i)
      if (t[i] < static_cast<std::uint8_t>(need)) return nullptr;
    return f + off;
  }
  void read_slow(int node, Addr a, void* out, std::size_t n);
  void write_slow(int node, Addr a, const void* in, std::size_t n);
  // The observer calls of a fast-path access, one per block in block order.
  void observe_read(int node, Addr a, const void* out, std::size_t n);
  void observe_write(int node, Addr a, const void* in, std::size_t n);
  // Vectors to the fault handler until the tag permits the access.
  void resolve_fault(int node, BlockId b, bool is_write);

  const int nodes_;
  const MemConfig cfg_;
  int block_shift_ = 0;
  int page_shift_ = 0;
  int tag_chunk_shift_ = 0;  // page_shift_ - block_shift_ (blocks per page)
  BlockId tag_chunk_mask_ = 0;
  std::size_t size_ = 0;

  std::vector<int> page_home_;
  // tags_[node][page] -> per-page tag chunk (null = all Invalid);
  // frames_[node][page] allocated lazily.
  std::vector<std::vector<std::unique_ptr<std::uint8_t[]>>> tags_;
  std::vector<std::vector<std::unique_ptr<std::byte[]>>> frames_;

  struct Arena {
    Addr cur = 0;
    Addr end = 0;
    std::vector<Addr> chunks;  // page-aligned chunks in allocation order
  };
  std::vector<Arena> arenas_;

  // commutative_[block] != 0 — block belongs to a set_commutative region.
  // A plain byte vector (one per block in the space): regions are rare and
  // contiguous, and is_commutative sits on protocol hot paths.
  std::vector<std::uint8_t> commutative_;

  FaultHandler* fault_ = nullptr;
  trace::Hooks* hooks_ = nullptr;
  std::function<void(std::function<void()>)> grow_gate_;
};

}  // namespace presto::mem
