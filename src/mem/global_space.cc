#include "mem/global_space.h"

#include <algorithm>
#include <bit>

#include "trace/hooks.h"

namespace presto::mem {

namespace {
int log2_exact(std::uint32_t v) {
  PRESTO_CHECK(std::has_single_bit(v), "not a power of two: " << v);
  return std::countr_zero(v);
}

// Calls fn(block, offset in the block, offset in the caller's buffer,
// length) for each block [a, a+n) touches, in block order.
template <typename Fn>
void for_each_block(Addr a, std::size_t n, int block_shift, Fn&& fn) {
  const Addr mask = (Addr{1} << block_shift) - 1;
  for (std::size_t pos = 0; pos < n;) {
    const auto off = static_cast<std::size_t>(a & mask);
    const std::size_t len =
        std::min(n - pos, static_cast<std::size_t>(mask + 1) - off);
    fn(static_cast<BlockId>(a >> block_shift), off, pos, len);
    a += len;
    pos += len;
  }
}
}  // namespace

GlobalSpace::GlobalSpace(int nodes, const MemConfig& cfg)
    : nodes_(nodes),
      cfg_(cfg),
      block_shift_(log2_exact(cfg.block_size)),
      page_shift_(log2_exact(cfg.page_size)),
      tag_chunk_shift_(page_shift_ - block_shift_),
      tag_chunk_mask_((1ULL << (page_shift_ - block_shift_)) - 1),
      tags_(static_cast<std::size_t>(nodes)),
      frames_(static_cast<std::size_t>(nodes)),
      arenas_(static_cast<std::size_t>(nodes)) {
  PRESTO_CHECK(nodes > 0 && nodes <= 65536, "node count " << nodes);
  PRESTO_CHECK(cfg.page_size % cfg.block_size == 0,
               "page size not a multiple of block size");
}

void GlobalSpace::grow_to(std::size_t new_size) {
  const std::size_t npages = new_size >> page_shift_;
  for (int n = 0; n < nodes_; ++n) {
    tags_[static_cast<std::size_t>(n)].resize(npages);
    frames_[static_cast<std::size_t>(n)].resize(npages);
  }
  page_home_.resize(npages, -1);
  size_ = new_size;
}

Addr GlobalSpace::alloc(std::size_t bytes,
                        const std::function<int(PageId)>& home) {
  if (grow_gate_) {
    Addr base = 0;
    grow_gate_([&] { base = alloc_now(bytes, home); });
    return base;
  }
  return alloc_now(bytes, home);
}

Addr GlobalSpace::alloc_now(std::size_t bytes,
                            const std::function<int(PageId)>& home) {
  PRESTO_CHECK(bytes > 0, "zero-byte allocation");
  const std::size_t pages =
      (bytes + cfg_.page_size - 1) / cfg_.page_size;
  const Addr base = size_;
  const PageId first_page = base >> page_shift_;
  grow_to(size_ + pages * cfg_.page_size);

  const std::size_t blocks_per_page =
      cfg_.page_size / cfg_.block_size;
  for (std::size_t p = 0; p < pages; ++p) {
    const int h = home(static_cast<PageId>(p));
    PRESTO_CHECK(h >= 0 && h < nodes_, "bad home " << h);
    page_home_[static_cast<std::size_t>(first_page) + p] = h;
    // The home starts with ReadWrite permission on all its blocks.
    const BlockId b0 =
        (first_page + p) << (page_shift_ - block_shift_);
    for (std::size_t b = 0; b < blocks_per_page; ++b)
      set_tag(h, b0 + b, Tag::ReadWrite);
  }
  return base;
}

Addr GlobalSpace::alloc_on_node(int node, std::size_t bytes) {
  return alloc(bytes, [node](PageId) { return node; });
}

Addr GlobalSpace::arena_alloc(int node, std::size_t bytes, std::size_t align) {
  PRESTO_CHECK(bytes <= cfg_.page_size,
               "arena object " << bytes << " exceeds page size");
  auto& ar = arenas_[static_cast<std::size_t>(node)];
  // Align the linear cursor.
  Addr pos = (ar.cur + align - 1) & ~static_cast<Addr>(align - 1);
  // Objects may not straddle (non-contiguous) arena chunks.
  if ((pos & (cfg_.page_size - 1)) + bytes > cfg_.page_size)
    pos = (pos + cfg_.page_size) & ~static_cast<Addr>(cfg_.page_size - 1);
  const std::size_t chunk = static_cast<std::size_t>(pos >> page_shift_);
  while (chunk >= ar.chunks.size())
    ar.chunks.push_back(alloc_on_node(node, cfg_.page_size));
  ar.cur = pos + bytes;
  return ar.chunks[chunk] + (pos & (cfg_.page_size - 1));
}

std::size_t GlobalSpace::arena_mark(int node) const {
  return static_cast<std::size_t>(arenas_[static_cast<std::size_t>(node)].cur);
}

void GlobalSpace::arena_reset(int node, std::size_t mark) {
  auto& ar = arenas_[static_cast<std::size_t>(node)];
  PRESTO_CHECK(mark <= ar.cur, "arena reset past current position");
  ar.cur = mark;
}

void GlobalSpace::set_commutative(Addr base, std::size_t bytes) {
  PRESTO_CHECK(bytes > 0, "empty commutative region");
  PRESTO_CHECK(base + bytes <= size_, "commutative region past end of space");
  const BlockId first = block_of(base);
  const BlockId last = block_of(base + bytes - 1);
  if (commutative_.size() <= static_cast<std::size_t>(last))
    commutative_.resize(static_cast<std::size_t>(last) + 1, 0);
  for (BlockId b = first; b <= last; ++b)
    commutative_[static_cast<std::size_t>(b)] = 1;
}

std::uint8_t* GlobalSpace::materialize_tags(int node, PageId p) {
  auto& c = tags_[static_cast<std::size_t>(node)][static_cast<std::size_t>(p)];
  const std::size_t bpp = cfg_.page_size / cfg_.block_size;
  c = std::make_unique<std::uint8_t[]>(bpp);
  std::memset(c.get(), static_cast<int>(Tag::Invalid), bpp);
  return c.get();
}

std::size_t GlobalSpace::tag_bytes_resident() const {
  const std::size_t bpp = cfg_.page_size / cfg_.block_size;
  std::size_t n = 0;
  for (const auto& per_node : tags_) {
    n += per_node.capacity() * sizeof(per_node[0]);
    for (const auto& c : per_node)
      if (c != nullptr) n += bpp;
  }
  return n;
}

std::byte* GlobalSpace::materialize_frame(int node, PageId p) {
  auto& f = frames_[static_cast<std::size_t>(node)][static_cast<std::size_t>(p)];
  f = std::make_unique<std::byte[]>(cfg_.page_size);
  std::memset(f.get(), 0, cfg_.page_size);
  return f.get();
}

void GlobalSpace::resolve_fault(int node, BlockId b, bool is_write) {
  // The handler may install a tag weaker than requested (or the tag may be
  // stolen again before the processor resumes); re-check until it sticks.
  do {
    PRESTO_CHECK(fault_ != nullptr, "no fault handler installed");
    fault_->on_fault(node, b, is_write);
  } while (is_write ? tag(node, b) != Tag::ReadWrite
                    : tag(node, b) == Tag::Invalid);
}

void GlobalSpace::read_slow(int node, Addr a, void* out, std::size_t n) {
  std::byte* dst = static_cast<std::byte*>(out);
  for_each_block(a, n, block_shift_,
                 [&](BlockId b, std::size_t off, std::size_t pos,
                     std::size_t len) {
                   if (tag(node, b) == Tag::Invalid)
                     resolve_fault(node, b, /*is_write=*/false);
                   std::memcpy(dst + pos, block_data(node, b) + off, len);
                   if (hooks_ != nullptr) [[unlikely]]
                     hooks_->on_app_read(node, b, off, dst + pos, len);
                 });
}

void GlobalSpace::write_slow(int node, Addr a, const void* in, std::size_t n) {
  const std::byte* src = static_cast<const std::byte*>(in);
  for_each_block(a, n, block_shift_,
                 [&](BlockId b, std::size_t off, std::size_t pos,
                     std::size_t len) {
                   if (tag(node, b) != Tag::ReadWrite)
                     resolve_fault(node, b, /*is_write=*/true);
                   std::memcpy(block_data(node, b) + off, src + pos, len);
                   if (hooks_ != nullptr) [[unlikely]]
                     hooks_->on_app_write(node, b, off, src + pos, len);
                 });
}

void GlobalSpace::observe_read(int node, Addr a, const void* out,
                               std::size_t n) {
  const std::byte* seen = static_cast<const std::byte*>(out);
  for_each_block(a, n, block_shift_,
                 [&](BlockId b, std::size_t off, std::size_t pos,
                     std::size_t len) {
                   hooks_->on_app_read(node, b, off, seen + pos, len);
                 });
}

void GlobalSpace::observe_write(int node, Addr a, const void* in,
                                std::size_t n) {
  const std::byte* data = static_cast<const std::byte*>(in);
  for_each_block(a, n, block_shift_,
                 [&](BlockId b, std::size_t off, std::size_t pos,
                     std::size_t len) {
                   hooks_->on_app_write(node, b, off, data + pos, len);
                 });
}

void GlobalSpace::rmw(int node, Addr a, std::size_t n,
                      const std::function<void(void*)>& fn) {
  const BlockId b = block_of(a);
  PRESTO_CHECK(block_of(a + n - 1) == b, "rmw may not straddle blocks");
  if (tag(node, b) != Tag::ReadWrite) resolve_fault(node, b, /*is_write=*/true);
  // Holding ReadWrite and not yielding makes the read-modify-write atomic
  // with respect to all other simulated processors.
  std::byte* p = block_data(node, b) + (a & (cfg_.block_size - 1));
  fn(p);
  if (hooks_ != nullptr) [[unlikely]]
    hooks_->on_app_write(node, b, a & (cfg_.block_size - 1), p, n);
}

}  // namespace presto::mem
