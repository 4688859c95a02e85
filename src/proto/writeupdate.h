// Application-specific write-update protocol — the substrate of the
// hand-optimized SPMD baseline (Falsafi et al. [5]) that the paper compares
// Barnes against.
//
// Unlike Stache, writes never invalidate: a write fault upgrades the local
// copy in place (fetching current contents from the home if the block was
// not cached) and the writer remembers the block as dirty. The application
// publishes its dirty data at phase boundaries with publish(), which
// pushes coalesced update messages to the home and on to every recorded
// reader, blocking until the final recipients acknowledge. As the paper
// notes (§3.2), update protocols do not provide sequential consistency; the
// SPMD application is responsible for phase synchronization (publish +
// barrier before readers consume).
//
// Metadata layout mirrors Stache's flat directory: reader sets and dirty
// marks live in block-indexed page chunks (util::BlockTable) keyed straight
// by block id, and in-flight forward state lives in a token slot pool —
// the wire token is the slot index + 1, recycled LIFO, so steady-state
// publishing never touches a hash table or allocates.
#pragma once

#include <vector>

#include "proto/protocol.h"
#include "util/bitset.h"
#include "util/block_table.h"

namespace presto::proto {

class WriteUpdateProtocol : public Protocol {
 public:
  WriteUpdateProtocol(sim::Engine& engine, net::Network& net,
                      mem::GlobalSpace& space, stats::Recorder& rec,
                      const ProtoCosts& costs);

  const char* name() const override { return "write-update"; }

  void on_fault(int node, mem::BlockId b, bool is_write) override;

  // Pushes every dirty/homed block in [base, base+len) to its sharers and
  // waits for end-to-end acknowledgements. Runs on the node's processor
  // thread; the application must follow with a barrier before readers
  // consume the values.
  void publish(int node, mem::Addr base, std::size_t len) override;

  std::size_t metadata_bytes() const override;

 protected:
  void handle(int self, const Msg& m) override;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct ForwardState {
    std::int32_t writer = -1;
    std::int32_t acks_left = 0;
    std::uint32_t count = 0;
    bool live = false;
    std::uint32_t next_free = kNoSlot;
  };

  // Reader set recorded at `home` for block b (empty if never recorded).
  util::NodeSet reader_mask(int home, mem::BlockId b) {
    ++rec_.node(home).dir_probes;
    const util::NodeSet* s =
        readers_[static_cast<std::size_t>(home)].peek(b);
    return s == nullptr ? util::NodeSet{} : *s;
  }

  // Token slot pool, sharded per home: wire token = slot + 1 (0 means
  // "final ack, no forward state"). Forward state lives at the run's home
  // and is allocated, read and released only from the home's handlers — its
  // lane — so concurrently-draining lanes never share a pool (the windowed
  // engine's workers would race on a global freelist). Slots recycle LIFO;
  // each pool only grows to the peak number of concurrently in-flight
  // forwarded runs homed there.
  std::uint64_t alloc_token(int home, ForwardState init);
  ForwardState& forward_state(int home, std::uint64_t token);
  void release_token(int home, std::uint64_t token);

  // Forwards a run of blocks installed at the home to all readers; returns
  // the number of reader messages sent (0 if no readers).
  int forward_run(int home, mem::BlockId b0, std::uint32_t count,
                  std::uint64_t token, int skip_node);
  void send_update_run(int src, int dst, mem::BlockId b0, std::uint32_t count,
                       std::uint64_t token, bool from_app);

  // readers_[home].at(block) — remote ReadOnly copies recorded at the home.
  std::vector<util::BlockTable<util::NodeSet>> readers_;
  // dirty_[node].at(block) — non-home blocks written locally since startup.
  std::vector<util::BlockTable<std::uint8_t>> dirty_;
  struct TokenPool {
    std::vector<ForwardState> pool;
    std::uint32_t free_head = kNoSlot;
  };
  std::vector<TokenPool> fwd_;  // [home]
};

}  // namespace presto::proto
