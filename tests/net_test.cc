#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/processor.h"

namespace presto::net {
namespace {

// Records every delivered message: destination, dispatch time, the window
// it ran in (windowed engines) and the record bytes. It keeps the default
// on_arrival, so each record is dispatched at its arrival.
struct RecordingSink final : Network::MsgSink {
  struct Delivery {
    int dst;
    sim::Time at;
    std::uint64_t window;
    std::string bytes;
  };

  explicit RecordingSink(sim::Engine& e) : engine(e) {}
  void on_msg(int dst, const std::byte* rec, std::size_t len) override {
    got.push_back({dst, engine.now(), engine.windows_run(),
                   std::string(reinterpret_cast<const char*>(rec), len)});
  }
  std::vector<std::string> bodies() const {
    std::vector<std::string> out;
    for (const Delivery& d : got) out.push_back(d.bytes);
    return out;
  }

  sim::Engine& engine;
  std::vector<Delivery> got;
};

// Sends `body` as the record's header, with no payload.
sim::Time send(Network& net, int src, int dst, std::size_t wire_bytes,
               sim::Time depart, const std::string& body = "") {
  return net.send_msg(src, dst, wire_bytes, depart, body.data(), body.size(),
                      nullptr, 0);
}

TEST(Network, LatencyIsStartupPlusPerByte) {
  sim::Engine e;
  NetConfig cfg;
  cfg.wire_latency = 1000;
  cfg.per_byte = 10;
  Network net(e, 4, cfg);
  RecordingSink sink(e);
  net.set_msg_sink(&sink);
  const sim::Time a = send(net, 0, 1, 32, /*depart=*/0);
  EXPECT_EQ(a, 1000 + 320);
  e.run();
  ASSERT_EQ(sink.got.size(), 1u);
  EXPECT_EQ(sink.got[0].dst, 1);
  EXPECT_EQ(sink.got[0].at, 1000 + 320);
}

TEST(Network, SelfSendUsesLoopback) {
  sim::Engine e;
  NetConfig cfg;
  cfg.wire_latency = 1000;
  cfg.per_byte = 10;
  cfg.self_latency = 77;
  Network net(e, 4, cfg);
  RecordingSink sink(e);
  net.set_msg_sink(&sink);
  const sim::Time a = send(net, 2, 2, 4096, 0);
  EXPECT_EQ(a, 77);  // size-independent loopback
}

TEST(Network, FifoPerChannel) {
  sim::Engine e;
  NetConfig cfg;
  cfg.wire_latency = 100;
  cfg.per_byte = 10;
  Network net(e, 4, cfg);
  RecordingSink sink(e);
  net.set_msg_sink(&sink);
  // Big message first, then a small one that would naively overtake it.
  send(net, 0, 1, 1000, 0, "1");
  send(net, 0, 1, 4, 1, "2");
  e.run();
  EXPECT_EQ(sink.bodies(), (std::vector<std::string>{"1", "2"}));
}

TEST(Network, DistinctChannelsDoNotSerialize) {
  sim::Engine e;
  NetConfig cfg;
  cfg.wire_latency = 100;
  cfg.per_byte = 10;
  Network net(e, 4, cfg);
  RecordingSink sink(e);
  net.set_msg_sink(&sink);
  send(net, 0, 1, 1000, 0, "1");  // arrives 10100
  send(net, 2, 1, 4, 0, "2");     // arrives 140
  e.run();
  EXPECT_EQ(sink.bodies(), (std::vector<std::string>{"2", "1"}));
}

TEST(Network, RejectsBadEndpoints) {
  sim::Engine e;
  Network net(e, 2, NetConfig{});
  RecordingSink sink(e);
  net.set_msg_sink(&sink);
  EXPECT_DEATH(send(net, 0, 5, 1, 0), "bad endpoints");
}

// ---- One channel table: channels open on a pair's first send, at every
// machine width.

TEST(NetworkChannels, FreshNetworkHoldsNoChannel) {
  sim::Engine e;
  Network net32(e, 32, NetConfig{});
  Network net64(e, 64, NetConfig{});
  const std::size_t channel_bytes = Network::dense_equiv_bytes(1);
  // Less than one channel per source, and linear in the width: only the
  // per-source headers exist before the first send.
  EXPECT_LT(net32.metadata_bytes(), 32 * channel_bytes);
  EXPECT_EQ(net64.metadata_bytes(), 2 * net32.metadata_bytes());
}

TEST(NetworkChannels, FirstSendOpensOneChannelChunk) {
  sim::Engine e;
  Network net(e, 32, NetConfig{});
  RecordingSink sink(e);
  net.set_msg_sink(&sink);
  const std::size_t chunk_bytes =
      Network::kChannelChunk * Network::dense_equiv_bytes(1);
  const std::size_t fresh = net.metadata_bytes();
  send(net, 0, 1, 8, 0, "a");
  const std::size_t first = net.metadata_bytes() - fresh;
  // One chunk of channels, plus source 0's dst index and the ring's chunk.
  EXPECT_GE(first, chunk_bytes);
  EXPECT_LT(first, 2 * chunk_bytes) << "one send opened several chunks";
  // A second destination of the same source takes a slot in that chunk.
  send(net, 0, 2, 8, 0, "b");
  EXPECT_LT(net.metadata_bytes() - fresh - first, chunk_bytes);
  e.run();
  EXPECT_EQ(sink.bodies(), (std::vector<std::string>{"a", "b"}));
}

// ---- One delivery path: a sink that keeps the default on_arrival has every
// record dispatched at its arrival, from the destination's inbox like a
// held record.

TEST(NetworkDefaultSink, DispatchesAtArrivalThroughTheInbox) {
  sim::Engine e;
  NetConfig cfg;
  cfg.wire_latency = 100;
  cfg.per_byte = 10;
  Network net(e, 3, cfg);
  RecordingSink sink(e);
  net.set_msg_sink(&sink);
  const sim::Time a = send(net, 0, 2, 4, 0, "a");  // arrives 140
  const sim::Time b = send(net, 1, 2, 1, 0, "b");  // arrives 110
  const sim::Time c = send(net, 0, 2, 4, 0, "c");  // arrives 141 (FIFO clamp)
  // Scheduled for b's arrival instant after b's delivery key was reserved:
  // the dispatch, keyed at arrival, runs after it. (Handing the record
  // over inside the delivery event would run it first.)
  e.schedule_at(b, [&] { sink.got.push_back({-1, e.now(), 0, "X"}); });
  e.run();
  ASSERT_EQ(sink.bodies(), (std::vector<std::string>{"X", "b", "a", "c"}));
  EXPECT_EQ(sink.got[0].at, b);
  const sim::Time at[] = {b, a, c};
  for (std::size_t i = 1; i < sink.got.size(); ++i) {
    SCOPED_TRACE(sink.got[i].bytes);
    EXPECT_EQ(sink.got[i].dst, 2);
    EXPECT_EQ(sink.got[i].at, at[i - 1]);
  }
  EXPECT_EQ(a, 140);
  EXPECT_EQ(c, 141);
  // A delivery and a dispatch per record, plus the mark.
  EXPECT_EQ(e.events_executed(), 2u * 3u + 1u);
}

TEST(NetworkDefaultSink, WindowedDispatchRunsInTheArrivalWindow) {
  sim::Engine e(sim::Backend::kFiber);
  e.enable_windows(/*window=*/100, /*lanes=*/3, /*workers=*/1);
  NetConfig cfg;
  cfg.wire_latency = 100;
  cfg.per_byte = 10;
  Network net(e, 3, cfg);
  RecordingSink sink(e);
  net.set_msg_sink(&sink);
  sim::Time arrival[3] = {};  // a, b, c
  e.schedule_on(0, 0, [&] { arrival[0] = send(net, 0, 2, 4, e.now(), "a"); });
  e.schedule_on(1, 20, [&] { arrival[1] = send(net, 1, 2, 1, e.now(), "b"); });
  e.schedule_on(0, 250, [&] { arrival[2] = send(net, 0, 2, 4, e.now(), "c"); });
  // The window each arrival instant falls in, read on the destination lane.
  std::map<sim::Time, std::uint64_t> window_at;
  for (const sim::Time t : {140, 130, 390})
    e.schedule_on(2, t, [&window_at, &e, t] { window_at[t] = e.windows_run(); });
  e.run();
  EXPECT_EQ(arrival[0], 140);
  EXPECT_EQ(arrival[1], 130);
  EXPECT_EQ(arrival[2], 390);
  ASSERT_EQ(sink.bodies(), (std::vector<std::string>{"b", "a", "c"}));
  const sim::Time at[] = {arrival[1], arrival[0], arrival[2]};
  for (std::size_t i = 0; i < sink.got.size(); ++i) {
    SCOPED_TRACE(sink.got[i].bytes);
    EXPECT_EQ(sink.got[i].dst, 2);
    EXPECT_EQ(sink.got[i].at, at[i]);
    EXPECT_EQ(sink.got[i].window, window_at.at(at[i]));
  }
  EXPECT_LT(sink.got[1].window, sink.got[2].window);
}

// ---- Windowed engine: cross-node sends made inside a lane are staged in
// their channel's ring, unpublished, and published at the window boundary.

TEST(NetworkWindowed, StagedRecordsKeepFifoAndBytesAcrossWindows) {
  sim::Engine e(sim::Backend::kFiber);
  e.enable_windows(/*window=*/100, /*lanes=*/4, /*workers=*/1);
  NetConfig cfg;
  cfg.wire_latency = 100;
  cfg.per_byte = 10;
  Network net(e, 4, cfg);
  RecordingSink sink(e);
  net.set_msg_sink(&sink);

  const std::string big_header = "BIG:";
  const std::string big_payload(200, 'x');
  const std::string small_header = "sm:";
  const std::string small_payload = "yz";
  std::uint64_t big_window = 0;
  std::uint64_t small_window = 0;
  sim::Time big_arrival = 0;
  sim::Time small_arrival = 0;
  // Large record in the first window (arrives 0 + 100 + 1000 * 10).
  e.schedule_on(0, 0, [&] {
    ASSERT_TRUE(e.in_lane_context());
    big_window = e.windows_run();
    big_arrival =
        net.send_msg(0, 1, 1000, e.now(), big_header.data(), big_header.size(),
                     big_payload.data(), big_payload.size());
  });
  // Small record in the next window on the same channel: it would naively
  // arrive at 290, but the FIFO clamp puts it right behind the large one.
  // It is staged over the bytes the first flush cleared.
  e.schedule_on(0, 150, [&] {
    small_window = e.windows_run();
    small_arrival = net.send_msg(0, 1, 4, e.now(), small_header.data(),
                                 small_header.size(), small_payload.data(),
                                 small_payload.size());
  });
  e.run();

  EXPECT_EQ(small_window, big_window + 1);
  EXPECT_EQ(big_arrival, 0 + 100 + 1000 * 10);
  EXPECT_EQ(small_arrival, big_arrival + 1);
  ASSERT_EQ(sink.got.size(), 2u);
  EXPECT_EQ(sink.got[0].dst, 1);
  EXPECT_EQ(sink.got[0].at, big_arrival);
  EXPECT_EQ(sink.got[0].bytes, big_header + big_payload);
  EXPECT_EQ(sink.got[1].at, small_arrival);
  EXPECT_EQ(sink.got[1].bytes, small_header + small_payload);
}

TEST(NetworkWindowed, SelfSendInLaneIsDeliveredInTheSameWindow) {
  sim::Engine e(sim::Backend::kFiber);
  e.enable_windows(/*window=*/100, /*lanes=*/4, /*workers=*/1);
  NetConfig cfg;
  cfg.wire_latency = 100;
  cfg.self_latency = 5;
  Network net(e, 4, cfg);
  RecordingSink sink(e);
  net.set_msg_sink(&sink);

  std::uint64_t sent_window = 0;
  e.schedule_on(2, 10, [&] {
    sent_window = e.windows_run();
    EXPECT_EQ(send(net, 2, 2, 4096, e.now(), "self"), 15);
  });
  e.run();

  ASSERT_EQ(sink.got.size(), 1u);
  EXPECT_EQ(sink.got[0].dst, 2);
  EXPECT_EQ(sink.got[0].at, 15);
  EXPECT_EQ(sink.got[0].window, sent_window);
  EXPECT_EQ(sink.got[0].bytes, "self");
}

// A burst staged by one source in one window lives in memory once: after the
// boundary its records sit in their channel's ring, and nothing else holds
// a copy of their bytes (no per-source staging buffer beside the ring).
TEST(NetworkWindowed, StagedBurstHoldsOneCopyOfItsBytes) {
  sim::Engine e(sim::Backend::kFiber);
  e.enable_windows(/*window=*/100, /*lanes=*/4, /*workers=*/1);
  NetConfig cfg;
  cfg.wire_latency = 100;
  cfg.per_byte = 10;
  Network net(e, 4, cfg);
  RecordingSink sink(e);
  net.set_msg_sink(&sink);
  const std::size_t idle = net.metadata_bytes();  // channel table, inboxes

  constexpr int kRecords = 200;
  constexpr std::size_t kLen = 1000;
  const std::string body(kLen, 'b');
  e.schedule_on(0, 0, [&] {
    for (int i = 0; i < kRecords; ++i)
      net.send_msg(0, 1, kLen, e.now(), body.data(), body.size(), nullptr, 0);
  });
  // Next window: the burst is published and none of it has arrived (the
  // first record arrives at 100 + 1000 * 10).
  std::size_t after_boundary = 0;
  e.schedule_on(2, 150, [&] { after_boundary = net.metadata_bytes(); });
  e.run();

  ASSERT_EQ(sink.got.size(), static_cast<std::size_t>(kRecords));
  const std::size_t held = after_boundary - idle;
  EXPECT_GE(held, kRecords * kLen);
  // One copy: each record's bytes plus a header of at most 32 bytes, and at
  // most 8 KiB of chunk headers and last-chunk slack for the channel.
  EXPECT_LE(held, kRecords * (kLen + 32) + 8192)
      << "staged records held more than once";
}

// A 32-lane machine whose first window runs lane 31 alone: processor 31
// sends to itself and to node 0, then takes a boundary gate. The boundary
// must still flush lane 31's staged send, run its gate and hand back the
// chunk of the ring it drained, though it looks at no other lane. The sink
// records each dispatch's time and window and the key its lane would
// reserve next, which shows how many keys the lane reserved before.
struct KeyedSink final : Network::MsgSink {
  struct Dispatch {
    int dst;
    sim::Time at;
    std::uint64_t window;
    sim::Engine::EventKey next;
  };
  explicit KeyedSink(sim::Engine& e) : engine(e) {}
  void on_msg(int dst, const std::byte*, std::size_t) override {
    got.push_back({dst, engine.now(), engine.windows_run(),
                   engine.reserve_key(engine.lane_of(dst), engine.now())});
  }
  sim::Engine& engine;
  std::vector<Dispatch> got;
};

TEST(NetworkWindowed, WindowOfTheLastLaneAloneFlushesGatesAndReleases) {
  for (int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    sim::Engine e(sim::Backend::kParallel);
    e.enable_windows(/*window=*/100, /*lanes=*/32, workers);
    NetConfig cfg;
    cfg.wire_latency = 100;
    cfg.per_byte = 10;
    cfg.self_latency = 5;
    Network net(e, 32, cfg);
    KeyedSink sink(e);
    net.set_msg_sink(&sink);
    for (int i = 0; i < 32; ++i) e.add_processor();
    sim::Processor& p = e.processor(31);
    std::uint64_t gate_window = 0;
    sim::Time gate_wake = -1;
    p.start(
        [&] {
          send(net, 31, 31, 4, p.now(), "self");  // arrives 1005, drains
          send(net, 31, 0, 8, p.now(), "far");    // staged: arrives 1180
          e.boundary_gate([&] { gate_window = e.windows_run(); });
          gate_wake = p.now();
        },
        /*start_time=*/1000);
    e.run();

    EXPECT_EQ(gate_window, 1u);
    EXPECT_EQ(gate_wake, 1005);
    ASSERT_EQ(sink.got.size(), 2u);
    EXPECT_EQ(sink.got[0].dst, 31);
    EXPECT_EQ(sink.got[0].at, 1005);
    EXPECT_EQ(sink.got[0].window, 1u);
    // Lane 31: start (seq 0), delivery (1), dispatch (2).
    EXPECT_EQ(sink.got[0].next.t, 1005);
    EXPECT_EQ(sink.got[0].next.seq, 3u);
    EXPECT_EQ(sink.got[1].dst, 0);
    EXPECT_EQ(sink.got[1].at, 1000 + 100 + 8 * 10);
    EXPECT_EQ(sink.got[1].window, 3u);  // after lane 31's wake window
    // Lane 0: the delivery key reserved at the flush (seq 0), its dispatch
    // (1).
    EXPECT_EQ(sink.got[1].next.t, 1180);
    EXPECT_EQ(sink.got[1].next.seq, 2u);
    EXPECT_EQ(e.windows_run(), 3u);
    // Idle: source 31's chunk of channels, plus 2600 bytes: 32 source
    // headers (1792), source 31's index (128) and chunk list (8), two
    // inboxes (128), the staged and drained lists (32), and the two rings'
    // chunks back in the pools (512). A ring whose release the boundary
    // skipped would still hold its chunk, header included (+16).
    EXPECT_EQ(net.metadata_bytes(),
              2600 + Network::kChannelChunk * Network::dense_equiv_bytes(1));
  }
}

// A sink that holds every record for a handler occupancy, as the protocol
// layer does: dispatch at max(arrival, busy) + kHold.
struct HoldingSink final : Network::MsgSink {
  static constexpr sim::Time kHold = 10;
  HoldingSink(sim::Engine& e, std::vector<std::string>* log)
      : engine(e), log(log) {}
  sim::Time on_arrival(int, const std::byte* rec, std::size_t len) override {
    log->push_back("A" + std::string(reinterpret_cast<const char*>(rec), len) +
                   "@" + std::to_string(engine.now()));
    busy = (engine.now() > busy ? engine.now() : busy) + kHold;
    return busy;
  }
  void on_msg(int, const std::byte* rec, std::size_t len) override {
    log->push_back("M" + std::string(reinterpret_cast<const char*>(rec), len) +
                   "@" + std::to_string(engine.now()));
  }
  sim::Engine& engine;
  std::vector<std::string>* log;
  sim::Time busy = 0;
};

// A channel keeps only its next delivery in the heap and a node only its next
// dispatch; the later ones are chained in when their predecessor runs, under
// the (time, seq) key reserved when one event per record would have been
// scheduled. Ties with other events at equal times must therefore break as
// if every record had its own event: events scheduled before the record's
// key was reserved run first, events scheduled after it run after — even
// when they were scheduled before the chained event entered the heap.
TEST(NetworkChaining, ChainedEventsKeepTheUnchainedTieOrder) {
  sim::Engine e;
  NetConfig cfg;
  cfg.wire_latency = 100;
  cfg.per_byte = 0;
  Network net(e, 2, cfg);
  std::vector<std::string> log;
  HoldingSink sink(e, &log);
  net.set_msg_sink(&sink);
  auto mark = [&](const char* name, sim::Time at) {
    e.schedule_at(at, [&log, &e, name] {
      log.push_back(std::string(name) + "@" + std::to_string(e.now()));
    });
  };
  e.schedule_at(0, [&] {
    mark("X0", 100);  // before the records' keys: runs first at its time
    mark("P", 120);
    send(net, 0, 1, 8, 0, "1");  // arrives 100, dispatched 110
    send(net, 0, 1, 8, 0, "2");  // arrives 101 (FIFO clamp), dispatched 120
    send(net, 0, 1, 8, 0, "3");  // arrives 102, dispatched 130
    mark("Y1", 101);  // after delivery 2's key, before it is chained in
  });
  e.schedule_at(105, [&] { mark("Q", 120); });  // after dispatch 2's key
  e.schedule_at(115, [&] { mark("R", 130); });  // before dispatch 3 chains
  e.run();
  // A fresh key at chaining time would put Y1 before A2 and R before M3.
  EXPECT_EQ(log, (std::vector<std::string>{
                     "X0@100", "A1@100", "A2@101", "Y1@101", "A3@102",
                     "M1@110", "P@120", "M2@120", "Q@120", "M3@130",
                     "R@130"}));
}

// The same for records staged inside a window: their keys are reserved at
// the boundary, after everything the destination lane scheduled during the
// window and before anything it schedules in the next.
TEST(NetworkChaining, StagedRecordsTakeTheirKeysAtTheBoundary) {
  sim::Engine e(sim::Backend::kFiber);
  e.enable_windows(/*window=*/50, /*lanes=*/2, /*workers=*/1);
  NetConfig cfg;
  cfg.wire_latency = 100;
  cfg.per_byte = 0;
  Network net(e, 2, cfg);
  std::vector<std::string> log;
  HoldingSink sink(e, &log);
  net.set_msg_sink(&sink);
  auto mark = [&](const char* name, sim::Time at) {
    e.schedule_at(at, [&log, &e, name] {
      log.push_back(std::string(name) + "@" + std::to_string(e.now()));
    });
  };
  e.schedule_on(1, 0, [&] { mark("X", 100); });  // window 1: before the flush
  e.schedule_on(0, 0, [&] {
    send(net, 0, 1, 8, e.now(), "1");  // staged: arrives 100
    send(net, 0, 1, 8, e.now(), "2");  // staged: arrives 101
  });
  e.schedule_on(1, 60, [&] { mark("Y", 101); });  // window 2: after it
  e.run();
  EXPECT_EQ(log, (std::vector<std::string>{"X@100", "A1@100", "A2@101",
                                           "Y@101", "M1@110", "M2@120"}));
}

}  // namespace
}  // namespace presto::net
