#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.h"

namespace presto::net {
namespace {

// Records every delivered message: destination, arrival time, the window
// it ran in (windowed engines) and the record bytes.
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

TEST(Network, CountsMessagesAndBytes) {
  sim::Engine e;
  Network net(e, 4, NetConfig{});
  RecordingSink sink(e);
  net.set_msg_sink(&sink);
  send(net, 0, 1, 100, 0);
  send(net, 0, 2, 50, 0);
  send(net, 3, 0, 25, 0);
  e.run();
  EXPECT_EQ(sink.got.size(), 3u);
  EXPECT_EQ(net.messages_sent(), 3u);
  EXPECT_EQ(net.bytes_sent(), 175u);
  EXPECT_EQ(net.messages_from(0), 2u);
  EXPECT_EQ(net.bytes_from(0), 150u);
  EXPECT_EQ(net.messages_from(3), 1u);
}

TEST(Network, RejectsBadEndpoints) {
  sim::Engine e;
  Network net(e, 2, NetConfig{});
  RecordingSink sink(e);
  net.set_msg_sink(&sink);
  EXPECT_DEATH(send(net, 0, 5, 1, 0), "bad endpoints");
}

// ---- Windowed engine: cross-node sends made inside a lane are staged in the
// source's outbox and reach their channel ring at the window boundary.

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
