#include "proto/protocol.h"

#include "trace/hooks.h"
#include "util/check.h"

namespace presto::proto {

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::GetS: return "GetS";
    case MsgType::GetX: return "GetX";
    case MsgType::Inv: return "Inv";
    case MsgType::InvAck: return "InvAck";
    case MsgType::RecallS: return "RecallS";
    case MsgType::RecallX: return "RecallX";
    case MsgType::RecallAckData: return "RecallAckData";
    case MsgType::DataS: return "DataS";
    case MsgType::DataX: return "DataX";
    case MsgType::BulkData: return "BulkData";
    case MsgType::BulkAck: return "BulkAck";
    case MsgType::BulkInv: return "BulkInv";
    case MsgType::BulkInvAck: return "BulkInvAck";
    case MsgType::WuGetS: return "WuGetS";
    case MsgType::WuData: return "WuData";
    case MsgType::WuWriteNote: return "WuWriteNote";
    case MsgType::UpdateData: return "UpdateData";
    case MsgType::UpdateAck: return "UpdateAck";
    case MsgType::CcFlush: return "CcFlush";
    case MsgType::CcFlushAck: return "CcFlushAck";
  }
  return "?";
}

Protocol::Protocol(sim::Engine& engine, net::Network& net,
                   mem::GlobalSpace& space, stats::Recorder& rec,
                   const ProtoCosts& costs)
    : engine_(engine),
      net_(net),
      space_(space),
      rec_(rec),
      costs_(costs),
      busy_until_(static_cast<std::size_t>(space.nodes()), 0),
      waiting_(static_cast<std::size_t>(space.nodes()), -1),
      scratch_(static_cast<std::size_t>(space.nodes())) {}

std::size_t Protocol::metadata_bytes() const {
  std::size_t n = busy_until_.capacity() * sizeof(busy_until_[0]) +
                  waiting_.capacity() * sizeof(waiting_[0]);
  for (const auto& s : scratch_) n += s.capacity();
  return n;
}

void Protocol::install() {
  space_.set_fault_handler(this);
  net_.set_msg_sink(this);
}

void Protocol::post(int src, int dst, const Msg& m, sim::Time depart) {
  const std::size_t bytes = costs_.header_bytes + m.data_len;
  auto& c = rec_.node(src);
  ++c.msgs_sent;
  c.bytes_sent += bytes;
  if (observer_ != nullptr && m.data_len != 0) [[unlikely]]
    observer_->on_data_send(src, dst, m);
  if (trace_ != nullptr) [[unlikely]]
    trace_->on_msg_send(src, dst, static_cast<std::uint8_t>(m.type), m.block,
                        m.count, static_cast<std::uint32_t>(bytes), depart);
  // Header and payload are copied into the (src, dst) channel ring before
  // this returns; m.data may point straight at GlobalSpace frame bytes.
  net_.send_msg(src, dst, bytes, depart, &m, sizeof(Msg), m.data, m.data_len);
}

void Protocol::send_from_handler(int src, int dst, const Msg& m) {
  post(src, dst, m, engine_.now());
}

void Protocol::send_from_app(int src, int dst, const Msg& m) {
  post(src, dst, m, proc(src).now());
}

sim::Time Protocol::on_arrival(int dst, const std::byte* rec,
                               std::size_t len) {
  // Serialize on the destination's protocol dispatch unit; the handler runs
  // after its occupancy. Handler time overlapping the destination's
  // application compute is charged as stolen cycles.
  (void)len;
  auto& busy = busy_until_[static_cast<std::size_t>(dst)];
  const sim::Time start = engine_.now() > busy ? engine_.now() : busy;
  const sim::Time done = start + costs_.handler;
  busy = done;
  if (trace_ != nullptr) [[unlikely]] {
    // Decode the header only when traced; the untraced arrival path never
    // touches the record bytes.
    Msg m;
    std::memcpy(&m, rec, sizeof(Msg));
    trace_->on_msg_recv(
        dst, m.src, static_cast<std::uint8_t>(m.type), m.block,
        static_cast<std::uint32_t>(costs_.header_bytes + m.data_len),
        engine_.now(), start);
  }
  if (!proc(dst).parked_in_block()) proc(dst).add_stolen(costs_.handler);
  return done;
}

void Protocol::on_msg(int dst, const std::byte* rec, std::size_t len) {
  PRESTO_CHECK(len >= sizeof(Msg), "truncated message record");
  Msg m;
  std::memcpy(&m, rec, sizeof(Msg));
  m.data = m.data_len != 0 ? rec + sizeof(Msg) : nullptr;
  handle(dst, m);
}

void Protocol::install_block(int node, mem::BlockId b, const std::byte* data,
                             mem::Tag tag) {
  if (data != nullptr)
    std::memcpy(space_.block_data(node, b), data, space_.block_size());
  space_.set_tag(node, b, tag);
  notify_install(node, b, data, tag);
  if (is_waiting_on(node, b)) wake_waiter(node);
}

void Protocol::wake_waiter(int node) { proc(node).wake(engine_.now()); }

}  // namespace presto::proto
