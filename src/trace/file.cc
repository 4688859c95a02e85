#include "trace/file.h"

#include <cstdio>
#include <cstring>

namespace presto::trace {

std::uint64_t fnv1a64(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

void append(std::vector<std::byte>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::byte*>(p);
  out.insert(out.end(), b, b + n);
}

bool fail(std::string* err, const std::string& what) {
  if (err != nullptr) *err = what;
  return false;
}

}  // namespace

std::vector<std::byte> serialize(const TraceData& t) {
  std::vector<std::byte> out;
  out.reserve(4 + sizeof(TraceMeta) + 16 + t.events.size() * sizeof(Event));
  append(out, &kTraceMagic, sizeof(kTraceMagic));
  append(out, &t.meta, sizeof(TraceMeta));
  const std::uint64_t count = t.events.size();
  append(out, &count, sizeof(count));
  std::uint64_t h = kFnvBasis;
  if (!t.events.empty()) {
    append(out, t.events.data(), t.events.size() * sizeof(Event));
    h = fnv1a64(h, t.events.data(), t.events.size() * sizeof(Event));
  }
  append(out, &h, sizeof(h));
  return out;
}

bool write_file(const TraceData& t, const std::string& path,
                std::string* err) {
  const std::vector<std::byte> bytes = serialize(t);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return fail(err, "cannot open '" + path + "' for writing");
  const std::size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
  // Close exactly once, whether or not the write came up short: fclose
  // flushes the tail, so it can fail too.
  const bool closed = std::fclose(f) == 0;
  if (n != bytes.size() || !closed)
    return fail(err, "short write to '" + path + "'");
  return true;
}

bool parse(const std::byte* data, std::size_t n, TraceData* out,
           std::string* err) {
  const std::size_t kFixed = 4 + sizeof(TraceMeta) + 8 + 8;
  if (n < kFixed)
    return fail(err, "truncated trace: " + std::to_string(n) +
                         " bytes, header alone needs " +
                         std::to_string(kFixed));
  std::size_t off = 0;
  std::uint32_t magic;
  std::memcpy(&magic, data + off, sizeof(magic));
  off += sizeof(magic);
  if (magic != kTraceMagic)
    return fail(err, "bad magic: not a presto trace file");
  TraceMeta meta;
  std::memcpy(&meta, data + off, sizeof(meta));
  off += sizeof(meta);
  if (meta.version != kTraceVersion)
    return fail(err, "unsupported trace version " +
                         std::to_string(meta.version) + " (reader supports " +
                         std::to_string(kTraceVersion) + ")");
  if (meta.nodes == 0 || meta.nodes > 4096)
    return fail(err,
                "implausible node count " + std::to_string(meta.nodes));
  if (meta.block_size == 0 ||
      (meta.block_size & (meta.block_size - 1)) != 0)
    return fail(err, "implausible block size " +
                         std::to_string(meta.block_size));
  // NUL-terminated protocol name within its fixed field.
  if (meta.protocol[sizeof(meta.protocol) - 1] != '\0')
    return fail(err, "unterminated protocol name in header");
  std::uint64_t count;
  std::memcpy(&count, data + off, sizeof(count));
  off += sizeof(count);
  const std::uint64_t payload = n - kFixed;
  if (count * sizeof(Event) != payload)
    return fail(err, "event count " + std::to_string(count) + " needs " +
                         std::to_string(count * sizeof(Event)) +
                         " payload bytes, file has " +
                         std::to_string(payload));
  const std::byte* events = data + off;
  off += static_cast<std::size_t>(count) * sizeof(Event);
  std::uint64_t stored_hash;
  std::memcpy(&stored_hash, data + off, sizeof(stored_hash));
  const std::uint64_t hash =
      fnv1a64(kFnvBasis, events, static_cast<std::size_t>(count) * sizeof(Event));
  if (hash != stored_hash)
    return fail(err, "integrity hash mismatch: file is corrupt");

  out->meta = meta;
  out->events.resize(static_cast<std::size_t>(count));
  if (count != 0)
    std::memcpy(out->events.data(), events,
                static_cast<std::size_t>(count) * sizeof(Event));
  std::uint32_t prev_seq = 0;
  for (std::size_t i = 0; i < out->events.size(); ++i) {
    const Event& e = out->events[i];
    if (e.kind >= static_cast<std::uint16_t>(EventKind::kKindCount))
      return fail(err, "event " + std::to_string(i) + ": unknown kind " +
                           std::to_string(e.kind));
    if (e.node < -1 || e.node >= static_cast<std::int16_t>(meta.nodes))
      return fail(err, "event " + std::to_string(i) + ": node " +
                           std::to_string(e.node) + " out of range");
    if (i != 0 && e.seq <= prev_seq)
      return fail(err, "event " + std::to_string(i) +
                           ": sequence not strictly increasing");
    prev_seq = e.seq;
  }
  return true;
}

bool read_file(const std::string& path, TraceData* out, std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return fail(err, "cannot open '" + path + "'");
  std::vector<std::byte> bytes;
  std::byte buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) != 0)
    bytes.insert(bytes.end(), buf, buf + n);
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) return fail(err, "read error on '" + path + "'");
  return parse(bytes.data(), bytes.size(), out, err);
}

// ---- Perfetto export --------------------------------------------------------

namespace {

// Two timeline lanes per node: application (misses, barriers, locks, phase
// presends) and protocol (handler occupancy, installs).
int app_tid(int node) { return node * 2; }
int proto_tid(int node) { return node * 2 + 1; }

double us(std::uint64_t t_ns) { return static_cast<double>(t_ns) / 1000.0; }

void slice(std::FILE* f, bool& first, const char* name, const char* cat,
           int tid, std::uint64_t t0, std::uint64_t t1) {
  std::fprintf(f,
               "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,"
               "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
               first ? "" : ",\n", name, cat, tid, us(t0),
               us(t1 > t0 ? t1 - t0 : 0));
  first = false;
}

void instant(std::FILE* f, bool& first, const char* name, const char* cat,
             int tid, std::uint64_t t) {
  std::fprintf(f,
               "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
               "\"pid\":0,\"tid\":%d,\"ts\":%.3f}",
               first ? "" : ",\n", name, cat, tid, us(t));
  first = false;
}

}  // namespace

bool write_perfetto(const TraceData& t, const std::string& path,
                    std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return fail(err, "cannot open '" + path + "' for writing");
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (std::uint32_t n = 0; n < t.meta.nodes; ++n) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                 "\"tid\":%d,\"args\":{\"name\":\"node %u app\"}},\n"
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                 "\"tid\":%d,\"args\":{\"name\":\"node %u protocol\"}}",
                 first ? "" : ",\n", app_tid(static_cast<int>(n)), n,
                 proto_tid(static_cast<int>(n)), n);
    first = false;
  }

  // Open-interval state per node, matched as the canonical stream replays.
  struct Open {
    std::uint64_t miss_t = 0, barrier_t = 0, lock_t = 0, phase_t = 0;
    std::uint64_t block_t = 0;
    std::uint64_t miss_block = 0;
    std::uint16_t miss_aux = 0;
    bool in_miss = false, in_barrier = false, in_lock = false;
    bool in_phase = false, in_block = false;
  };
  std::vector<Open> open(t.meta.nodes);
  char name[96];

  for (const Event& e : t.events) {
    if (e.node < 0) continue;
    Open& o = open[static_cast<std::size_t>(e.node)];
    const int atid = app_tid(e.node);
    switch (static_cast<EventKind>(e.kind)) {
      case EventKind::kPhaseBegin:
        o.in_phase = true;
        o.phase_t = e.t;
        break;
      case EventKind::kPhaseReady:
        if (o.in_phase) {
          std::snprintf(name, sizeof(name), "phase %u presend", e.arg);
          slice(f, first, name, "phase", atid, o.phase_t, e.t);
          o.in_phase = false;
        }
        break;
      case EventKind::kPhaseFlush:
        std::snprintf(name, sizeof(name), "flush phase %u", e.arg);
        instant(f, first, name, "phase", atid, e.t);
        break;
      case EventKind::kBarrierArrive:
        o.in_barrier = true;
        o.barrier_t = e.t;
        break;
      case EventKind::kBarrierRelease:
        if (o.in_barrier) {
          slice(f, first, "barrier", "barrier", atid, o.barrier_t, e.t);
          o.in_barrier = false;
        }
        break;
      case EventKind::kLockAcquire:
        o.in_lock = true;
        o.lock_t = e.t;
        break;
      case EventKind::kLockAcquired:
        if (o.in_lock) {
          std::snprintf(name, sizeof(name), "lock b%llu%s",
                        static_cast<unsigned long long>(e.block),
                        e.arg != 0 ? " (contended)" : "");
          slice(f, first, name, "lock", atid, o.lock_t, e.t);
          o.in_lock = false;
        }
        break;
      case EventKind::kLockRelease:
        std::snprintf(name, sizeof(name), "unlock b%llu",
                      static_cast<unsigned long long>(e.block));
        instant(f, first, name, "lock", atid, e.t);
        break;
      case EventKind::kMissStart:
        o.in_miss = true;
        o.miss_t = e.t;
        o.miss_block = e.block;
        o.miss_aux = e.aux;
        break;
      case EventKind::kMissEnd:
        if (o.in_miss) {
          std::snprintf(
              name, sizeof(name), "%s miss b%llu (%s)",
              (o.miss_aux & kMissWriteBit) != 0 ? "write" : "read",
              static_cast<unsigned long long>(o.miss_block),
              miss_class_name(static_cast<MissClass>(o.miss_aux & 0xff)));
          slice(f, first, name, "miss", atid, o.miss_t, e.t);
          o.in_miss = false;
        }
        break;
      case EventKind::kMsgSend:
        std::snprintf(name, sizeof(name), "send %u B to %d", e.arg, e.peer);
        instant(f, first, name, "msg", proto_tid(e.node), e.t);
        break;
      case EventKind::kMsgRecv:
        break;  // queue wait is visible as the recv→dispatch gap
      case EventKind::kMsgDispatch:
        std::snprintf(name, sizeof(name), "handler b%llu from %d",
                      static_cast<unsigned long long>(e.block), e.peer);
        slice(f, first, name, "msg", proto_tid(e.node), e.t,
              e.t + static_cast<std::uint64_t>(t.meta.cost_handler));
        break;
      case EventKind::kInstall:
        std::snprintf(name, sizeof(name), "install b%llu",
                      static_cast<unsigned long long>(e.block));
        instant(f, first, name, "data", proto_tid(e.node), e.t);
        break;
      case EventKind::kPresendInstall:
        std::snprintf(name, sizeof(name), "presend +%u b%llu", e.arg,
                      static_cast<unsigned long long>(e.block));
        instant(f, first, name, "data", proto_tid(e.node), e.t);
        break;
      case EventKind::kPresendHit:
        std::snprintf(name, sizeof(name), "presend hit b%llu",
                      static_cast<unsigned long long>(e.block));
        instant(f, first, name, "data", atid, e.t);
        break;
      case EventKind::kPresendWaste:
        std::snprintf(name, sizeof(name), "presend waste b%llu",
                      static_cast<unsigned long long>(e.block));
        instant(f, first, name, "data", atid, e.t);
        break;
      case EventKind::kCtxBlock:
        o.in_block = true;
        o.block_t = e.t;
        break;
      case EventKind::kCtxResume:
        if (o.in_block) {
          slice(f, first, "blocked", "sim", atid, o.block_t, e.t);
          o.in_block = false;
        }
        break;
      case EventKind::kKindCount:
        break;
    }
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) return fail(err, "short write to '" + path + "'");
  return true;
}

}  // namespace presto::trace
