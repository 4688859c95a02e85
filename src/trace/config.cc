#include "trace/config.h"

#include <string>

#include "util/check.h"

namespace presto::trace {

const char* category_name(Category c) {
  switch (c) {
    case kCatPhase: return "phase";
    case kCatBarrier: return "barrier";
    case kCatLock: return "lock";
    case kCatMiss: return "miss";
    case kCatMsg: return "msg";
    case kCatData: return "data";
    case kCatSim: return "sim";
    case kCatAll: return "all";
  }
  return "?";
}

std::uint32_t category_from_name(const std::string& name) {
  if (name == "phase") return kCatPhase;
  if (name == "barrier") return kCatBarrier;
  if (name == "lock") return kCatLock;
  if (name == "miss") return kCatMiss;
  if (name == "msg") return kCatMsg;
  if (name == "data") return kCatData;
  if (name == "sim") return kCatSim;
  if (name == "all") return kCatAll;
  return 0;
}

TraceConfig TraceConfig::from_spec(const std::string& spec) {
  TraceConfig cfg;
  if (spec.empty()) return cfg;
  cfg.enabled = true;
  const std::size_t colon = spec.find(':');
  cfg.path = spec.substr(0, colon);
  if (colon == std::string::npos) return cfg;
  cfg.categories = 0;
  std::size_t pos = colon + 1;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string name = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const std::uint32_t bit = category_from_name(name);
    PRESTO_CHECK(bit != 0, "--trace: unknown category '"
                               << name
                               << "' (phase,barrier,lock,miss,msg,data,sim)");
    cfg.categories |= bit;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return cfg;
}

TraceConfig TraceConfig::for_run(int index) const {
  PRESTO_CHECK(index >= 0, "negative trace run index " << index);
  TraceConfig cfg = *this;
  if (index == 0 || path.empty()) return cfg;
  const std::string suffix = "." + std::to_string(index);
  // The extension is the last dot of the file name (not of a directory, and
  // not a hidden file's leading dot).
  const std::size_t slash = path.rfind('/');
  const std::size_t name = slash == std::string::npos ? 0 : slash + 1;
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || dot <= name)
    cfg.path = path + suffix;
  else
    cfg.path = path.substr(0, dot) + suffix + path.substr(dot);
  return cfg;
}

}  // namespace presto::trace
