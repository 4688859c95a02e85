// Runtime invariant checking for presto.
//
// PRESTO_CHECK is always on (simulator correctness depends on these
// invariants and they are cheap relative to the event loop). A failed check
// prints the condition, a formatted context message, and aborts — tests use
// EXPECT_DEATH on these paths.
#pragma once

#include <sstream>
#include <string>

namespace presto::util {

[[noreturn]] void check_fail(const char* cond, const char* file, int line,
                             const std::string& msg);

// Lightweight stream-based message builder so call sites can write
//   PRESTO_CHECK(x < n, "index " << x << " out of range " << n);
// The failing branch ends in the [[noreturn]] call itself, so the compiler
// sees that a `default: PRESTO_FAIL(...)` cannot fall through.
#define PRESTO_CHECK_FAIL_(cond_text, ...)                                   \
  do {                                                                       \
    std::ostringstream presto_check_os_;                                     \
    presto_check_os_ << __VA_ARGS__;                                         \
    ::presto::util::check_fail(cond_text, __FILE__, __LINE__,                \
                               presto_check_os_.str());                      \
  } while (0)

#define PRESTO_CHECK(cond, ...)                                              \
  do {                                                                       \
    if (!(cond)) [[unlikely]]                                                \
      PRESTO_CHECK_FAIL_(#cond, __VA_ARGS__);                                \
  } while (0)

#define PRESTO_FAIL(...) PRESTO_CHECK_FAIL_("false", __VA_ARGS__)

}  // namespace presto::util
