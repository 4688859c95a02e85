// util::Cli flag parsing and the allocation-free lookup contract, plus the
// bench-side --protocol and --backend selectors that resolve names through
// the protocol registry and sim::backend_from_name, and the benches'
// checksum gate.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string_view>
#include <vector>

#include "bench/bench_common.h"
#include "runtime/machine.h"
#include "util/cli.h"

using presto::util::Cli;

namespace {

Cli make_cli(std::initializer_list<const char*> args) {
  static std::vector<const char*> argv;
  argv.assign({"prog"});
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()),
             const_cast<char**>(argv.data()));
}

TEST(Cli, ParsesValueAndBoolForms) {
  const Cli cli = make_cli({"--blocks=512", "--rounds", "192", "--quick"});
  EXPECT_TRUE(cli.has("blocks"));
  EXPECT_EQ(cli.get_int("blocks", 0), 512);
  EXPECT_EQ(cli.get_int("rounds", 0), 192);
  EXPECT_TRUE(cli.get_bool("quick"));
  EXPECT_FALSE(cli.get_bool("verbose"));
  EXPECT_EQ(cli.get("json", "default"), "default");
  EXPECT_EQ(cli.get_double("missing", 2.5), 2.5);
}

// Lookups take std::string_view: a literal (or any non-owning view) must work
// without constructing a std::string at the call site, and the transparent
// map comparators resolve it without a temporary key either.
TEST(Cli, LookupAcceptsStringView) {
  const Cli cli = make_cli({"--alpha=1"});
  constexpr std::string_view key = "alpha";
  EXPECT_TRUE(cli.has(key));
  EXPECT_EQ(cli.get_int(key, 0), 1);
  const char buf[] = {'a', 'l', 'p', 'h', 'a', 'X'};  // not NUL-terminated
  EXPECT_TRUE(cli.has(std::string_view(buf, 5)));
}

// Regression for the per-lookup allocation fix: repeated queries of the same
// name must not grow the queried-names set (the old code built a temporary
// std::string per call and inserted it every time).
TEST(Cli, RepeatedLookupsRecordNameOnce) {
  const Cli cli = make_cli({"--blocks=512"});
  EXPECT_EQ(cli.queried_count(), 0u);
  for (int i = 0; i < 100; ++i) {
    (void)cli.has("blocks");
    (void)cli.get_int("blocks", 0);
  }
  EXPECT_EQ(cli.queried_count(), 1u);
  (void)cli.get("other", "");
  EXPECT_EQ(cli.queried_count(), 2u);
}

TEST(Cli, RejectUnknownPassesWhenAllQueried) {
  const Cli cli = make_cli({"--blocks=512", "--quick"});
  (void)cli.get_int("blocks", 0);
  (void)cli.get_bool("quick");
  cli.reject_unknown();  // must not abort
}

TEST(CliDeath, RejectUnknownAbortsOnUnqueriedFlag) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Cli cli = make_cli({"--typo=1"});
  EXPECT_DEATH(cli.reject_unknown(), "unknown flag");
}

TEST(CliDeath, MalformedIntegerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Cli cli = make_cli({"--blocks=12x"});
  EXPECT_DEATH((void)cli.get_int("blocks", 0), "expects an integer");
}

// The benches take their protocol sweep from the registry: no --protocol
// means every registered protocol in canonical order, so a newly registered
// protocol appears in every sweep without touching the bench binaries.
TEST(ProtocolCli, DefaultsToFullRegistry) {
  const Cli cli = make_cli({});
  const auto protos = presto::bench::protocols_from_cli(cli);
  ASSERT_EQ(protos.size(),
            static_cast<std::size_t>(presto::runtime::kNumProtocolKinds));
  for (int i = 0; i < presto::runtime::kNumProtocolKinds; ++i)
    EXPECT_EQ(protos[static_cast<std::size_t>(i)],
              presto::runtime::kAllProtocolKinds[i]);
}

// Every name protocol_kind_name() prints must round-trip back through the
// selector to exactly that protocol — the spelling in bench output is the
// spelling --protocol accepts.
TEST(ProtocolCli, EveryRegistryNameSelectsItsProtocol) {
  for (const auto kind : presto::runtime::kAllProtocolKinds) {
    const Cli cli = make_cli(
        {(std::string("--protocol=") +
          presto::runtime::protocol_kind_name(kind)).c_str()});
    const auto protos = presto::bench::protocols_from_cli(cli);
    ASSERT_EQ(protos.size(), 1u);
    EXPECT_EQ(protos.front(), kind);
  }
}

TEST(ProtocolCliDeath, UnknownProtocolNameAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Cli cli = make_cli({"--protocol=bogus"});
  // The abort message lists the valid names so a typo is self-correcting.
  EXPECT_DEATH((void)presto::bench::protocols_from_cli(cli),
               "unknown protocol 'bogus'.*stache.*ccached");
}

// Every name backend_name() prints parses back to its backend. Tested on
// the parser directly: default_backend() caches PRESTO_BACKEND in a static,
// so the environment path cannot be re-driven within one process.
TEST(BackendName, EveryNameRoundTrips) {
  for (const auto b : presto::sim::kAllBackends) {
    presto::sim::Backend parsed{};
    ASSERT_TRUE(presto::sim::backend_from_name(presto::sim::backend_name(b),
                                               &parsed));
    EXPECT_EQ(parsed, b);
  }
  EXPECT_EQ(presto::sim::backend_names(), "fiber, parallel");
}

TEST(BackendName, RejectsUnknownNames) {
  presto::sim::Backend parsed = presto::sim::Backend::kParallel;
  for (const char* name : {"thread", "bogus", "", "Fiber", "fiber "})
    EXPECT_FALSE(presto::sim::backend_from_name(name, &parsed)) << name;
  EXPECT_EQ(parsed, presto::sim::Backend::kParallel);  // untouched on failure
}

TEST(BackendCli, SelectsEachBackend) {
  EXPECT_EQ(presto::bench::Scale::from_cli(make_cli({"--backend=fiber"}))
                .backend,
            presto::sim::Backend::kFiber);
  EXPECT_EQ(presto::bench::Scale::from_cli(make_cli({"--backend=parallel"}))
                .backend,
            presto::sim::Backend::kParallel);
}

// The removed thread backend's name is an unknown name like any other.
TEST(BackendCliDeath, ThreadBackendNameAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Cli cli = make_cli({"--backend=thread"});
  EXPECT_DEATH((void)presto::bench::Scale::from_cli(cli),
               "unknown backend 'thread'.*fiber, parallel");
}

TEST(BackendCliDeath, UnknownBackendNameAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Cli cli = make_cli({"--backend=bogus"});
  EXPECT_DEATH((void)presto::bench::Scale::from_cli(cli),
               "unknown backend 'bogus'.*fiber, parallel");
}

// Each canon's tolerance: exact when windowed, last bits when legacy.
TEST(ChecksumGate, ToleranceFollowsTheCanon) {
  EXPECT_EQ(presto::bench::Scale::from_cli(make_cli({"--backend=parallel"}))
                .checksum_tol(),
            0.0);
  EXPECT_EQ(presto::bench::Scale::from_cli(make_cli({"--backend=fiber"}))
                .checksum_tol(),
            1e-12);
}

presto::apps::AppResult with_checksum(double checksum) {
  presto::apps::AppResult r;
  r.checksum = checksum;
  return r;
}

TEST(ChecksumGate, AcceptsDifferencesWithinTolerance) {
  presto::bench::check_equal_checksums(
      {with_checksum(1000.0), with_checksum(1000.0 + 1e-10)}, 1e-12);
  presto::bench::check_equal_checksums({with_checksum(-2.5)}, 0.0);
  SUCCEED();
}

// A wrong answer fails the bench process, so a smoke test running the bench
// fails too.
TEST(ChecksumGateDeath, MismatchExitsNonZero) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(presto::bench::check_equal_checksums(
                  {with_checksum(6395.13), with_checksum(8172.71)}, 1e-12),
              ::testing::ExitedWithCode(1), "CHECKSUM MISMATCH: 8172.71");
  EXPECT_EXIT(presto::bench::check_equal_checksums(
                  {with_checksum(1.0), with_checksum(1.0 + 1e-15)}, 0.0),
              ::testing::ExitedWithCode(1), "CHECKSUM MISMATCH");
}

}  // namespace
