// Tests for the benchmark harness itself: the oracle, the order statistics,
// the /proc readers, and the refusal to report when psld is unreachable.
// Run with: python3 psldbench/run.py --selftest
#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "bench.hpp"
#include "oracle.hpp"
#include "proc.hpp"
#include "stats.hpp"

namespace pb {
namespace {

// --- order statistics ------------------------------------------------------------

TEST(Stats, QuartilesMatchPythonStatisticsQuantiles) {
  // Expected values from Python's statistics.quantiles(data, n=4).
  const auto a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a[0], 2.75);
  EXPECT_DOUBLE_EQ(a[1], 5.5);
  EXPECT_DOUBLE_EQ(a[2], 8.25);
  const auto b = quartiles({1, 2});
  EXPECT_DOUBLE_EQ(b[0], 0.75);
  EXPECT_DOUBLE_EQ(b[1], 1.5);
  EXPECT_DOUBLE_EQ(b[2], 2.25);
  const auto c = quartiles({3, 1, 4, 1, 5, 9, 2, 6, 5});
  EXPECT_DOUBLE_EQ(c[0], 1.5);
  EXPECT_DOUBLE_EQ(c[1], 4.0);
  EXPECT_DOUBLE_EQ(c[2], 5.5);
  const auto d = quartiles({40, 10, 20});
  EXPECT_DOUBLE_EQ(d[0], 10.0);
  EXPECT_DOUBLE_EQ(d[2], 40.0);
}

TEST(Stats, NearestRankPercentilesAndMedian) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 50);
  EXPECT_DOUBLE_EQ(percentile(v, 99), 99);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(percentile({7}, 99), 7);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90), 9);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3);
  EXPECT_DOUBLE_EQ(relative_spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25 - 2.75) / 5.5);
}

TEST(Stats, CalmRoundsKeepTheLeastStealAndEveryRoundNearIt) {
  using V = std::vector<std::size_t>;
  // Calm run: every round within the slack counts.
  EXPECT_EQ(calm_rounds({0.0, 0.005, 0.0025, 0.01, 0.0}, 0.01, 2), (V{0, 1, 2, 3, 4}));
  // Contended run: only rounds near the least; at least min_count of them.
  EXPECT_EQ(calm_rounds({0.15, 0.02, 0.18, 0.025, 0.2, 0.1}, 0.01, 2), (V{1, 3}));
  EXPECT_EQ(calm_rounds({0.15, 0.02, 0.18, 0.025, 0.2, 0.1}, 0.01, 3), (V{1, 3, 5}));
  EXPECT_EQ(calm_rounds({0.3}, 0.01, 5), (V{0}));
}

// --- the oracle --------------------------------------------------------------------

class OracleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hot_ = new Inputs(make_inputs(Workload::kHotSmall, 11));
    churn_ = new Inputs(make_inputs(Workload::kChurnMixed, 11));
    const std::size_t V = hot_->history.versions();
    head_ = new psl::CompiledMatcher(hot_->history.list(V - 1));
    prev_ = new psl::CompiledMatcher(hot_->history.list(V - 2));
  }
  static void TearDownTestSuite() {
    delete hot_;
    delete churn_;
    delete head_;
    delete prev_;
  }

  /// Correct digests for the first `frames` frames of a stream, as psld
  /// answering from `matcher` would produce them.
  static ConnLog honest_log(const Inputs& in, Stream::Role role, const psl::CompiledMatcher& matcher,
                            std::size_t frames) {
    ConnLog log{role, 0, {}};
    Stream stream(in, role, 0);
    Request req;
    for (std::size_t i = 0; i < frames; ++i) {
      stream.next(req);
      log.digests.push_back(expected_digest(matcher, req));
    }
    return log;
  }

  static Inputs* hot_;
  static Inputs* churn_;
  static psl::CompiledMatcher* head_;
  static psl::CompiledMatcher* prev_;
};
Inputs* OracleTest::hot_ = nullptr;
Inputs* OracleTest::churn_ = nullptr;
psl::CompiledMatcher* OracleTest::head_ = nullptr;
psl::CompiledMatcher* OracleTest::prev_ = nullptr;

TEST_F(OracleTest, AcceptsHonestAnswersAndRejectsAPlantedWrongOne) {
  std::vector<ConnLog> logs = {honest_log(*hot_, Stream::Role::kHot, *head_, 500)};
  Verdict ok = verify(*hot_, {head_, prev_}, logs, 2);
  EXPECT_EQ(ok.checked, 500u);
  EXPECT_EQ(ok.wrong, 0u);

  logs[0].digests[137] ^= 1;  // one flipped answer
  Verdict bad = verify(*hot_, {head_, prev_}, logs, 2);
  EXPECT_EQ(bad.wrong, 1u);
  EXPECT_NE(bad.first_wrong.find("frame 137"), std::string::npos) << bad.first_wrong;
}

TEST_F(OracleTest, PlantedWrongRegistrableDomainIsCaught) {
  // A real-looking wrong answer: the digest of a match with a different
  // registrable domain, not a bit flip.
  Stream stream(*hot_, Stream::Role::kHot, 0);
  Request req;
  stream.next(req);
  ASSERT_EQ(req.op, Op::kMatch);
  const psl::MatchView v = head_->match_view(req.hosts[0]);
  psl::net::WireMatch wrong{std::string(v.public_suffix), "evil." + std::string(v.public_suffix),
                            v.matched_explicit_rule, v.section == psl::Section::kPrivate};
  ConnLog log{Stream::Role::kHot, 0, {digest(std::vector<psl::net::WireMatch>{wrong})}};
  EXPECT_EQ(verify(*hot_, {head_, prev_}, {log}, 1).wrong, 1u);
}

TEST_F(OracleTest, ChurnBatchesMustMatchExactlyOneVintage) {
  const std::size_t V = churn_->history.versions();
  const psl::CompiledMatcher head(churn_->history.list(V - 1)), prev(churn_->history.list(V - 2));
  // Answers from either vintage are correct, batch by batch.
  ConnLog from_head = honest_log(*churn_, Stream::Role::kChurnRead, head, 300);
  ConnLog from_prev = honest_log(*churn_, Stream::Role::kChurnRead, prev, 300);
  ConnLog mixed = from_head;
  for (std::size_t i = 0; i < mixed.digests.size(); i += 2) mixed.digests[i] = from_prev.digests[i];
  EXPECT_EQ(verify(*churn_, {&head, &prev}, {mixed}, 2).wrong, 0u);
  // A batch answered by neither vintage is wrong.
  mixed.digests[41] = fold(mixed.digests[41], 1);
  EXPECT_EQ(verify(*churn_, {&head, &prev}, {mixed}, 2).wrong, 1u);
}

TEST_F(OracleTest, IngestAckMustAcceptTheWholeBatch) {
  ConnLog log = honest_log(*churn_, Stream::Role::kChurnIngest, *head_, 10);
  EXPECT_EQ(verify(*churn_, {head_, prev_}, {log}, 1).wrong, 0u);
  log.digests[3] = ingest_digest(static_cast<std::uint32_t>(kIngestBatch - 1));
  EXPECT_EQ(verify(*churn_, {head_, prev_}, {log}, 1).wrong, 1u);
}

TEST(Generator, SameSeedSameInputsAndUniqueHostsNeverRepeat) {
  const Inputs a = make_inputs(Workload::kBulkUnique, 5), b = make_inputs(Workload::kBulkUnique, 5);
  EXPECT_EQ(a.history.list_text(a.history.versions() - 1), b.history.list_text(b.history.versions() - 1));
  EXPECT_EQ(a.corpus.hosts, b.corpus.hosts);
  std::set<std::string> seen;
  Request req;
  for (std::uint32_t conn = 0; conn < 2; ++conn) {
    for (std::uint64_t k = 0; k < 40; ++k) {
      bulk_frame(a, conn, k, req);
      for (const auto h : req.hosts) EXPECT_TRUE(seen.insert(std::string(h)).second) << h;
    }
  }
  bool has_253 = false, has_trailing_dot = false, has_empty_label = false, has_xn = false;
  for (const auto& h : seen) {
    has_253 |= h.size() == 253;
    has_trailing_dot |= h.back() == '.';
    has_empty_label |= h.find("..") != std::string::npos;
    has_xn |= h.find("xn--") != std::string::npos;
  }
  EXPECT_TRUE(has_253 && has_trailing_dot && has_empty_label && has_xn);
  // The two newest vintages disagree on every discriminator pair.
  const std::size_t V = a.history.versions();
  const psl::CompiledMatcher head(a.history.list(V - 1)), prev(a.history.list(V - 2));
  ASSERT_FALSE(a.corpus.discriminators.empty());
  for (const auto& [x, y] : a.corpus.discriminators) {
    EXPECT_NE(psl::same_site(head, x, y), psl::same_site(prev, x, y)) << x << " ~ " << y;
  }
}

// --- /proc readers -------------------------------------------------------------------

TEST(Proc, ReadersSeeThisProcess) {
  const pid_t self = ::getpid();
  volatile double x = 0;
  const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(60);
  while (std::chrono::steady_clock::now() < until) x = x + 1;
  const auto cpu = proc_cpu_seconds(self);
  ASSERT_TRUE(cpu.has_value());
  EXPECT_GT(*cpu, 0.0);
  const auto rss = proc_peak_rss_mib(self);
  ASSERT_TRUE(rss.has_value());
  EXPECT_GT(*rss, 1.0);

  const auto io0 = proc_io(self);
  ASSERT_TRUE(io0.has_value());
  char byte;
  for (int i = 0; i < 10; ++i) {
    std::ifstream in("/proc/self/stat");
    in.read(&byte, 1);
  }
  const auto io1 = proc_io(self);
  ASSERT_TRUE(io1.has_value());
  EXPECT_GE(io1->syscr, io0->syscr + 10);

  const auto ctx0 = proc_ctx_switches(self);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto ctx1 = proc_ctx_switches(self);
  ASSERT_TRUE(ctx0 && ctx1);
  EXPECT_GT(*ctx1, *ctx0);
}

TEST(Proc, ReadersFailForAMissingProcess) {
  // pid_max is at most 2^22, so this pid never exists.
  const pid_t missing = (1 << 22) + 7;
  EXPECT_FALSE(proc_cpu_seconds(missing).has_value());
  EXPECT_FALSE(proc_peak_rss_mib(missing).has_value());
  EXPECT_FALSE(proc_io(missing).has_value());
  EXPECT_FALSE(proc_ctx_switches(missing).has_value());
}

TEST(Proc, BannerPortAndCpuLists) {
  EXPECT_EQ(banner_port("psld: serving generation 1 (9 rules) on 127.0.0.1:40123, 2 workers"),
            std::optional<std::uint16_t>(40123));
  EXPECT_FALSE(banner_port("psld: draining...").has_value());
  EXPECT_EQ(cpu_list({0, 1, 2, 5, 7, 8}), "0-2,5,7-8");
  const CpuSplit split = split_cpus();
  ASSERT_FALSE(split.all.empty());
  if (split.all.size() > 1) {
    EXPECT_TRUE(split.disjoint);
    for (int c : split.server) {
      EXPECT_EQ(std::count(split.generator.begin(), split.generator.end(), c), 0);
    }
  }
}

// --- an unreachable psld ------------------------------------------------------------------

/// A port nothing listens on: bind an ephemeral port, then close it.
std::uint16_t dead_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

TEST(Unreachable, ConnectFailsLoudly) { EXPECT_FALSE(connect_client(dead_port()).has_value()); }

TEST(Unreachable, RunRefusesToReportWhenPsldCannotBeReached) {
  // A stand-in "psld" that prints a serving banner for a dead port and
  // then idles: the run must fail instead of reporting zero throughput.
  const std::string dir = std::filesystem::absolute("selftest_work").string();
  std::filesystem::create_directories(dir);
  const std::string fake = dir + "/psld";
  {
    std::ofstream script(fake);
    script << "#!/bin/sh\necho 'psld: serving generation 1 (1 rules) on 127.0.0.1:" << dead_port()
           << ", 2 workers'\nexec sleep 30\n";
  }
  std::filesystem::permissions(fake, std::filesystem::perms::owner_all);

  Options options;
  options.workload = Workload::kHotSmall;
  options.seconds = 1;
  options.work_dir = dir;
  Prepared prep(make_inputs(Workload::kHotSmall, 2));
  prep.cpus = split_cpus();
  prep.psld = fake;
  Result result;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(run_wire(options, prep, result));
  EXPECT_TRUE(result.metrics.empty());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(20));

  // A "psld" that exits before printing a banner fails the same way.
  prep.psld = "/bin/false";
  EXPECT_FALSE(start_daemon(options, prep, "false.log").has_value());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pb
