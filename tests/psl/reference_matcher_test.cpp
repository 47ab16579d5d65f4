// CompiledMatcher against a brute-force reference that shares no code with
// psl/detail/match_walk.hpp. List and CompiledMatcher both run that one
// walk, so agreement between them cannot expose a bug in it; this suite
// can.
//
// The reference applies the publicsuffix.org steps literally: look up every
// suffix of the host in std::maps of rule strings, collect the matching
// rules, and pick the prevailing one (an exception if any matched, else the
// rule with the most labels, else the implicit "*"). Conventions the spec
// leaves open are fixed here as the library documents them:
//   * one trailing dot is ignored; a host that is then empty or ends in an
//     empty label has no suffix at all (an empty MatchView);
//   * rules match only through non-empty labels, so matching stops at the
//     first empty label from the right ("a..b.com" can match rules up to
//     "b.com" but no deeper);
//   * when several exceptions match, the one with the most labels prevails;
//     a normal rule beats a wildcard of the same length;
//   * a rule listed in both sections takes the section of its last entry in
//     List::rules().
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/psl/match.hpp"
#include "psl/util/rng.hpp"
#include "psl/util/strings.hpp"
#include "random_lists.hpp"

namespace psl {
namespace {

using testing::hostile_hosts;
using testing::random_blob;
using testing::random_host;
using testing::random_list;
using testing::shared_pool;

/// What a match must report, as owned strings.
struct Expected {
  std::string public_suffix;
  std::string registrable_domain;
  bool explicit_rule = false;
  Section section = Section::kIcann;
  std::size_t rule_labels = 0;
  std::string prevailing_rule;  ///< canonical text; empty for the implicit "*"
};

class BruteForceMatcher {
 public:
  explicit BruteForceMatcher(const List& list) {
    for (const Rule& rule : list.rules()) {
      // Keyed by the rule's stored labels: "co.uk", "ck" for *.ck, "www.ck"
      // for !www.ck.
      rules_[static_cast<int>(rule.kind())][util::join(rule.labels(), ".")] = rule.section();
    }
  }

  Expected match(std::string_view host) const {
    if (!host.empty() && host.back() == '.') host.remove_suffix(1);
    if (host.empty() || host.back() == '.') return {};

    // starts[d] = offset of the suffix made of the d rightmost labels.
    std::vector<std::size_t> starts{host.size() + 1};
    for (std::size_t i = host.size(); i > 0; --i) {
      if (host[i - 1] == '.') starts.push_back(i);
    }
    starts.push_back(0);
    const std::size_t labels = starts.size() - 1;
    const auto suffix = [&](std::size_t d) {
      return d == 0 ? std::string_view{} : host.substr(starts[d]);
    };
    const auto label = [&](std::size_t d) {  // the d-th label from the right
      return host.substr(starts[d], starts[d - 1] - starts[d] - 1);
    };

    struct Candidate {
      std::size_t labels;  ///< labels the rule matches in the host
      RuleKind kind;
      Section section;
    };
    std::optional<Candidate> best;       // longest normal/wildcard match
    std::optional<Candidate> exception;  // longest exception match
    for (std::size_t d = 1; d <= labels && !label(d).empty(); ++d) {
      if (const auto s = find(RuleKind::kWildcard, suffix(d - 1))) {
        if (!best || d > best->labels) best = Candidate{d, RuleKind::kWildcard, *s};
      }
      if (const auto s = find(RuleKind::kNormal, suffix(d))) {
        if (!best || d >= best->labels) best = Candidate{d, RuleKind::kNormal, *s};
      }
      if (const auto s = find(RuleKind::kException, suffix(d))) {
        exception = Candidate{d, RuleKind::kException, *s};
      }
    }

    Expected out;
    std::size_t ps_labels = 1;  // the implicit "*"
    if (exception) {
      ps_labels = exception->labels - 1;
      out.explicit_rule = true;
      out.section = exception->section;
      out.prevailing_rule = "!" + std::string(suffix(exception->labels));
    } else if (best) {
      ps_labels = best->labels;
      out.explicit_rule = true;
      out.section = best->section;
      out.prevailing_rule = best->kind == RuleKind::kWildcard
                                ? "*." + std::string(suffix(best->labels - 1))
                                : std::string(suffix(best->labels));
    }
    out.rule_labels = ps_labels;
    out.public_suffix = suffix(ps_labels);
    if (labels > ps_labels) out.registrable_domain = suffix(ps_labels + 1);
    return out;
  }

 private:
  std::optional<Section> find(RuleKind kind, std::string_view labels) const {
    const auto& rules = rules_[static_cast<int>(kind)];
    const auto it = rules.find(labels);
    if (it == rules.end()) return std::nullopt;
    return it->second;
  }

  std::map<std::string, Section, std::less<>> rules_[3];  // indexed by RuleKind
};

void expect_view_is(const MatchView& got, const Expected& want, std::string_view host) {
  ASSERT_EQ(got.public_suffix, want.public_suffix) << host;
  ASSERT_EQ(got.registrable_domain, want.registrable_domain) << host;
  ASSERT_EQ(got.matched_explicit_rule, want.explicit_rule) << host;
  ASSERT_EQ(got.section, want.section) << host;
  ASSERT_EQ(got.rule_labels, want.rule_labels) << host;
  ASSERT_EQ(got.prevailing_rule(), want.prevailing_rule) << host;
}

/// match_view on every host, then match_batch and reg_domain_batch over the
/// hosts in consecutive batches of `batch` (0 = one empty call).
void expect_matches_reference(const List& list, const std::vector<std::string>& storage,
                              std::size_t batch) {
  const CompiledMatcher compiled(list);
  const BruteForceMatcher reference(list);
  std::vector<Expected> want;
  for (const std::string& host : storage) {
    want.push_back(reference.match(host));
    expect_view_is(compiled.match_view(host), want.back(), host);
  }

  const std::vector<std::string_view> hosts(storage.begin(), storage.end());
  std::vector<MatchView> views(hosts.size());
  std::vector<RegDomainKey> keys(hosts.size());
  if (batch == 0) {
    ASSERT_EQ(compiled.match_batch({}, views), 0u);
    ASSERT_EQ(compiled.reg_domain_batch({}, keys), 0u);
    return;
  }
  for (std::size_t base = 0; base < hosts.size(); base += batch) {
    const std::size_t n = std::min(batch, hosts.size() - base);
    const auto in = std::span(hosts).subspan(base, n);
    // Output spans longer than the input: only n results are written.
    ASSERT_EQ(compiled.match_batch(in, std::span(views).subspan(base)), n);
    ASSERT_EQ(compiled.reg_domain_batch(in, std::span(keys).subspan(base)), n);
  }
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    expect_view_is(views[i], want[i], hosts[i]);
    ASSERT_EQ(keys[i].in(hosts[i]), want[i].registrable_domain) << hosts[i];
  }
}

constexpr std::size_t kBatchSizes[] = {0, 1, 15, 16, 17, 64};

TEST(ReferenceMatcherTest, ReferenceFollowsThePublishedAlgorithm) {
  // Spot-check the reference itself on the publicsuffix.org rule shapes
  // before trusting it as an oracle.
  const auto list = List::parse(
      "com\nuk\nco.uk\n*.ck\n!www.ck\njp\n*.kobe.jp\n!city.kobe.jp\n"
      "// ===BEGIN PRIVATE DOMAINS===\ngithub.io\n");
  ASSERT_TRUE(list.ok());
  const BruteForceMatcher reference(*list);

  const Expected plain = reference.match("a.b.example.co.uk");
  EXPECT_EQ(plain.public_suffix, "co.uk");
  EXPECT_EQ(plain.registrable_domain, "example.co.uk");
  EXPECT_EQ(plain.prevailing_rule, "co.uk");

  const Expected wildcard = reference.match("a.b.test.ck");
  EXPECT_EQ(wildcard.public_suffix, "test.ck");
  EXPECT_EQ(wildcard.prevailing_rule, "*.ck");
  EXPECT_EQ(wildcard.rule_labels, 2u);

  const Expected exception = reference.match("www.city.kobe.jp");
  EXPECT_EQ(exception.public_suffix, "kobe.jp");
  EXPECT_EQ(exception.registrable_domain, "city.kobe.jp");
  EXPECT_EQ(exception.prevailing_rule, "!city.kobe.jp");

  const Expected implicit = reference.match("example.unknown.");
  EXPECT_EQ(implicit.public_suffix, "unknown");
  EXPECT_EQ(implicit.registrable_domain, "example.unknown");
  EXPECT_FALSE(implicit.explicit_rule);

  const Expected private_rule = reference.match("alice.github.io");
  EXPECT_EQ(private_rule.section, Section::kPrivate);
  EXPECT_EQ(private_rule.public_suffix, "github.io");
  EXPECT_EQ(private_rule.registrable_domain, "alice.github.io");

  const Expected degenerate = reference.match("a..");
  EXPECT_TRUE(degenerate.public_suffix.empty());
  EXPECT_TRUE(degenerate.registrable_domain.empty());
}

TEST(ReferenceMatcherTest, ExceptionKeepsItsSectionUnderDeeperRules) {
  // An exception prevails over every other match, including normal and
  // wildcard rules below it from the other section; the reported section
  // is the exception's.
  const auto list = List::parse(
      "// ===BEGIN ICANN DOMAINS===\nck\n!www.ck\n!b.a.io\nio\n// ===END ICANN DOMAINS===\n"
      "// ===BEGIN PRIVATE DOMAINS===\n*.www.ck\nx.www.ck\nc.b.a.io\n*.a.io\n"
      "// ===END PRIVATE DOMAINS===\n");
  ASSERT_TRUE(list.ok());
  const std::vector<std::string> hosts = {"a.www.ck", "x.www.ck", "y.x.www.ck", "www.ck",
                                          "c.b.a.io", "d.c.b.a.io", "b.a.io", "z.a.io"};
  const BruteForceMatcher reference(*list);
  EXPECT_EQ(reference.match("x.www.ck").section, Section::kIcann);
  EXPECT_EQ(reference.match("x.www.ck").prevailing_rule, "!www.ck");
  for (const std::size_t batch : kBatchSizes) expect_matches_reference(*list, hosts, batch);
}

class ReferenceMatcherSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReferenceMatcherSeedTest, RandomListsMatchTheReference) {
  const std::uint64_t seed = GetParam();
  const List list = random_list(seed, 120);
  const auto pool = shared_pool(seed);
  util::Rng rng(seed ^ 0x5EED);
  std::vector<std::string> hosts;
  for (int i = 0; i < 1500; ++i) {
    std::string host = random_host(rng, pool);
    if (rng.chance(0.05)) host.push_back('.');
    hosts.push_back(std::move(host));
  }
  for (const std::size_t batch : kBatchSizes) expect_matches_reference(list, hosts, batch);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceMatcherSeedTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(ReferenceMatcherTest, HostileAndDegenerateHostsMatchTheReference) {
  const List list = random_list(4096, 120);
  const auto pool = shared_pool(4096);
  std::vector<std::string> hosts = hostile_hosts();
  util::Rng rng(777);
  for (int i = 0; i < 2000; ++i) hosts.push_back(random_blob(rng));
  // Pool labels around empty labels, so live rules meet the stop rule.
  for (int i = 0; i < 500; ++i) {
    hosts.push_back(random_host(rng, pool, 2) + ".." + random_host(rng, pool, 3));
    hosts.push_back("." + random_host(rng, pool));
  }
  for (const std::size_t batch : kBatchSizes) expect_matches_reference(list, hosts, batch);
}

}  // namespace
}  // namespace psl
