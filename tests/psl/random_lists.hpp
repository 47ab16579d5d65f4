// Generators shared by the matcher suites: random rule sets drawn from a
// small label pool (so generated hosts collide with rules often), hosts from
// the same pool, and the hostile/degenerate host strings every matcher must
// survive.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "psl/psl/list.hpp"
#include "psl/util/namegen.hpp"
#include "psl/util/rng.hpp"

namespace psl::testing {

/// The 24-label pool behind random_list(seed, ...) and its hosts.
inline std::vector<std::string> shared_pool(std::uint64_t seed) {
  util::Rng rng(seed);
  util::NameGen names{rng.fork(1)};
  std::vector<std::string> pool;
  for (int i = 0; i < 24; ++i) pool.push_back(names.fresh(1));
  return pool;
}

/// Deterministically generate a random rule set of the given size: 1-3
/// pool labels per rule, ~12% wildcards, ~6% exceptions, ~30% private.
inline List random_list(std::uint64_t seed, std::size_t rules) {
  util::Rng rng(seed);
  util::NameGen names{rng.fork(1)};
  std::vector<std::string> pool;
  for (int i = 0; i < 24; ++i) pool.push_back(names.fresh(1));

  auto pick = [&] { return pool[rng.below(pool.size())]; };

  std::vector<Rule> out;
  while (out.size() < rules) {
    std::string text;
    const std::size_t labels = 1 + rng.below(3);
    for (std::size_t i = 0; i < labels; ++i) {
      if (!text.empty()) text.push_back('.');
      text += pick();
    }
    const double roll = rng.uniform01();
    if (roll < 0.12) {
      text = "*." + text;
    } else if (roll < 0.18 && labels >= 2) {
      text = "!" + text;
    }
    auto rule = Rule::parse(text, rng.chance(0.3) ? Section::kPrivate : Section::kIcann);
    if (rule.ok()) out.push_back(*std::move(rule));
  }
  return List::from_rules(std::move(out));
}

/// Random host of 1..max_labels pool labels.
inline std::string random_host(util::Rng& rng, const std::vector<std::string>& pool,
                               std::size_t max_labels = 5) {
  std::string host;
  const std::size_t labels = 1 + rng.below(max_labels);
  for (std::size_t i = 0; i < labels; ++i) {
    if (!host.empty()) host.push_back('.');
    host += pool[rng.below(pool.size())];
  }
  return host;
}

/// Empty labels, stray dots, rule markers as host text, long labels.
inline std::vector<std::string> hostile_hosts() {
  return {
      "",      ".",        "..",         "...",          "....",
      "a.",    "a..",      ".a",         "..a",          "a..b",
      "a...b", ".a.b.",    "*",          "*.ck",         "!www.ck",
      "-",     "a-.b",     std::string(300, 'a'),        std::string("a.").append(200, 'b'),
      std::string(64, '.') + "com",      std::string("x").append(100, '.') + "y",
  };
}

/// Random byte blobs over a dot-heavy alphabet (dots, markers, letters).
inline std::string random_blob(util::Rng& rng) {
  static const std::string alphabet = "ab.-.!*.c.";
  std::string host;
  const std::size_t len = rng.below(24);
  for (std::size_t c = 0; c < len; ++c) host += alphabet[rng.below(alphabet.size())];
  return host;
}

}  // namespace psl::testing
