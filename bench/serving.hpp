// Shared workload for the serving benches (bench_micro_lookup,
// bench_serve_qps, bench_net_qps, bench_analytics): one host mix and one
// way to seed an engine, so the binaries measure the same thing and the
// deltas between them are exactly the layers they add.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/serve/snapshot.hpp"
#include "psl/util/date.hpp"
#include "psl/util/namegen.hpp"
#include "psl/util/rng.hpp"

namespace psl::bench {

/// 4096 hosts of varying depth, half under real suffixes of `list`, half
/// under .com/.net; 40% carry a "www." label.
inline std::vector<std::string> host_mix(const List& list) {
  util::Rng rng(7);
  util::NameGen names{rng.fork(1)};
  const auto& rules = list.rules();
  std::vector<std::string> out;
  out.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    std::string host = names.fresh();
    if (rng.chance(0.5)) {
      const auto& rule = rules[rng.below(rules.size())];
      std::string suffix;
      for (const auto& label : rule.labels()) {
        if (!suffix.empty()) suffix.push_back('.');
        suffix += label;
      }
      host += "." + suffix;
    } else {
      host += '.';
      host += names.fresh();
      host += rng.chance(0.5) ? ".com" : ".net";
    }
    if (rng.chance(0.4)) host = "www." + host;
    out.push_back(std::move(host));
  }
  return out;
}

/// `list` as an engine seed, through the full serialize -> validate -> load
/// path a deployed daemon runs. Exits the bench if the self-load fails.
inline snapshot::Snapshot snapshot_of(const List& list, util::Date source_date) {
  snapshot::Metadata meta;
  meta.source_date = source_date;
  meta.rule_count = list.rules().size();
  const std::string bytes = snapshot::serialize(CompiledMatcher(list), meta);
  auto loaded = snapshot::load_copy(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  if (!loaded.ok()) {
    std::cerr << "snapshot self-load failed: " << loaded.error().message << "\n";
    std::exit(2);
  }
  return *std::move(loaded);
}

}  // namespace psl::bench
