// Multi-version store gate: builds a psl::store file over the synthetic
// history, proves every version materializes bit-identically, and measures
// the two numbers the design is accountable for:
//
//   * dedup ratio — store file size as a fraction of shipping every version
//     as a standalone snapshot. The full 1,142-version corpus must come in
//     under 0.30 or the binary exits non-zero (CI treats that like a test
//     failure); --smoke runs the 96-version tiny timeline with a looser
//     0.50 bar (fewer versions means less sharing to exploit).
//   * time-travel query throughput — match_at-style lookups (resolve the
//     version in effect at a random date, then match one host) against the
//     plain current-generation matcher on the same host stream.
//
// Results land machine-readably in BENCH_store.json, which CI archives.
//
// Usage: bench_store [--smoke] [queries]
//   --smoke   tiny 96-version timeline + relaxed gate (CI Release job)
//   queries   time-travel lookups measured (default 200000)
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/serve/snapshot.hpp"
#include "psl/store/store.hpp"
#include "psl/util/date.hpp"
#include "psl/util/namegen.hpp"
#include "psl/util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host mix biased toward rules that exist somewhere in the history, so
/// time-travel answers actually vary across versions.
std::vector<std::string> host_mix(const psl::List& newest) {
  psl::util::Rng rng(23);
  psl::util::NameGen names{rng.fork(1)};
  const auto& rules = newest.rules();
  std::vector<std::string> out;
  out.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    std::string host = names.fresh();
    if (rng.chance(0.6) && !rules.empty()) {
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
    out.push_back(std::move(host));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t queries = 200000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      queries = static_cast<std::size_t>(std::atoll(argv[i]));
    }
  }
  const double gate = smoke ? 0.50 : 0.30;

  psl::history::TimelineSpec spec;
  if (smoke) spec = psl::history::TimelineSpec::tiny();
  std::cerr << "[bench_store] generating " << (smoke ? "tiny" : "full")
            << " history...\n";
  const auto history = psl::history::generate_history(spec);
  const std::size_t versions = history.version_count();

  // Build: every version through the public Builder path (compile -> delta
  // -> verify round-trip), exactly what `psltool store build` runs.
  const auto t_build = Clock::now();
  psl::store::Builder builder;
  for (std::size_t v = 0; v < versions; ++v) {
    const psl::List list = history.snapshot(v);
    psl::snapshot::Metadata meta;
    meta.source_date = history.version_date(v);
    meta.rule_count = list.rule_count();
    auto added = builder.add(psl::CompiledMatcher(list), meta);
    if (!added.ok()) {
      std::cerr << "ADD FAILED at version " << v << ": " << added.error().message << "\n";
      return 1;
    }
  }
  const double build_secs = secs_since(t_build);

  const std::string path = "BENCH_store.pstore";
  auto written = builder.write_file(path);
  if (!written.ok()) {
    std::cerr << "WRITE FAILED: " << written.error().message << "\n";
    return 1;
  }
  auto opened = psl::store::StoreView::open(path);
  if (!opened.ok()) {
    std::cerr << "OPEN FAILED: " << opened.error().message << "\n";
    return 1;
  }
  const auto view = *opened;
  const psl::store::Stats stats = view->stats();

  // Materialize every version once (cold) — this is the validating load
  // path, so it also re-proves every checksum in the file.
  const auto t_mat = Clock::now();
  for (std::size_t v = 0; v < versions; ++v) {
    auto snap = view->open_version(v);
    if (!snap.ok()) {
      std::cerr << "MATERIALIZE FAILED at version " << v << ": "
                << snap.error().message << "\n";
      return 1;
    }
  }
  const double materialize_secs = secs_since(t_mat);

  // Bit-identity spot check: first, middle, newest re-serialize to exactly
  // the standalone bytes.
  for (const std::size_t v : {std::size_t{0}, versions / 2, versions - 1}) {
    const psl::List list = history.snapshot(v);
    psl::snapshot::Metadata meta;
    meta.source_date = history.version_date(v);
    meta.rule_count = list.rule_count();
    const std::string standalone =
        psl::snapshot::serialize(psl::CompiledMatcher(list), meta);
    const auto snap = view->open_version(v);
    if (psl::snapshot::serialize(snap->matcher, snap->meta) != standalone) {
      std::cerr << "BIT-IDENTITY FAILED at version " << v << "\n";
      return 1;
    }
  }

  // Time-travel lookups: random date in the stored span -> version in
  // effect -> one match_view. Materializations are cached, so steady state
  // is the binary-search + a matcher walk.
  const psl::List newest = history.snapshot(versions - 1);
  const std::vector<std::string> hosts = host_mix(newest);
  const std::int32_t first_day = history.version_date(0).days_since_epoch();
  const std::int32_t last_day = history.version_date(versions - 1).days_since_epoch();
  psl::util::Rng rng(29);
  std::vector<psl::util::Date> dates;
  dates.reserve(1024);
  for (int i = 0; i < 1024; ++i) {
    dates.push_back(psl::util::Date{static_cast<std::int32_t>(
        first_day + static_cast<std::int32_t>(
                        rng.below(static_cast<std::size_t>(last_day - first_day) + 1)))});
  }

  std::size_t sink = 0;
  const auto t_tt = Clock::now();
  for (std::size_t i = 0; i < queries; ++i) {
    auto snap = view->open_at(dates[i % dates.size()]);
    if (!snap.ok()) return 1;
    sink += snap->matcher.match_view(hosts[i % hosts.size()]).public_suffix.size();
  }
  const double tt_secs = secs_since(t_tt);

  // Baseline: the same host stream against the fixed newest matcher.
  const psl::CompiledMatcher current(newest);
  const auto t_cur = Clock::now();
  for (std::size_t i = 0; i < queries; ++i) {
    sink += current.match_view(hosts[i % hosts.size()]).public_suffix.size();
  }
  const double cur_secs = secs_since(t_cur);

  const double tt_qps = static_cast<double>(queries) / tt_secs;
  const double cur_qps = static_cast<double>(queries) / cur_secs;

  std::cout << "store: " << versions << " versions, " << stats.file_bytes
            << " bytes (" << 100.0 * stats.dedup_ratio() << "% of "
            << stats.standalone_bytes << " standalone), built in " << build_secs
            << "s, materialized all in " << materialize_secs << "s\n";
  std::cout << "segments: " << stats.segment_count << " (" << stats.raw_segments
            << " raw, " << stats.delta_segments << " delta)\n";
  std::cout << "match_at " << static_cast<long long>(tt_qps)
            << " qps vs current-generation " << static_cast<long long>(cur_qps)
            << " qps (sink " << sink << ")\n";

  std::ofstream json("BENCH_store.json");
  json << "{\n";
  json << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  json << "  \"versions\": " << versions << ",\n";
  json << "  \"file_bytes\": " << stats.file_bytes << ",\n";
  json << "  \"standalone_bytes\": " << stats.standalone_bytes << ",\n";
  json << "  \"dedup_ratio\": " << stats.dedup_ratio() << ",\n";
  json << "  \"dedup_gate\": " << gate << ",\n";
  json << "  \"raw_segments\": " << stats.raw_segments << ",\n";
  json << "  \"delta_segments\": " << stats.delta_segments << ",\n";
  json << "  \"build_secs\": " << build_secs << ",\n";
  json << "  \"materialize_all_secs\": " << materialize_secs << ",\n";
  json << "  \"queries\": " << queries << ",\n";
  json << "  \"match_at_qps\": " << tt_qps << ",\n";
  json << "  \"current_generation_qps\": " << cur_qps << ",\n";
  psl::bench::emit_bench_delta(json);
  json << "\n}\n";

  if (stats.dedup_ratio() >= gate) {
    std::cout << "DEDUP GATE FAILED: ratio " << stats.dedup_ratio() << " >= " << gate
              << "\n";
    return 1;
  }
  std::cout << "dedup gate passed (" << stats.dedup_ratio() << " < " << gate << ")\n";
  return 0;
}
