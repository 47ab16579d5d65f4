// psldbench: the end-to-end benchmark of psld.
//
//   psldbench --workload NAME --seed N --seconds S --trace 0|1
//             --bin-dir DIR --work-dir DIR
//
// Generates every input from the seed, starts a real psld from the
// generated files, drives it, checks every answer, and prints report lines
// followed by one JSON result line (the last line of stdout). Exits 1 on
// any wrong answer or when a measurement could not be taken; it never
// reports zeros in place of a measurement.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: psldbench --workload hot_small|bulk_unique|churn_mixed|time_travel\n"
               "                 --seed N --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR\n");
  return 2;
}

void print_result(const pb::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const pb::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      if (!pb::parse_workload(value, options.workload)) return usage();
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--bin-dir") {
      options.bin_dir = value;
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || options.seconds <= 0 || options.bin_dir.empty() || options.work_dir.empty()) {
    return usage();
  }
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);

  auto prep = pb::prepare(options);
  if (!prep) return 1;
  pb::Result result;
  const bool measured = options.trace ? pb::run_trace(options, *prep, result)
                                      : pb::run_wire(options, *prep, result);
  if (!measured) {
    std::fprintf(stderr, "psldbench: %s run failed; no result\n", pb::workload_name(options.workload));
    return 1;
  }
  for (const pb::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "psldbench: metric %s is not finite; no result\n", m.name.c_str());
      return 1;
    }
  }
  // The big generated inputs go; logs and spans stay for inspection.
  for (const char* big : {"history.pstore", "fleet.psnap"}) {
    std::filesystem::remove(options.work_dir + "/" + big, ec);
  }
  print_result(result);
  return result.correct ? 0 : 1;
}
