// Shared plumbing of psldbench: options, the prepared inputs and
// files, and the result every run prints.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gen.hpp"
#include "proc.hpp"
#include "psl/net/client.hpp"
#include "psl/psl/compiled_matcher.hpp"

namespace pb {

struct Options {
  Workload workload = Workload::kHotSmall;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string bin_dir;   ///< holds psld and psltool
  std::string work_dir;  ///< scratch for generated files (inside the checkout)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Generated inputs plus the files psld is started from.
struct Prepared {
  explicit Prepared(Inputs generated) : inputs(std::move(generated)) {}

  Inputs inputs;
  CpuSplit cpus;
  std::string psld;
  std::string psltool;
  std::string head_snapshot;  ///< newest vintage, compiled by `psld compile`
  std::string prev_snapshot;  ///< the vintage before it
  std::vector<std::uint8_t> head_bytes, prev_bytes;
  std::string store;  ///< time_travel and traced runs: every vintage, via `psltool store build`
  std::unique_ptr<psl::CompiledMatcher> head, prev;  ///< oracle references
};

/// Generate every input from the seed and build the files psld needs.
/// Prints the reason and returns null on failure.
std::unique_ptr<Prepared> prepare(const Options& options);

/// A started psld plus the port its banner named.
struct Daemon {
  Child child;
  std::uint16_t port = 0;
};
/// Start psld for this workload pinned to the server CPUs; nullopt (reason
/// on stderr) when it does not come up within 60 s.
std::optional<Daemon> start_daemon(const Options& options, const Prepared& prep,
                                   const std::string& log_name);

/// Connect a client, failing loudly.
std::optional<psl::net::Client> connect_client(std::uint16_t port);

/// Send one request frame; returns the answer's digest, or kNoAnswer with
/// the error in `error`. `hosts` and `pairs` are reusable scratch.
std::uint64_t send_request(psl::net::Client& client, const Request& req,
                           std::vector<std::string>& hosts,
                           std::vector<std::pair<std::string, std::string>>& pairs,
                           std::string& error);

/// The untraced run: end-to-end metrics over the wire.
bool run_wire(const Options& options, Prepared& prep, Result& result);
/// The traced run: per-layer metrics.
bool run_trace(const Options& options, Prepared& prep, Result& result);

}  // namespace pb
