// Input generation for psldbench: every list vintage, host corpus and
// request stream is a pure function of the run's --seed. psld only ever
// sees the files and frames built from these.
//
// The generators (Rng, Zipf, the list history) deliberately do not use
// psl::util::Rng / ZipfSampler or psl::history::generate_history: those are
// code under test, and a change to them would change the benchmark's
// inputs, so parent and child commits would no longer be measured on the
// same requests. Everything here depends on the repository only through
// the list syntax, the wire types, Date, and the reference matcher that
// keeps the discriminator pairs the oracle relies on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "psl/net/frame.hpp"
#include "psl/psl/list.hpp"
#include "psl/util/date.hpp"

namespace pb {

// --- randomness --------------------------------------------------------------

/// splitmix64 finalizer: a bijective 64-bit mix.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Independent sub-seed for (seed, a, b) — one per stream, connection, host.
constexpr std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) noexcept {
  return mix64(mix64(seed ^ mix64(a + 0x51ED27ull)) ^ mix64(b + 0xA0761D64ull));
}

/// xorshift64* — small, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(mix64(seed) | 1) {}
  std::uint64_t next() noexcept {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1Dull;
  }
  /// Uniform in [0, n). Precondition: n > 0.
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }
  /// Uniform in [0, 1).
  double uniform() noexcept { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks [0, n): rank k has weight 1 / (k + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(Rng& rng) const noexcept;
  std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

// --- list vintages -------------------------------------------------------------

/// One rule of the generated history, active in versions [added, removed).
struct HistRule {
  std::string text;  ///< PSL rule syntax: "a.b", "*.b" or "!a.b"
  bool is_private = false;
  std::uint32_t added = 0;
  std::uint32_t removed = 0;
};

/// A synthetic list history shaped like the real one: ~2.4k rules in 2007
/// growing to ~9.4k in 2022 (new-gTLD wave mid-history, private section
/// growing late), wildcard/exception rules, a trickle of removals, and a
/// final version that adds and drops a few rules so the two newest vintages
/// give different answers for some hosts.
struct History {
  std::vector<psl::util::Date> dates;  ///< one per version, strictly increasing
  std::vector<HistRule> rules;

  std::size_t versions() const noexcept { return dates.size(); }
  /// PSL file text of version v (ICANN and PRIVATE sections).
  std::string list_text(std::size_t v) const;
  /// Version v parsed by psl::List. Aborts if the generated text fails to
  /// parse (a generator bug, never an input condition).
  psl::List list(std::size_t v) const;
  /// Index of the version in effect at `date` (the newest one dated on or
  /// before it). Precondition: date >= dates.front().
  std::size_t version_at(psl::util::Date date) const;
};

History make_history(std::uint64_t seed, std::size_t versions);

// --- hosts ---------------------------------------------------------------------

/// Draws suffixes the way hosts carry them: under normal ICANN rules,
/// private rules, wildcard and exception rules (of any vintage, so time
/// travel sees answers change), and under TLDs no rule covers.
class SuffixPool {
 public:
  explicit SuffixPool(const History& history);
  std::string draw(Rng& rng) const;

 private:
  // Rule texts with the "*." / "!" marker stripped.
  std::vector<std::string> icann_, private_, wildcard_, exception_;
};

/// The request corpus: distinct hosts in Zipf rank order, (page, resource)
/// pairs over them, and "discriminator" pairs: two hosts under a rule the
/// newest vintage added or dropped, so the two newest vintages disagree on
/// whether they are same-site.
struct Corpus {
  std::vector<std::string> hosts;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::vector<std::pair<std::string, std::string>> discriminators;
};

Corpus make_corpus(const History& history, std::uint64_t seed, std::size_t host_count,
                   std::size_t pair_count);

/// bulk_unique's host stream: host(conn, index) is a pure function and never
/// repeats. Shares: ~10% xn-- labels, ~15% deep (6+ labels), ~3% degenerate
/// (trailing dot, empty label, exactly 253 bytes).
class UniqueHosts {
 public:
  UniqueHosts(const History& history, std::uint64_t seed);
  std::string host(std::uint32_t conn, std::uint64_t index) const;

 private:
  SuffixPool pool_;
  std::uint64_t seed_;
};

// --- request streams -----------------------------------------------------------

enum class Op : std::uint8_t { kMatch, kSameSite, kMatchAt, kDivergence, kIngest };

/// One request frame. Views point into the corpus or into `owned`.
struct Request {
  Op op = Op::kMatch;
  std::vector<std::string_view> hosts;  ///< match / match_at / divergence (1)
  std::vector<std::pair<std::string_view, std::string_view>> pairs;  ///< same_site
  std::vector<psl::net::WireIngestRecord> records;                   ///< ingest
  std::int64_t date_days = 0;                                        ///< match_at
  std::vector<std::string> owned;

  /// Queries this frame asks: hosts, pairs, or records.
  std::size_t queries() const noexcept;
  void clear();
};

enum class Workload : std::uint8_t { kHotSmall, kBulkUnique, kChurnMixed, kTimeTravel };
bool parse_workload(std::string_view name, Workload& out);
const char* workload_name(Workload w);

/// Everything a workload's streams draw from.
struct Inputs {
  std::uint64_t seed = 0;
  Workload workload = Workload::kHotSmall;
  History history;
  Corpus corpus;
  UniqueHosts unique;
};

/// Builds the inputs for `workload`. Every workload gets the same
/// 1,142-version history shape (only time_travel serves all of it; the
/// others serve its two newest vintages) and a corpus sized for it.
Inputs make_inputs(Workload workload, std::uint64_t seed);

/// Tuning constants shared by the streams, the oracle and the traced run.
inline constexpr std::size_t kBulkBatch = 256;
/// churn_mixed: same_site pairs per read frame (the last one a discriminator).
inline constexpr std::size_t kChurnBatch = 16;
/// churn_mixed's hot set, in (page, resource) pairs.
inline constexpr std::size_t kChurnHotSet = 4096;
/// A simulated day: as many read pairs as the hot set holds.
inline constexpr std::size_t kChurnFramesPerDay = kChurnHotSet / kChurnBatch;
/// Share of the hot set replaced per simulated day, in percent.
inline constexpr std::size_t kChurnRotationPct = 10;
/// Records per ingest frame; churn_mixed ingests one record per read pair.
inline constexpr std::size_t kIngestBatch = 256;
inline constexpr std::size_t kTimeTravelBatch = 16;
inline constexpr std::size_t kDivergenceEvery = 64;

/// churn_mixed's reload cadence in read frames: the generated history's own
/// publication interval (days between vintages, about 5) in simulated days.
std::uint64_t churn_reload_every(const History& history);

/// Frame k of bulk_unique connection `conn` (random access, so the oracle
/// can check frames in parallel).
void bulk_frame(const Inputs& inputs, std::uint32_t conn, std::uint64_t k, Request& out);

/// One connection's request stream. Frame k depends only on (seed, stream
/// role, conn, k), and frames are produced in order, so the oracle and the
/// traced run replay exactly what the load generator sent.
class Stream {
 public:
  enum class Role : std::uint8_t { kHot, kBulk, kChurnRead, kChurnIngest, kTimeTravel };
  Stream(const Inputs& inputs, Role role, std::uint32_t conn);
  /// Fill `out` with the next frame of this stream.
  void next(Request& out);
  std::uint64_t produced() const noexcept { return k_; }

 private:
  const Inputs& in_;
  Role role_;
  std::uint32_t conn_;
  Rng rng_;
  Zipf zipf_;
  std::uint64_t k_ = 0;
};

}  // namespace pb
