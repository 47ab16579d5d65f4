// The answer oracle. During the timed window the load generator keeps only
// a 64-bit digest of every response; after the window the oracle replays
// each connection's request stream against reference CompiledMatchers built
// from the same generated list text and compares digests, so checking never
// takes CPU from psld while it is measured.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gen.hpp"
#include "psl/net/frame.hpp"
#include "psl/psl/compiled_matcher.hpp"

namespace pb {

// --- digests (identical for wire answers and reference answers) -------------------

std::uint64_t fnv1a(std::string_view s) noexcept;
constexpr std::uint64_t fold(std::uint64_t acc, std::uint64_t v) noexcept {
  return mix64(acc ^ mix64(v));
}
std::uint64_t match_digest(std::string_view public_suffix, std::string_view registrable_domain,
                           bool explicit_rule, bool private_section) noexcept;

std::uint64_t digest(const std::vector<psl::net::WireMatch>& matches);
std::uint64_t digest(const std::vector<std::uint8_t>& same_site);
std::uint64_t digest(const psl::net::WireMatchAt& at);
std::uint64_t digest(const std::vector<psl::net::WireDivergenceRange>& ranges);
std::uint64_t ingest_digest(std::uint32_t accepted) noexcept;

/// Reference digest of a kMatch / kSameSite / kIngest request under `matcher`.
std::uint64_t expected_digest(const psl::CompiledMatcher& matcher, const Request& request);

/// A digest for a request that got no answer (error or refusal). Never
/// equal to a real digest in practice; the oracle skips these frames (they
/// are already counted as failed).
inline constexpr std::uint64_t kNoAnswer = 0;

// --- verification ---------------------------------------------------------------

/// What one connection recorded during the window, in send order.
struct ConnLog {
  Stream::Role role = Stream::Role::kHot;
  std::uint32_t conn = 0;
  std::vector<std::uint64_t> digests;
};

struct Verdict {
  std::uint64_t checked = 0;  ///< answers compared
  std::uint64_t wrong = 0;    ///< answers that differ from the reference
  std::string first_wrong;    ///< description of the first mismatch
};

/// References the oracle needs: the two newest vintages (head = newest).
struct References {
  const psl::CompiledMatcher* head = nullptr;
  const psl::CompiledMatcher* prev = nullptr;
};

/// Check every recorded answer. hot/bulk answers must equal head's; each
/// churn read batch must equal exactly one of head's and prev's; ingest acks
/// must accept the whole batch; match_at / divergence answers must equal the
/// history's version in effect at the date. Uses up to `threads` threads.
Verdict verify(const Inputs& inputs, const References& refs, const std::vector<ConnLog>& logs,
               unsigned threads);

}  // namespace pb
