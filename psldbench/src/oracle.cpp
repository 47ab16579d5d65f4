#include "oracle.hpp"

#include <atomic>
#include <functional>
#include <mutex>
#include <thread>

namespace pb {

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t match_digest(std::string_view public_suffix, std::string_view registrable_domain,
                           bool explicit_rule, bool private_section) noexcept {
  return fold(fold(fnv1a(public_suffix), fnv1a(registrable_domain)),
              (explicit_rule ? 1u : 0u) | (private_section ? 2u : 0u));
}

namespace {

constexpr std::uint64_t kMatchSeed = 0x99, kSameSiteSeed = 0x55, kMatchAtSeed = 0x1234,
                        kDivergenceSeed = 0x777, kIngestSeed = 0x1F;

std::uint64_t reference_views_digest(const psl::CompiledMatcher& m,
                                     std::span<const std::string_view> hosts) {
  std::uint64_t acc = kMatchSeed;
  for (const std::string_view h : hosts) {
    const psl::MatchView v = m.match_view(h);
    acc = fold(acc, match_digest(v.public_suffix, v.registrable_domain, v.matched_explicit_rule,
                                 v.section == psl::Section::kPrivate));
  }
  return acc;
}

std::uint64_t match_at_digest(std::int64_t date_days, std::uint64_t rule_count,
                              std::uint64_t matches) {
  return fold(fold(fold(kMatchAtSeed, static_cast<std::uint64_t>(date_days)), rule_count),
              matches);
}

std::string describe(const Request& r) {
  std::string out;
  for (const auto h : r.hosts) out += std::string(h) + " ";
  for (const auto& [a, b] : r.pairs) out += std::string(a) + "~" + std::string(b) + " ";
  return out;
}

/// Runs tasks on up to `threads` threads; each task fills its own Verdict.
Verdict run_tasks(std::vector<std::function<void(Verdict&)>>& tasks, unsigned threads) {
  std::atomic<std::size_t> next{0};
  std::vector<Verdict> verdicts(std::max(1u, threads));
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < verdicts.size(); ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i; (i = next.fetch_add(1)) < tasks.size();) tasks[i](verdicts[t]);
    });
  }
  for (auto& th : pool) th.join();
  Verdict total;
  for (const Verdict& v : verdicts) {
    total.checked += v.checked;
    total.wrong += v.wrong;
    if (total.first_wrong.empty()) total.first_wrong = v.first_wrong;
  }
  return total;
}

void judge(Verdict& v, bool ok, const std::string& what) {
  ++v.checked;
  if (ok) return;
  ++v.wrong;
  if (v.first_wrong.empty()) v.first_wrong = what;
}

}  // namespace

std::uint64_t digest(const std::vector<psl::net::WireMatch>& matches) {
  std::uint64_t acc = kMatchSeed;
  for (const auto& m : matches) {
    acc = fold(acc, match_digest(m.public_suffix, m.registrable_domain, m.matched_explicit_rule,
                                 m.private_section));
  }
  return acc;
}

std::uint64_t digest(const std::vector<std::uint8_t>& same_site) {
  std::uint64_t acc = kSameSiteSeed;
  for (const std::uint8_t b : same_site) acc = fold(acc, b);
  return acc;
}

std::uint64_t digest(const psl::net::WireMatchAt& at) {
  return match_at_digest(at.version_date_days, at.rule_count, digest(at.matches));
}

std::uint64_t digest(const std::vector<psl::net::WireDivergenceRange>& ranges) {
  std::uint64_t acc = kDivergenceSeed;
  for (const auto& r : ranges) {
    acc = fold(fold(fold(acc, static_cast<std::uint64_t>(r.first_date_days)),
                    static_cast<std::uint64_t>(r.last_date_days)),
               fnv1a(r.registrable_domain));
  }
  return acc;
}

std::uint64_t ingest_digest(std::uint32_t accepted) noexcept { return fold(kIngestSeed, accepted); }

std::uint64_t expected_digest(const psl::CompiledMatcher& matcher, const Request& request) {
  switch (request.op) {
    case Op::kMatch:
      return reference_views_digest(matcher, request.hosts);
    case Op::kSameSite: {
      std::vector<std::uint8_t> bits;
      for (const auto& [a, b] : request.pairs) bits.push_back(psl::same_site(matcher, a, b) ? 1 : 0);
      return digest(bits);
    }
    case Op::kIngest:
      return ingest_digest(static_cast<std::uint32_t>(request.records.size()));
    default:
      return kNoAnswer;  // match_at / divergence need the history (see verify)
  }
}

namespace {

/// The time_travel part of verify(): group match_at checks by the version
/// in effect at their date, compile each needed version once, and rebuild
/// every divergence answer from per-version registrable domains.
Verdict verify_time_travel(const Inputs& inputs, const std::vector<const ConnLog*>& logs,
                           unsigned threads) {
  const History& hist = inputs.history;
  struct AtCheck {
    std::vector<std::string_view> hosts;
    std::uint64_t got;
  };
  struct DivCheck {
    std::string_view host;
    std::uint64_t got;
  };
  std::vector<std::vector<AtCheck>> by_version(hist.versions());
  std::vector<DivCheck> divs;
  Request req;
  for (const ConnLog* log : logs) {
    Stream stream(inputs, log->role, log->conn);
    for (const std::uint64_t got : log->digests) {
      stream.next(req);
      if (got == kNoAnswer) continue;
      if (req.op == Op::kDivergence) {
        divs.push_back({req.hosts[0], got});
      } else {
        const std::size_t v = hist.version_at(psl::util::Date(static_cast<std::int32_t>(req.date_days)));
        by_version[v].push_back({req.hosts, got});
      }
    }
  }
  // rd_hash[d * V + v]: digest of divergence host d's registrable domain at v.
  const std::size_t V = hist.versions();
  std::vector<std::uint64_t> rd_hash(divs.size() * V);
  std::vector<std::function<void(Verdict&)>> tasks;
  for (std::size_t v = 0; v < V; ++v) {
    if (by_version[v].empty() && divs.empty()) continue;
    tasks.emplace_back([&, v](Verdict& verdict) {
      const psl::List list = hist.list(v);
      const psl::CompiledMatcher m(list);
      const std::int64_t date = hist.dates[v].days_since_epoch();
      for (const AtCheck& c : by_version[v]) {
        const std::uint64_t want =
            match_at_digest(date, list.rule_count(), reference_views_digest(m, c.hosts));
        judge(verdict, want == c.got,
              "match_at at version " + hist.dates[v].to_string() + " for " +
                  std::string(c.hosts.front()) + " ...");
      }
      for (std::size_t d = 0; d < divs.size(); ++d) {
        rd_hash[d * V + v] = fnv1a(m.match_view(divs[d].host).registrable_domain);
      }
    });
  }
  Verdict verdict = run_tasks(tasks, threads);
  for (std::size_t d = 0; d < divs.size(); ++d) {
    std::uint64_t acc = kDivergenceSeed;
    for (std::size_t v = 0; v < V;) {
      std::size_t end = v;
      while (end + 1 < V && rd_hash[d * V + end + 1] == rd_hash[d * V + v]) ++end;
      acc = fold(fold(fold(acc, static_cast<std::uint64_t>(hist.dates[v].days_since_epoch())),
                      static_cast<std::uint64_t>(hist.dates[end].days_since_epoch())),
                 rd_hash[d * V + v]);
      v = end + 1;
    }
    judge(verdict, acc == divs[d].got, "divergence for " + std::string(divs[d].host));
  }
  return verdict;
}

}  // namespace

Verdict verify(const Inputs& inputs, const References& refs, const std::vector<ConnLog>& logs,
               unsigned threads) {
  std::vector<std::function<void(Verdict&)>> tasks;
  std::vector<const ConnLog*> time_travel;
  for (const ConnLog& log : logs) {
    switch (log.role) {
      case Stream::Role::kTimeTravel:
        time_travel.push_back(&log);
        break;
      case Stream::Role::kBulk:
        // Random access: split the frames across the pool.
        for (unsigned part = 0; part < std::max(1u, threads); ++part) {
          tasks.emplace_back([&, part](Verdict& verdict) {
            Request req;
            for (std::size_t k = part; k < log.digests.size(); k += std::max(1u, threads)) {
              if (log.digests[k] == kNoAnswer) continue;
              bulk_frame(inputs, log.conn, k, req);
              judge(verdict, expected_digest(*refs.head, req) == log.digests[k],
                    "match_batch frame " + std::to_string(k) + ": " + describe(req));
            }
          });
        }
        break;
      default:
        tasks.emplace_back([&](Verdict& verdict) {
          Stream stream(inputs, log.role, log.conn);
          Request req;
          for (const std::uint64_t got : log.digests) {
            stream.next(req);
            if (got == kNoAnswer) continue;
            if (log.role == Stream::Role::kChurnRead) {
              // Each batch is answered by exactly one generation: the two
              // vintages disagree on the batch's discriminator host.
              const bool head = expected_digest(*refs.head, req) == got;
              const bool prev = expected_digest(*refs.prev, req) == got;
              judge(verdict, head != prev, "churn batch matching " +
                                               std::string(head ? "both vintages"
                                                                : "neither vintage") +
                                               ": " + describe(req));
            } else {
              judge(verdict, expected_digest(*refs.head, req) == got,
                    "frame " + std::to_string(stream.produced() - 1) + ": " + describe(req));
            }
          }
        });
        break;
    }
  }
  Verdict verdict = run_tasks(tasks, threads);
  if (!time_travel.empty()) {
    const Verdict tt = verify_time_travel(inputs, time_travel, threads);
    verdict.checked += tt.checked;
    verdict.wrong += tt.wrong;
    if (verdict.first_wrong.empty()) verdict.first_wrong = tt.first_wrong;
  }
  return verdict;
}

}  // namespace pb
