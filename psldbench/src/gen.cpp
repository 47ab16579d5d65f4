#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/match.hpp"

namespace pb {

Zipf::Zipf(std::size_t n, double s) : cdf_(std::max<std::size_t>(n, 1)) {
  double sum = 0.0;
  for (std::size_t k = 0; k < cdf_.size(); ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
  cdf_.back() = 1.0;
}

std::size_t Zipf::sample(Rng& rng) const noexcept {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

namespace {

constexpr std::string_view kLower = "abcdefghijklmnopqrstuvwxyz";
constexpr std::string_view kAlnum = "abcdefghijklmnopqrstuvwxyz0123456789";

std::string label(Rng& rng, std::size_t lo, std::size_t hi, std::string_view alphabet = kLower) {
  const std::size_t n = lo + rng.below(hi - lo + 1);
  std::string out(n, 'a');
  for (char& c : out) c = alphabet[rng.below(alphabet.size())];
  return out;
}

/// Concatenation without `const char* + std::string`, whose inlined
/// insert-at-front trips GCC 12's -Wrestrict false positive.
template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::string out;
  (out.append(std::string_view(parts)), ...);
  return out;
}

std::string base36(std::uint64_t v) {
  std::string out;
  do {
    out.push_back(kAlnum[v % 36]);
    v /= 36;
  } while (v != 0);
  return out;
}

// TLDs no generated rule may use: hosts under them match only the implicit
// "*" rule (the mis-bounded case the paper counts).
constexpr std::string_view kUnlistedTlds[] = {"corp", "home", "lan", "internal", "test"};

}  // namespace

// --- History -----------------------------------------------------------------

std::string History::list_text(std::size_t v) const {
  std::string icann = "// ===BEGIN ICANN DOMAINS===\n";
  std::string priv = "// ===BEGIN PRIVATE DOMAINS===\n";
  for (const HistRule& r : rules) {
    if (v < r.added || v >= r.removed) continue;
    std::string& section = r.is_private ? priv : icann;
    section += r.text;
    section += '\n';
  }
  icann += "// ===END ICANN DOMAINS===\n";
  priv += "// ===END PRIVATE DOMAINS===\n";
  return icann + priv;
}

psl::List History::list(std::size_t v) const {
  auto parsed = psl::List::parse(list_text(v));
  if (!parsed.ok()) {
    std::fprintf(stderr, "psldbench: generated list %zu does not parse: %s\n", v,
                 parsed.error().message.c_str());
    std::abort();
  }
  return *std::move(parsed);
}

std::size_t History::version_at(psl::util::Date date) const {
  const auto it = std::upper_bound(dates.begin(), dates.end(), date);
  return it == dates.begin() ? 0 : static_cast<std::size_t>(it - dates.begin()) - 1;
}

History make_history(std::uint64_t seed, std::size_t versions) {
  Rng rng(derive(seed, 1));
  History h;
  const auto first = psl::util::Date::from_civil(2007, 3, 22);
  const auto last = psl::util::Date::from_civil(2022, 10, 20);
  const double span = static_cast<double>(last - first);
  const std::size_t V = std::max<std::size_t>(versions, 3);
  for (std::size_t v = 0; v < V; ++v) {
    h.dates.push_back(first + static_cast<std::int32_t>(std::llround(
                                  span * static_cast<double>(v) / static_cast<double>(V - 1))));
  }
  const auto V32 = static_cast<std::uint32_t>(V);
  const auto at = [&](double frac) {
    return std::min<std::uint32_t>(static_cast<std::uint32_t>(frac * V), V32 - 3);
  };
  const auto between = [&](double lo, double hi) { return at(lo + (hi - lo) * rng.uniform()); };

  std::unordered_set<std::string> used;
  for (const std::string_view tld : kUnlistedTlds) used.emplace(tld);
  const auto add = [&](std::string text, bool is_private, std::uint32_t added) -> bool {
    if (!used.insert(text).second) return false;
    h.rules.push_back({std::move(text), is_private, added, V32});
    return true;
  };
  const auto fresh = [&](std::size_t lo, std::size_t hi) {
    for (;;) {
      std::string l = label(rng, lo, hi);
      if (!used.count(l)) return l;
    }
  };

  // ICANN TLDs: a legacy core present from the start, then the new-gTLD wave.
  std::vector<std::string> legacy;
  for (int i = 0; i < 250; ++i) {
    std::string tld = fresh(2, 3);
    add(tld, false, 0);
    legacy.push_back(std::move(tld));
  }
  for (int i = 0; i < 1250; ++i) {
    std::string tld = rng.below(100) < 8 ? cat("xn--", label(rng, 4, 10, kAlnum)) : fresh(4, 10);
    add(std::move(tld), false, between(0.40, 0.80));
  }
  // Second-level ICANN rules under the legacy ccTLDs, a few third-level ones.
  static constexpr std::string_view kSecond[] = {
      "com", "net", "org", "edu", "gov", "ac",  "co",  "or",  "ne",  "go",  "mil", "gob", "nic",
      "info", "biz", "nom", "sch", "ltd", "plc", "med", "art", "firm", "gen", "ind", "int", "law"};
  for (std::size_t t = 0; t < 200; ++t) {
    const std::size_t n = 6 + rng.below(9);
    for (std::size_t i = 0; i < n; ++i) {
      std::string sl = rng.below(3) == 0 ? label(rng, 3, 6)
                                         : std::string(kSecond[rng.below(std::size(kSecond))]);
      add(sl + "." + legacy[t], false, rng.below(10) < 8 ? 0 : between(0.0, 0.95));
    }
  }
  for (int i = 0; i < 100; ++i) {
    add(label(rng, 2, 8) + "." + label(rng, 2, 2) + "." + legacy[rng.below(4)], false,
        between(0.0, 0.9));
  }
  // Wildcards with exceptions beneath some of them.
  for (std::size_t t = 200; t < 240; ++t) {
    const std::uint32_t added = rng.below(2) == 0 ? 0 : between(0.0, 0.7);
    add(cat("*.", legacy[t]), false, added);
    if (t < 225) add(cat("!", label(rng, 4, 9), ".", legacy[t]), false, added);
  }
  // The private section: platform tenants, growing late in the history.
  static constexpr std::string_view kPlatformTlds[] = {"com", "net", "io", "app", "dev",
                                                       "cloud", "org", "me"};
  std::vector<std::string> brands;
  for (int i = 0; i < 800; ++i) {
    brands.push_back(fresh(5, 11) + "." + std::string(kPlatformTlds[rng.below(std::size(kPlatformTlds))]));
  }
  std::size_t made = 0;
  while (made < 5200) {
    const std::string& brand = brands[rng.below(brands.size())];
    const std::uint64_t form = rng.below(100);
    std::string text = form < 60   ? brand
                       : form < 90 ? label(rng, 2, 9) + "." + brand
                       : form < 95 ? cat("*.", label(rng, 3, 8), ".", brand)
                                   : label(rng, 2, 5) + "." + label(rng, 2, 6) + "." + brand;
    if (form < 60) text = label(rng, 3, 10) + "-" + text;  // distinct tenant names
    if (add(std::move(text), true, at(0.15 + 0.85 * std::sqrt(rng.uniform())))) ++made;
  }
  // A trickle of removals, never in the final version.
  for (HistRule& r : h.rules) {
    if (rng.below(100) < 3 && r.added + 2 < V32 - 1) {
      r.removed = r.added + 1 + static_cast<std::uint32_t>(rng.below(V32 - 2 - r.added - 1));
    }
  }
  // The newest vintage adds and drops a few private rules, so the two newest
  // vintages disagree on hosts under them.
  for (int i = 0; i < 24;) {
    if (add(fresh(6, 10) + "-new." + brands[rng.below(brands.size())], true, V32 - 1)) ++i;
  }
  for (int dropped = 0; dropped < 8;) {
    HistRule& r = h.rules[rng.below(h.rules.size())];
    if (r.is_private && r.added < V32 - 2 && r.removed == V32 && r.text[0] != '*') {
      r.removed = V32 - 1;
      ++dropped;
    }
  }
  return h;
}

// --- hosts -------------------------------------------------------------------

SuffixPool::SuffixPool(const History& history) {
  for (const HistRule& r : history.rules) {
    if (r.text[0] == '*') {
      wildcard_.push_back(r.text.substr(2));
    } else if (r.text[0] == '!') {
      exception_.push_back(r.text.substr(1));
    } else {
      (r.is_private ? private_ : icann_).push_back(r.text);
    }
  }
}

std::string SuffixPool::draw(Rng& rng) const {
  const std::uint64_t kind = rng.below(100);
  if (kind < 40) return icann_[rng.below(icann_.size())];
  if (kind < 75) return private_[rng.below(private_.size())];
  if (kind < 85) return label(rng, 2, 8) + "." + wildcard_[rng.below(wildcard_.size())];
  if (kind < 90) return exception_[rng.below(exception_.size())];
  return label(rng, 3, 8) + "." + std::string(kUnlistedTlds[rng.below(std::size(kUnlistedTlds))]);
}

Corpus make_corpus(const History& history, std::uint64_t seed, std::size_t host_count,
                   std::size_t pair_count) {
  Rng rng(derive(seed, 2));
  const SuffixPool pool(history);
  static constexpr std::string_view kPrefixes[] = {"",   "www.", "cdn.",    "api.",
                                                   "m.", "static.", "img.", "login."};
  Corpus c;
  std::vector<std::uint32_t> site_of;
  std::vector<std::vector<std::uint32_t>> site_hosts;
  std::unordered_set<std::string> seen;
  while (c.hosts.size() < host_count) {
    const std::string site = label(rng, 3, 10) + "." + pool.draw(rng);
    const auto site_id = static_cast<std::uint32_t>(site_hosts.size());
    site_hosts.emplace_back();
    const std::size_t n = 1 + rng.below(4);
    for (std::size_t i = 0; i < n && c.hosts.size() < host_count; ++i) {
      std::string host = rng.below(8) == 0 ? label(rng, 1, 6) + "." + label(rng, 2, 8) + "." + site
                                           : std::string(kPrefixes[rng.below(std::size(kPrefixes))]) + site;
      if (!seen.insert(host).second) continue;
      site_hosts.back().push_back(static_cast<std::uint32_t>(c.hosts.size()));
      site_of.push_back(site_id);
      c.hosts.push_back(std::move(host));
    }
  }
  // Shuffle hosts into rank order (Fisher-Yates), keeping site membership.
  std::vector<std::uint32_t> perm(c.hosts.size());
  for (std::uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
  for (std::size_t i = perm.size(); i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
  std::vector<std::uint32_t> rank_of(perm.size());
  std::vector<std::string> ranked(perm.size());
  for (std::uint32_t r = 0; r < perm.size(); ++r) {
    rank_of[perm[r]] = r;
    ranked[r] = std::move(c.hosts[perm[r]]);
  }
  c.hosts = std::move(ranked);
  for (std::size_t i = 0; i < pair_count; ++i) {
    const std::uint32_t page = perm[rng.below(perm.size())];
    const auto& mates = site_hosts[site_of[page]];
    const std::uint32_t resource = rng.below(10) < 4 ? mates[rng.below(mates.size())]
                                                     : perm[rng.below(perm.size())];
    c.pairs.emplace_back(rank_of[page], rank_of[resource]);
  }
  // Two hosts under each rule the newest vintage added or dropped: where
  // the rule is listed they are two sites, elsewhere (usually) one.
  const auto last = static_cast<std::uint32_t>(history.versions() - 1);
  for (const HistRule& r : history.rules) {
    if (r.added == last || (r.removed == last && r.added < last)) {
      const std::string l = label(rng, 3, 8);
      c.discriminators.emplace_back(cat("da", l, ".", r.text), cat("db", l, ".", r.text));
    }
  }
  return c;
}

UniqueHosts::UniqueHosts(const History& history, std::uint64_t seed)
    : pool_(history), seed_(derive(seed, 3)) {}

std::string UniqueHosts::host(std::uint32_t conn, std::uint64_t index) const {
  Rng rng(derive(seed_, conn, index));
  // The unique label makes every host of the run distinct.
  const std::string unique = cat("u", base36(conn), "x", base36(index));
  const std::uint64_t kind = rng.below(100);
  std::string h = pool_.draw(rng);
  if (kind < 10) {
    h = cat("xn--", label(rng, 3, 8, kAlnum), unique, ".", h);
  } else if (kind < 25) {
    h = cat(unique, ".", h);
    for (std::size_t i = 0, n = 5 + rng.below(4); i < n; ++i) h = cat(label(rng, 1, 7), ".", h);
  } else {
    h = cat(unique, ".", h);
    if (rng.below(2) == 0) h = cat(label(rng, 1, 8), ".", h);
  }
  if (kind >= 97) {
    switch (kind) {
      case 97:
        h += ".";  // trailing dot
        break;
      case 98:
        h = cat("a..", h);  // empty label
        break;
      default:
        // Exactly 253 bytes: pad with 63-byte labels, then one to fit.
        while (h.size() < 253) {
          const std::size_t room = 253 - h.size();
          const std::size_t len = room >= 65 ? 63 : room - 1;
          if (len == 0) {
            h = cat("b", h);
            continue;
          }
          h = cat(std::string(len, 'p'), ".", h);
        }
        break;
    }
  }
  return h;
}

// --- streams -----------------------------------------------------------------

std::size_t Request::queries() const noexcept {
  switch (op) {
    case Op::kSameSite: return pairs.size();
    case Op::kIngest: return records.size();
    default: return hosts.size();
  }
}

void Request::clear() {
  hosts.clear();
  pairs.clear();
  records.clear();
  owned.clear();
  date_days = 0;
}

bool parse_workload(std::string_view name, Workload& out) {
  for (auto w : {Workload::kHotSmall, Workload::kBulkUnique, Workload::kChurnMixed,
                 Workload::kTimeTravel}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kHotSmall: return "hot_small";
    case Workload::kBulkUnique: return "bulk_unique";
    case Workload::kChurnMixed: return "churn_mixed";
    case Workload::kTimeTravel: return "time_travel";
  }
  return "?";
}

Inputs make_inputs(Workload workload, std::uint64_t seed) {
  History history = make_history(seed, 1142);
  // hot_small's whole corpus fits one 16K-slot RegDomainCache; churn_mixed's
  // rotating hot set walks through a larger one.
  const std::size_t hosts = workload == Workload::kChurnMixed   ? 32768
                            : workload == Workload::kBulkUnique ? 4096
                                                                : 12000;
  Corpus corpus = make_corpus(history, seed, hosts, hosts);
  // Keep only the discriminator pairs the two newest vintages really
  // disagree on (a wildcard above a rule can make them agree).
  const std::size_t V = history.versions();
  const psl::CompiledMatcher head(history.list(V - 1)), prev(history.list(V - 2));
  std::erase_if(corpus.discriminators, [&](const auto& d) {
    return psl::same_site(head, d.first, d.second) == psl::same_site(prev, d.first, d.second);
  });
  if (corpus.discriminators.empty()) {
    std::fprintf(stderr, "psldbench: the two newest vintages agree on every discriminator\n");
    std::abort();
  }
  UniqueHosts unique(history, seed);
  return Inputs{seed, workload, std::move(history), std::move(corpus), std::move(unique)};
}

std::uint64_t churn_reload_every(const History& history) {
  const double days_per_version = static_cast<double>(history.dates.back() - history.dates.front()) /
                                  static_cast<double>(history.versions() - 1);
  return static_cast<std::uint64_t>(std::llround(days_per_version * kChurnFramesPerDay));
}

void bulk_frame(const Inputs& inputs, std::uint32_t conn, std::uint64_t k, Request& out) {
  out.clear();
  out.op = Op::kMatch;
  for (std::size_t j = 0; j < kBulkBatch; ++j) {
    out.owned.push_back(inputs.unique.host(conn, k * kBulkBatch + j));
  }
  for (const std::string& h : out.owned) out.hosts.push_back(h);
}

Stream::Stream(const Inputs& inputs, Role role, std::uint32_t conn)
    : in_(inputs),
      role_(role),
      conn_(conn),
      rng_(derive(inputs.seed, 100 + static_cast<std::uint64_t>(role), conn)),
      zipf_(role == Role::kChurnRead ? kChurnHotSet : inputs.corpus.hosts.size(), 1.0) {}

void Stream::next(Request& out) {
  out.clear();
  const auto& hosts = in_.corpus.hosts;
  const std::uint64_t k = k_++;
  switch (role_) {
    case Role::kHot: {
      const std::size_t z = zipf_.sample(rng_);
      if (k % 2 == 0) {
        out.op = Op::kMatch;
        out.hosts.push_back(hosts[z]);
      } else {
        out.op = Op::kSameSite;
        const auto [a, b] = in_.corpus.pairs[z];
        out.pairs.emplace_back(hosts[a], hosts[b]);
      }
      return;
    }
    case Role::kBulk:
      bulk_frame(in_, conn_, k, out);
      return;
    case Role::kChurnRead: {
      // same_site_batch: the wire path that goes through psld's cache.
      out.op = Op::kSameSite;
      const auto& pairs = in_.corpus.pairs;
      const std::size_t offset = (k / kChurnFramesPerDay) * (kChurnHotSet * kChurnRotationPct / 100);
      for (std::size_t j = 0; j + 1 < kChurnBatch; ++j) {
        const auto [a, b] = pairs[(zipf_.sample(rng_) + offset) % pairs.size()];
        out.pairs.emplace_back(hosts[a], hosts[b]);
      }
      const auto& [a, b] = in_.corpus.discriminators[(k + conn_) % in_.corpus.discriminators.size()];
      out.pairs.emplace_back(a, b);
      return;
    }
    case Role::kChurnIngest:
      out.op = Op::kIngest;
      for (std::size_t j = 0; j < kIngestBatch; ++j) {
        const auto [a, b] = in_.corpus.pairs[zipf_.sample(rng_)];
        out.records.push_back({hosts[a], hosts[b], 1600000000000ull + k * kIngestBatch + j});
      }
      return;
    case Role::kTimeTravel: {
      if (k % kDivergenceEvery == kDivergenceEvery - 1) {
        out.op = Op::kDivergence;
        out.hosts.push_back(hosts[rng_.below(hosts.size())]);
        return;
      }
      out.op = Op::kMatchAt;
      const auto& dates = in_.history.dates;
      const std::int32_t span = dates.back() - dates.front();
      out.date_days = dates.front().days_since_epoch() + static_cast<std::int64_t>(rng_.below(span + 1));
      for (std::size_t j = 0; j < kTimeTravelBatch; ++j) {
        out.hosts.push_back(hosts[rng_.below(hosts.size())]);
      }
      return;
    }
  }
}

}  // namespace pb
