// Per-worker registrable-domain cache: unit behavior of RegDomainCache
// (robin-hood probing, bounded displacement, the kNoDomain-vs-miss
// distinction, keys that carry the host length) and the serving-layer
// contract that matters — cached answers are indistinguishable from
// uncached ones, a colliding entry can never answer for a host of another
// length, and a hot reload can never leak a boundary cached under the
// previous list. Suites are named Serve* so the
// TSan CI job picks them up via `ctest -R '^(Serve|Net)'`.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "engine_jobs.hpp"
#include "psl/obs/metrics.hpp"
#include "psl/psl/list.hpp"
#include "psl/serve/engine.hpp"
#include "psl/serve/regdomain_cache.hpp"
#include "psl/serve/snapshot.hpp"
#include "psl/util/siphash.hpp"

namespace psl::serve {
namespace {

using jobs::registrable_domains_job;
using jobs::same_site_job;
using jobs::submit;

List parse_list(const std::string& text) {
  auto parsed = List::parse(text);
  EXPECT_TRUE(parsed.ok());
  return *std::move(parsed);
}

snapshot::Snapshot snap_of(const List& list) {
  snapshot::Metadata meta;
  meta.rule_count = list.rules().size();
  return snapshot::Snapshot{CompiledMatcher(list), meta};
}

/// Under A, "example.com" is an ordinary name below "com"; under B it is
/// itself a public suffix, so the same probe host's eTLD+1 gains a label.
/// That makes a stale cached boundary visible as a wrong ANSWER, not just a
/// wrong counter.
List list_a() { return parse_list("com\nuk\nco.uk\n"); }
List list_b() { return parse_list("com\nuk\nco.uk\nexample.com\n"); }

constexpr std::string_view kProbe = "a.b.example.com";
constexpr std::string_view kAnswerA = "example.com";
constexpr std::string_view kAnswerB = "b.example.com";

TEST(ServeCacheTest, LookupInsertAndNoDomainSentinel) {
  RegDomainCache cache(64);
  EXPECT_TRUE(cache.enabled());
  EXPECT_EQ(cache.size(), 0u);

  const RegDomainCache::Key h = RegDomainCache::key_of("a.example.com");
  EXPECT_EQ(h.len, 13u);
  std::uint32_t rd_len = 0;
  EXPECT_FALSE(cache.lookup(h, rd_len));  // cold

  EXPECT_FALSE(cache.insert(h, 11));  // no eviction
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(cache.lookup(h, rd_len));
  EXPECT_EQ(rd_len, 11u);

  // Overwrite in place: same key, new boundary, no growth.
  EXPECT_FALSE(cache.insert(h, 7));
  ASSERT_TRUE(cache.lookup(h, rd_len));
  EXPECT_EQ(rd_len, 7u);
  EXPECT_EQ(cache.size(), 1u);

  // "Has no registrable domain" is a cachable ANSWER, distinct from a miss.
  const RegDomainCache::Key h2 = RegDomainCache::key_of("co.uk");
  cache.insert(h2, RegDomainCache::kNoDomain);
  ASSERT_TRUE(cache.lookup(h2, rd_len));
  EXPECT_EQ(rd_len, RegDomainCache::kNoDomain);

  // The same hash under another length is another key: it misses, and it
  // takes its own slot.
  const RegDomainCache::Key longer{h.hash, h.len + 8};
  EXPECT_FALSE(cache.lookup(longer, rd_len));
  EXPECT_FALSE(cache.insert(longer, 15));
  ASSERT_TRUE(cache.lookup(h, rd_len));
  EXPECT_EQ(rd_len, 7u);
  EXPECT_EQ(cache.size(), 3u);

  // Hosts too long to describe in 32 bits are never cached.
  const RegDomainCache::Key huge{h.hash, RegDomainCache::kUncachable};
  EXPECT_FALSE(cache.insert(huge, 1));
  EXPECT_FALSE(cache.lookup(huge, rd_len));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(ServeCacheTest, DisabledCacheNeverHits) {
  RegDomainCache cache(0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.capacity(), 0u);
  const RegDomainCache::Key h = RegDomainCache::key_of("a.example.com");
  EXPECT_FALSE(cache.insert(h, 3));
  std::uint32_t rd_len = 0;
  EXPECT_FALSE(cache.lookup(h, rd_len));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ServeCacheTest, EvictionIsBoundedAndNeverLies) {
  // Force one home bucket: keys sharing low bits all chain from slot h&mask.
  // With capacity 64 and kMaxProbe 16, stuffing 3x the probe bound through
  // one bucket must evict — and every surviving entry must still report the
  // exact value it was inserted with (robin-hood moves entries, never
  // corrupts them).
  RegDomainCache cache(64);
  const std::size_t n = RegDomainCache::kMaxProbe * 3;
  std::vector<RegDomainCache::Key> keys;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back({((i + 1) << 6) | 5u, 20});  // identical low 6 bits -> one bucket
  }
  bool evicted = false;
  for (std::size_t i = 0; i < n; ++i) {
    evicted = cache.insert(keys[i], static_cast<std::uint32_t>(i)) || evicted;
  }
  EXPECT_TRUE(evicted);
  EXPECT_LE(cache.size(), RegDomainCache::kMaxProbe);

  std::size_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t rd_len = 0;
    if (cache.lookup(keys[i], rd_len)) {
      ++hits;
      EXPECT_EQ(rd_len, static_cast<std::uint32_t>(i));
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, n);
  EXPECT_EQ(hits, cache.size());
}

TEST(ServeCacheTest, InjectedCollisionOfAnotherLengthNeverAnswers) {
  // A forged entry under a real host's hash, claiming a longer host and a
  // boundary longer than the real host: what an attacker who could craft a
  // colliding host would plant. Through a hand-built Pinned over this
  // test-owned cache, every lookup of the real host must still give the
  // matcher's own answer (and must not read past the host's bytes).
  const List list = parse_list("com\nuk\nco.uk\nio\ngithub.io\n");
  const CompiledMatcher matcher(list);
  const snapshot::Metadata meta;
  RegDomainCache cache(64);
  const std::vector<std::string> hosts = {"alice.github.io", "www.example.co.uk", "co.uk"};
  for (const std::string& host : hosts) {
    const RegDomainCache::Key real = RegDomainCache::key_of(host);
    ASSERT_EQ(real.len, host.size());
    cache.insert({real.hash, real.len + 7}, real.len + 5);
  }
  const Engine::Pinned pinned{matcher, meta, 1, &cache};

  for (int pass = 0; pass < 2; ++pass) {  // the second pass hits real entries
    for (const std::string& host : hosts) {
      EXPECT_EQ(pinned.registrable_domain_view(host),
                matcher.match_view(host).registrable_domain)
          << host;
    }
    const std::vector<std::string_view> views(hosts.begin(), hosts.end());
    std::vector<std::string_view> out(hosts.size());
    pinned.registrable_domains(views, out);
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      EXPECT_EQ(out[i], matcher.match_view(hosts[i]).registrable_domain) << hosts[i];
    }
    EXPECT_FALSE(pinned.same_site("alice.github.io", "bob.github.io"));
    EXPECT_TRUE(pinned.same_site("www.example.co.uk", "example.co.uk"));
  }
}

TEST(ServeCacheTest, KeyIsAKeyedSipHash) {
  // The shared SipHash code against the reference vectors of the SipHash
  // paper (key 00..0f; SipHash-2-4 of the empty message and of 00..0e).
  const util::SipKey key{0x0706050403020100ull, 0x0f0e0d0c0b0a0908ull};
  EXPECT_EQ((util::siphash<2, 4>(key, {})), 0x726fdb47dd0e0e31ull);
  std::string message;
  for (char c = 0; c < 15; ++c) message.push_back(c);
  EXPECT_EQ((util::siphash<2, 4>(key, message)), 0xa129ca6149be45e5ull);

  // The cache key depends on the process's secret key, and is stable
  // within the process.
  const std::string host = "tenant.github.io";
  const RegDomainCache::Key k = RegDomainCache::key_of(host);
  EXPECT_NE(k.hash, util::siphash13({}, host));
  EXPECT_EQ(k.hash, RegDomainCache::key_of(host).hash);
}

TEST(ServeCacheTest, CachedAnswersMatchUncached) {
  obs::MetricsRegistry metrics;
  Engine cached(snap_of(list_a()), {.threads = 2, .cache_slots = 1024, .metrics = &metrics});
  Engine uncached(snap_of(list_a()), {.threads = 2, .cache_slots = 0});

  // Repeats on purpose: the second pass over each host must be a cache hit
  // and must still agree with the trie-walking engine.
  const std::vector<std::string> hosts = {
      "a.b.example.com", "x.co.uk",  "co.uk", "deep.y.example.co.uk", "",
      "a..b",            "10.0.0.1", "com",   "a.b.example.com",      "x.co.uk"};
  for (int pass = 0; pass < 3; ++pass) {
    auto want = submit(uncached, registrable_domains_job(uncached, hosts));
    auto got = submit(cached, registrable_domains_job(cached, hosts));
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.result.get(), want.result.get());
  }

  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"a.example.com", "b.example.com"}, {"one.com", "two.com"},
      {"co.uk", "co.uk"},                 {"", ""},
      {"a.example.com", "a.example.com."}};
  for (int pass = 0; pass < 3; ++pass) {
    auto want = submit(uncached, same_site_job(uncached, pairs));
    auto got = submit(cached, same_site_job(cached, pairs));
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.result.get(), want.result.get());
  }

  EXPECT_GT(metrics.counter("serve.cache.hit").value(), 0);
}

TEST(ServeCacheTest, ReloadInvalidatesCachedBoundary) {
  Engine engine(snap_of(list_a()), {.threads = 1, .cache_slots = 1024});

  // Populate the worker's cache with the list-A boundary.
  for (int i = 0; i < 4; ++i) {
    auto r = submit(engine, registrable_domains_job(engine, {std::string(kProbe)}));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.result.get(), std::vector<std::string>{std::string(kAnswerA)});
  }

  // Swap in list B: the probe's registrable domain changes. A stale cached
  // boundary would keep answering "example.com"; the new State's cold caches
  // must make every post-reload answer reflect list B.
  engine.reload_list(list_b());
  for (int i = 0; i < 4; ++i) {
    auto r = submit(engine, registrable_domains_job(engine, {std::string(kProbe)}));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.result.get(), std::vector<std::string>{std::string(kAnswerB)});
  }
}

TEST(ServeCacheTest, ReloadStormServesNoStaleBoundary) {
  // The storm: query threads hammer the cached path while a reloader flips
  // A -> B -> A ... dozens of times. Each batch pins one State, so the
  // (generation, answer) pair it observes must be internally consistent:
  // odd generations serve list A, even ones list B. Any cross-generation
  // cache leak shows up as a mismatched pair.
  Engine engine(snap_of(list_a()), {.threads = 4, .cache_slots = 4096});

  constexpr int kReloads = 100;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> mismatches{0};

  std::vector<std::thread> queriers;
  for (int t = 0; t < 3; ++t) {
    queriers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        std::promise<void> ran;
        auto ran_future = ran.get_future();
        const auto outcome = engine.submit_job([&](const Engine::Pinned& pinned) {
          // Ask twice so the second lookup exercises a within-batch hit.
          for (int rep = 0; rep < 2; ++rep) {
            const std::string_view got = pinned.registrable_domain_view(kProbe);
            const std::string_view want =
                pinned.generation % 2 == 1 ? kAnswerA : kAnswerB;
            if (got != want) mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          // Under A both sides collapse to "example.com"; under B they are
          // distinct sites "b.example.com" vs "d.example.com".
          const bool same = pinned.same_site("a.b.example.com", "c.d.example.com");
          const bool want_same = pinned.generation % 2 == 1;
          if (same != want_same) mismatches.fetch_add(1, std::memory_order_relaxed);
          ran.set_value();
        });
        if (outcome != Engine::Enqueue::kOk) {
          ran.set_value();  // backpressure: nothing ran, just retry
          std::this_thread::yield();
        }
        ran_future.wait();
      }
    });
  }

  const List a = list_a();
  const List b = list_b();
  for (int i = 0; i < kReloads; ++i) {
    engine.reload_list(i % 2 == 0 ? b : a);  // gen 2 = B, gen 3 = A, ...
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : queriers) t.join();

  EXPECT_EQ(engine.generation(), 1u + kReloads);
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace psl::serve
