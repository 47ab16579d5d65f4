// psl::serve::Engine — RCU swap visibility, backpressure, keep-last-good
// reloads, drain-on-shutdown, and the headline concurrency contract: batched
// queries racing 100+ hot reloads always see exactly one list version per
// batch. Queries run as the engine's callers run them: batch jobs through
// submit_job, single queries through run_inline (engine_jobs.hpp). Suites are named Serve* so the TSan CI job can select them with
// `ctest -R '^Serve'`.
#include "psl/serve/engine.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine_jobs.hpp"
#include "psl/obs/metrics.hpp"
#include "psl/psl/list.hpp"
#include "psl/serve/snapshot.hpp"

namespace psl::serve {
namespace {

using jobs::match_job;
using jobs::registrable_domain;
using jobs::registrable_domains_job;
using jobs::same_site;
using jobs::same_site_job;
using jobs::submit;

List parse_list(const std::string& text) {
  auto parsed = List::parse(text);
  EXPECT_TRUE(parsed.ok());
  return *std::move(parsed);
}

/// Two lists that give different answers for the probe hosts below.
List list_a() { return parse_list("com\nuk\nco.uk\n"); }
List list_b() { return parse_list("com\nuk\nco.uk\nexample.com\nplatform.co.uk\n"); }

snapshot::Snapshot snap_of(const List& list) {
  snapshot::Metadata meta;
  meta.rule_count = list.rules().size();
  return snapshot::Snapshot{CompiledMatcher(list), meta};
}

TEST(ServeEngineTest, SingleQueries) {
  Engine engine(snap_of(list_a()), {.threads = 1});
  EXPECT_EQ(engine.generation(), 1u);
  EXPECT_EQ(engine.metadata().rule_count, 3u);
  EXPECT_EQ(registrable_domain(engine, "a.b.example.com"), "example.com");
  EXPECT_EQ(registrable_domain(engine, "co.uk"), "");  // itself a suffix
  EXPECT_TRUE(same_site(engine, "a.example.com", "b.example.com"));
  EXPECT_FALSE(same_site(engine, "one.com", "two.com"));
  Match m;
  engine.run_inline([&](const Engine::Pinned& pinned) {
    m = pinned.matcher.match_view("shop.example.co.uk").to_match();
  });
  EXPECT_EQ(m.registrable_domain, "example.co.uk");
}

TEST(ServeEngineTest, BatchedQueries) {
  Engine engine(snap_of(list_a()), {.threads = 2});

  auto domains = submit(engine, registrable_domains_job(engine, {"a.b.example.com", "x.co.uk",
                                                                "co.uk", "deep.y.example.co.uk"}));
  ASSERT_TRUE(domains.ok());
  EXPECT_EQ(domains.result.get(),
            (std::vector<std::string>{"example.com", "x.co.uk", "", "example.co.uk"}));

  auto sites = submit(engine, same_site_job(engine, {{"a.example.com", "b.example.com"},
                                                     {"one.com", "two.com"},
                                                     {"co.uk", "co.uk"}}));
  ASSERT_TRUE(sites.ok());
  EXPECT_EQ(sites.result.get(), (std::vector<std::uint8_t>{1, 0, 1}));

  auto matches = submit(engine, match_job(engine, {"www.example.co.uk"}));
  ASSERT_TRUE(matches.ok());
  const auto results = matches.result.get();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].registrable_domain, "example.co.uk");
}

TEST(ServeEngineTest, BackpressureRejectsWhenQueueFull) {
  obs::MetricsRegistry metrics;
  // Depth 0: every batch submit is rejected, deterministically.
  Engine engine(snap_of(list_a()), {.threads = 1, .max_queue_depth = 0, .metrics = &metrics});

  auto rejected = submit(engine, registrable_domains_job(engine, {"a.example.com"}));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.outcome, Engine::Enqueue::kBackpressure);
  EXPECT_EQ(metrics.counter("serve.rejected").value(), 1);

  // Inline queries bypass the queue and still work.
  EXPECT_EQ(registrable_domain(engine, "a.example.com"), "example.com");
}

TEST(ServeEngineTest, SwapIsVisibleAndBumpsGeneration) {
  Engine engine(snap_of(list_a()), {.threads = 1});
  EXPECT_EQ(registrable_domain(engine, "a.b.example.com"), "example.com");

  const std::uint64_t generation = engine.reload_list(list_b());
  EXPECT_EQ(generation, 2u);
  EXPECT_EQ(engine.generation(), 2u);
  EXPECT_EQ(engine.metadata().rule_count, 5u);
  // Under list B "example.com" is a suffix, so the eTLD+1 gains a label.
  EXPECT_EQ(registrable_domain(engine, "a.b.example.com"), "b.example.com");
}

TEST(ServeEngineTest, GenerationListenerFiresAfterEverySwapInOrder) {
  Engine engine(snap_of(list_a()), {.threads = 1});

  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;  // (generation, rule_count)
  engine.set_generation_listener(
      [&seen](std::uint64_t generation, const snapshot::Metadata& meta) {
        seen.emplace_back(generation, meta.rule_count);
      });

  engine.reload_list(parse_list("com\nio\n"));
  engine.reload_list(parse_list("com\nio\ngithub.io\n"));
  engine.reload_list(parse_list("com\n"));

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::uint64_t, std::uint64_t>{2u, 2u}));
  EXPECT_EQ(seen[1], (std::pair<std::uint64_t, std::uint64_t>{3u, 3u}));
  EXPECT_EQ(seen[2], (std::pair<std::uint64_t, std::uint64_t>{4u, 1u}));

  // Clearing the listener stops notifications.
  engine.set_generation_listener(nullptr);
  engine.reload_list(parse_list("com\nuk\n"));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(ServeEngineTest, ReloadSnapshotKeepsLastGoodOnFailure) {
  obs::MetricsRegistry metrics;
  Engine engine(snap_of(list_a()), {.threads = 1, .metrics = &metrics});

  const std::vector<std::uint8_t> garbage = {'P', 'S', 'L', 'X', 0, 1, 2, 3};
  auto failed = engine.reload_snapshot({garbage.data(), garbage.size()});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(engine.generation(), 1u);  // untouched
  EXPECT_EQ(registrable_domain(engine, "a.b.example.com"), "example.com");
  EXPECT_EQ(metrics.counter("serve.reload.failure").value(), 1);
  EXPECT_EQ(metrics.counter("serve.reload.success").value(), 0);

  // A valid snapshot swaps in.
  const List b = list_b();
  snapshot::Metadata meta;
  meta.rule_count = b.rules().size();
  const std::string bytes = snapshot::serialize(CompiledMatcher(b), meta);
  auto swapped =
      engine.reload_snapshot({reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  ASSERT_TRUE(swapped.ok()) << swapped.error().message;
  EXPECT_EQ(*swapped, 2u);
  EXPECT_EQ(registrable_domain(engine, "a.b.example.com"), "b.example.com");
  EXPECT_EQ(metrics.counter("serve.reload.success").value(), 1);
}

TEST(ServeEngineTest, ReloadFileRoundTrip) {
  Engine engine(snap_of(list_a()), {.threads = 1});
  const std::string path = testing::TempDir() + "/psl_engine_test.psnap";

  snapshot::Metadata meta;
  meta.rule_count = list_b().rules().size();
  ASSERT_TRUE(snapshot::write_file(path, CompiledMatcher(list_b()), meta).ok());
  auto swapped = engine.reload_file(path);
  ASSERT_TRUE(swapped.ok()) << swapped.error().message;
  EXPECT_EQ(engine.metadata().rule_count, 5u);
  std::remove(path.c_str());

  EXPECT_EQ(engine.reload_file("/nonexistent/x.psnap").error().code, "snapshot.io");
  EXPECT_EQ(engine.generation(), 2u);  // keep-last-good
}

/// A list whose snapshot spans dozens of pages, so a truncation to one page
/// removes most of the file. `with_private` adds a rule below every TLD.
List wide_list(bool with_private) {
  std::string text;
  for (int i = 0; i < 4000; ++i) {
    const std::string tld = "t" + std::to_string(i);
    text += tld + "\n";
    if (with_private) text += "p" + std::to_string(i) + "." + tld + "\n";
  }
  return parse_list(text);
}

TEST(ServeEngineTest, ServedSnapshotIsAPrivateCopyOfTheFile) {
  // An engine booted from load_file(path) serves a validated private copy:
  // overwriting the file in place with another snapshot's bytes and then
  // truncating it to 4 KiB must change no answer, and reloading the damaged
  // file must be rejected keep-last-good.
  obs::MetricsRegistry metrics;
  const List served = wide_list(true);
  const std::string path = testing::TempDir() + "/psl_engine_private_copy.psnap";
  snapshot::Metadata meta;
  meta.rule_count = served.rules().size();
  auto written = snapshot::write_file(path, CompiledMatcher(served), meta);
  ASSERT_TRUE(written.ok()) << written.error().message;
  ASSERT_GT(*written, 16 * 4096u);
  auto loaded = snapshot::load_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  // No cache: every answer below walks the served arena.
  Engine engine(*std::move(loaded), {.threads = 1, .cache_slots = 0, .metrics = &metrics});

  const CompiledMatcher oracle(served);
  std::vector<std::string> hosts;
  for (int i = 0; i < 4000; i += 37) {
    const std::string tld = "t" + std::to_string(i);
    hosts.push_back("x.p" + std::to_string(i) + "." + tld);
    hosts.push_back("a.b." + tld);
  }
  std::vector<std::string> want;
  for (const std::string& host : hosts) {
    want.emplace_back(oracle.match_view(host).registrable_domain);
  }
  const auto expect_served_answers = [&](const char* stage) {
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      ASSERT_EQ(registrable_domain(engine, hosts[i]), want[i]) << stage << ": " << hosts[i];
    }
    auto batch = submit(engine, registrable_domains_job(engine, hosts));
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(batch.result.get(), want) << stage;
  };
  expect_served_answers("as loaded");

  // Overwrite in place the way cp(1) does: same inode, truncate, write.
  const List other = wide_list(false);
  snapshot::Metadata other_meta;
  other_meta.rule_count = other.rules().size();
  const std::string other_bytes = snapshot::serialize(CompiledMatcher(other), other_meta);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(other_bytes.data(), static_cast<std::streamsize>(other_bytes.size()));
    ASSERT_TRUE(out.good());
  }
  expect_served_answers("overwritten in place");

  ASSERT_EQ(::truncate(path.c_str(), 4096), 0);
  expect_served_answers("truncated to 4 KiB");

  auto reloaded = engine.reload_file(path);
  ASSERT_FALSE(reloaded.ok());
  EXPECT_EQ(reloaded.error().code.rfind("snapshot.", 0), 0u) << reloaded.error().code;
  EXPECT_EQ(engine.generation(), 1u);
  EXPECT_EQ(metrics.counter("serve.reload.failure").value(), 1);
  expect_served_answers("after the rejected reload");
  std::remove(path.c_str());
}

TEST(ServeEngineTest, ShutdownDrainsAcceptedBatches) {
  std::vector<std::future<std::vector<std::string>>> futures;
  {
    Engine engine(snap_of(list_a()), {.threads = 1, .max_queue_depth = 128});
    for (int i = 0; i < 32; ++i) {
      auto submitted =
          submit(engine, registrable_domains_job(engine, {"a.example.com", "b.co.uk"}));
      ASSERT_TRUE(submitted.ok());
      futures.push_back(std::move(submitted.result));
    }
  }  // destructor: stop intake, drain, join
  for (auto& f : futures) {
    EXPECT_EQ(f.get(), (std::vector<std::string>{"example.com", "b.co.uk"}));
  }
}

TEST(ServeEngineTest, RunInlinePinsOneStateOnTheCallingThread) {
  obs::MetricsRegistry metrics;
  Engine engine(snap_of(list_a()), {.threads = 2, .metrics = &metrics});
  const std::thread::id caller = std::this_thread::get_id();
  bool ran = false;
  engine.run_inline([&](const Engine::Pinned& pinned) {
    ran = true;
    EXPECT_EQ(std::this_thread::get_id(), caller);  // no hand-off
    EXPECT_EQ(pinned.generation, 1u);
    EXPECT_NE(pinned.cache, nullptr);
    EXPECT_EQ(pinned.census, nullptr);  // census ingest stays on the workers
    EXPECT_EQ(pinned.worker, engine.worker_count());  // the inline slot
    EXPECT_EQ(pinned.registrable_domain_view("a.b.example.com"), "example.com");
    EXPECT_EQ(pinned.registrable_domain_view("a.b.example.com"), "example.com");  // hit
    EXPECT_TRUE(pinned.same_site("a.example.com", "b.example.com"));
  });
  EXPECT_TRUE(ran);
  EXPECT_EQ(metrics.counter("serve.batches").value(), 1);
  EXPECT_EQ(metrics.histogram("serve.batch_ms").count(), 1);
  EXPECT_GE(metrics.counter("serve.cache.hit").value(), 1);

  // A swap is visible to the next inline batch, through a cold cache.
  engine.reload_list(list_b());
  engine.run_inline([&](const Engine::Pinned& pinned) {
    EXPECT_EQ(pinned.generation, 2u);
    EXPECT_EQ(pinned.registrable_domain_view("a.b.example.com"), "b.example.com");
  });
}

TEST(ServeEngineTest, MetricsAreWired) {
  obs::MetricsRegistry metrics;
  {
    Engine engine(snap_of(list_a()), {.threads = 2, .metrics = &metrics});

    auto batch =
        submit(engine, registrable_domains_job(engine, {"a.example.com", "b.example.com"}));
    ASSERT_TRUE(batch.ok());
    batch.result.get();
    registrable_domain(engine, "c.example.com");
    engine.reload_list(list_b());
  }  // join workers: the batch future resolves before the worker's batch_ms
     // timer records, so read the histogram only after the pool is gone.

  // One queued batch plus one inline batch (run_inline counts a batch too).
  EXPECT_EQ(metrics.counter("serve.batches").value(), 2);
  EXPECT_EQ(metrics.counter("serve.queries").value(), 3);  // 2 batched + 1 inline
  EXPECT_EQ(metrics.counter("serve.reload.success").value(), 1);
  EXPECT_EQ(metrics.histogram("serve.batch_ms").count(), 2);
  EXPECT_EQ(metrics.gauge("serve.queue_depth").value(), 0.0);
}

TEST(ServeEngineTest, BatchesSeeExactlyOneVersionAcrossManyReloads) {
  // The acceptance gate: concurrent batched queries racing >= 100 hot
  // reloads, every batch internally consistent with exactly one version.
  // Probe hosts are chosen so lists A and B disagree on every single one —
  // any torn batch (mixing versions) is detected immediately.
  const std::vector<std::string> probes = {"a.b.example.com", "x.y.example.com",
                                           "deep.z.example.com", "t.platform.co.uk",
                                           "u.v.platform.co.uk"};
  const std::vector<std::string> answers_a = {"example.com", "example.com", "example.com",
                                              "platform.co.uk", "platform.co.uk"};
  const std::vector<std::string> answers_b = {"b.example.com", "y.example.com", "z.example.com",
                                              "t.platform.co.uk", "v.platform.co.uk"};

  obs::MetricsRegistry metrics;
  Engine engine(snap_of(list_a()), {.threads = 3, .max_queue_depth = 16, .metrics = &metrics});

  const List a = list_a();
  const List b = list_b();
  std::atomic<bool> done{false};
  std::atomic<int> reloads{0};

  std::thread reloader([&] {
    for (int i = 0; i < 120; ++i) {
      engine.reload_list(i % 2 == 0 ? b : a);
      reloads.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });

  std::size_t checked = 0;
  std::size_t rejected = 0;
  while (!done.load(std::memory_order_acquire) || checked == 0) {
    auto submitted = submit(engine, registrable_domains_job(engine, probes));
    if (!submitted.ok()) {
      ASSERT_EQ(submitted.outcome, Engine::Enqueue::kBackpressure);
      ++rejected;
      std::this_thread::yield();
      continue;
    }
    const std::vector<std::string> got = submitted.result.get();
    const bool is_a = got == answers_a;
    const bool is_b = got == answers_b;
    ASSERT_TRUE(is_a || is_b) << "torn batch mixing versions at iteration " << checked;
    ++checked;
  }
  reloader.join();

  EXPECT_GE(reloads.load(), 120);
  EXPECT_EQ(engine.generation(), 1u + 120u);
  EXPECT_GT(checked, 0u);
  // Accepted + rejected submissions reconcile with the counters.
  EXPECT_EQ(metrics.counter("serve.batches").value(), static_cast<std::int64_t>(checked));
  EXPECT_EQ(metrics.counter("serve.rejected").value(), static_cast<std::int64_t>(rejected));
}

TEST(ServeEngineTest, ConcurrentMixedQueriesDuringReloads) {
  // Inline queries, batches of every type, and reloads all racing; TSan
  // (the serve CI job) is the oracle here — assertions just sanity-check.
  Engine engine(snap_of(list_a()), {.threads = 2, .max_queue_depth = 32});
  const List a = list_a();
  const List b = list_b();

  std::atomic<bool> stop{false};
  std::thread reloader([&] {
    for (int i = 0; i < 100; ++i) {
      engine.reload_list(i % 2 == 0 ? b : a);
    }
    stop.store(true, std::memory_order_release);
  });

  // The only run_inline caller (the inline slot is single-writer).
  std::thread inliner([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string rd = registrable_domain(engine, "a.b.example.com");
      ASSERT_TRUE(rd == "example.com" || rd == "b.example.com") << rd;
      same_site(engine, "a.example.com", "b.example.com");
    }
  });

  while (!stop.load(std::memory_order_acquire)) {
    auto sites = submit(engine, same_site_job(engine, {{"p.co.uk", "q.co.uk"}}));
    if (sites.ok()) {
      const auto got = sites.result.get();
      ASSERT_EQ(got.size(), 1u);
    }
    auto matches = submit(engine, match_job(engine, {"www.example.com"}));
    if (matches.ok()) matches.result.get();
  }

  reloader.join();
  inliner.join();
  EXPECT_EQ(engine.generation(), 101u);
}

}  // namespace
}  // namespace psl::serve
