// Concurrency: const lookups on shared immutable structures must be safe
// from many threads (Core Guidelines CP.2 — a const API implies thread-safe
// reads). Run under the full list and the corpus pipeline.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "psl/core/site_former.hpp"
#include "psl/history/timeline.hpp"
#include "psl/web/cookie_jar.hpp"

namespace psl {
namespace {

const history::History& hist() {
  static const history::History h = generate_history(history::TimelineSpec{});
  return h;
}

TEST(ConcurrencyTest, ParallelMatchesAgree) {
  const List& list = hist().latest();
  const std::vector<std::string> hosts = {
      "www.amazon.co.uk", "store.myshopify.com", "a.b.kawasaki.jp",
      "alice.github.io",  "deep.x.y.example.com", "www.ck",
  };

  // Reference answers, single-threaded.
  std::vector<std::string> expected;
  for (const auto& host : hosts) expected.push_back(list.public_suffix(host));

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int iter = 0; iter < 20000; ++iter) {
        const std::size_t i = static_cast<std::size_t>(iter) % hosts.size();
        if (list.public_suffix(hosts[i]) != expected[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, ParallelSiteAssignmentsAreIdentical) {
  const List& list = hist().latest();
  const std::vector<std::string> hosts = {
      "a.x.com", "b.x.com", "c.y.co.uk", "d.myshopify.com", "10.1.2.3",
  };
  const harm::SiteAssignment reference = harm::assign_sites(list, hosts);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int iter = 0; iter < 500; ++iter) {
        const harm::SiteAssignment mine = harm::assign_sites(list, hosts);
        if (harm::divergent_hosts(mine, reference) != 0) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, IndependentCookieJarsDoNotInterfere) {
  const List& list = hist().latest();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      web::CookieJar jar(list);  // one jar per thread
      const auto origin =
          url::Url::parse("https://tenant" + std::to_string(t) + ".example.com/");
      for (int iter = 0; iter < 2000; ++iter) {
        std::string header(1, 'c');
        header += std::to_string(iter % 16);
        header += "=v";
        if (jar.set_from_header(*origin, header) != web::SetCookieOutcome::kStored) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (jar.size() != 16) failures.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace psl
