// Engineering bench: the browser-side primitives whose cost the PSL check
// sits inside — Set-Cookie processing with the supercookie check against
// the full list, cookie matching, and autofill suggestion lookups.
#include <benchmark/benchmark.h>

#include "psl/history/timeline.hpp"
#include "psl/web/autofill.hpp"
#include "psl/web/cookie_jar.hpp"

namespace {

const psl::List& full_list() {
  static const psl::history::History history =
      psl::history::generate_history(psl::history::TimelineSpec{});
  return history.latest();
}

const psl::url::Url& origin() {
  static const psl::url::Url url = *psl::url::Url::parse("https://shop.example.com/checkout");
  return url;
}

void BM_SetCookie_HostOnly(benchmark::State& state) {
  psl::web::CookieJar jar(full_list());
  for (auto _ : state) {
    benchmark::DoNotOptimize(jar.set_from_header(origin(), "sid=abc; Path=/; Secure"));
    jar.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SetCookie_HostOnly);

void BM_SetCookie_WithDomainPslCheck(benchmark::State& state) {
  psl::web::CookieJar jar(full_list());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        jar.set_from_header(origin(), "sid=abc; Domain=example.com; Path=/"));
    jar.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SetCookie_WithDomainPslCheck);

void BM_SetCookie_SupercookieRejected(benchmark::State& state) {
  psl::web::CookieJar jar(full_list());
  for (auto _ : state) {
    benchmark::DoNotOptimize(jar.set_from_header(origin(), "track=x; Domain=com"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SetCookie_SupercookieRejected);

void BM_CookiesForRequest(benchmark::State& state) {
  psl::web::CookieJar jar(full_list());
  for (int i = 0; i < 64; ++i) {
    std::string header(1, 'c');
    header += std::to_string(i);
    header += "=v; Domain=example.com";
    jar.set_from_header(origin(), header);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(jar.cookies_for(origin()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CookiesForRequest);

void BM_AutofillSuggestions(benchmark::State& state) {
  psl::web::AutofillMatcher manager;
  for (int i = 0; i < 256; ++i) {
    manager.store("host" + std::to_string(i) + ".example" + std::to_string(i % 32) + ".com",
                  "user", "pw");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(manager.suggestions("www.example7.com", full_list()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AutofillSuggestions);

}  // namespace

BENCHMARK_MAIN();
