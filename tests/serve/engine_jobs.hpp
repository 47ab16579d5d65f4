// Test helpers that drive psl::serve::Engine the way its callers do: batch
// jobs through submit_job (answered by the Pinned helpers, results handed
// back through a future) and single queries through run_inline.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "psl/serve/engine.hpp"

namespace psl::serve::jobs {

/// A submit_job outcome; `result` is valid only when the job was accepted.
template <typename R>
struct Submitted {
  Engine::Enqueue outcome;
  std::future<R> result;

  bool ok() const { return outcome == Engine::Enqueue::kOk; }
};

/// Queue `job` (a callable taking const Engine::Pinned&) on the engine's
/// workers; its return value arrives through the future.
template <typename Job>
auto submit(Engine& engine, Job job) {
  using R = std::invoke_result_t<Job&, const Engine::Pinned&>;
  auto task = std::make_shared<std::packaged_task<R(const Engine::Pinned&)>>(std::move(job));
  std::future<R> result = task->get_future();
  const Engine::Enqueue outcome =
      engine.submit_job([task](const Engine::Pinned& pinned) { (*task)(pinned); });
  return Submitted<R>{outcome, std::move(result)};
}

/// Batch job: the registrable domain of every host ("" when it has none).
inline auto registrable_domains_job(Engine& engine, std::vector<std::string> hosts) {
  return [&engine, hosts = std::move(hosts)](const Engine::Pinned& pinned) {
    const std::vector<std::string_view> views(hosts.begin(), hosts.end());
    std::vector<std::string_view> domains(hosts.size());
    pinned.registrable_domains(views, domains);
    engine.count_queries(hosts.size());
    return std::vector<std::string>(domains.begin(), domains.end());
  };
}

/// Batch job: 0/1 same-site flags, parallel to `pairs`.
inline auto same_site_job(Engine& engine,
                          std::vector<std::pair<std::string, std::string>> pairs) {
  return [&engine, pairs = std::move(pairs)](const Engine::Pinned& pinned) {
    std::vector<std::uint8_t> out;
    out.reserve(pairs.size());
    for (const auto& [a, b] : pairs) out.push_back(pinned.same_site(a, b) ? 1 : 0);
    engine.count_queries(pairs.size());
    return out;
  };
}

/// Batch job: the full match of every host.
inline auto match_job(Engine& engine, std::vector<std::string> hosts) {
  return [&engine, hosts = std::move(hosts)](const Engine::Pinned& pinned) {
    const std::vector<std::string_view> views(hosts.begin(), hosts.end());
    std::vector<MatchView> matches(hosts.size());
    pinned.match_batch(views, matches);
    std::vector<Match> out;
    out.reserve(matches.size());
    for (const MatchView& m : matches) out.push_back(m.to_match());
    engine.count_queries(hosts.size());
    return out;
  };
}

/// Single query on the calling thread (run_inline): the registrable domain
/// of `host`, "" when it has none.
inline std::string registrable_domain(Engine& engine, std::string_view host) {
  std::string out;
  engine.run_inline([&](const Engine::Pinned& pinned) {
    out = pinned.registrable_domain_view(host);
    engine.count_queries(1);
  });
  return out;
}

/// Single same-site query on the calling thread (run_inline).
inline bool same_site(Engine& engine, std::string_view a, std::string_view b) {
  bool out = false;
  engine.run_inline([&](const Engine::Pinned& pinned) {
    out = pinned.same_site(a, b);
    engine.count_queries(1);
  });
  return out;
}

}  // namespace psl::serve::jobs
