// Serving-engine throughput ablation: psl::serve::Engine batched query QPS
// across worker-thread count x batch size, plus a reload-under-load run that
// hot-swaps the list ~50 times while a client keeps querying (the paper's
// "update the PSL without breaking boundary checks" scenario, §6).
//
// The engine is seeded through the full snapshot path — serialize the
// arena-compiled matcher, then load it back with the validating loader — so
// the numbers cover what a deployed daemon would actually run. Results print
// as a table and land machine-readably in BENCH_serve.json (with an embedded
// psl::obs metrics snapshot), which CI archives.
//
// Usage: bench_serve_qps [queries_per_cell] [max_threads]
//   queries_per_cell  batched queries measured per (threads, batch) cell
//                     (default 100000; CI smoke passes a small value)
//   max_threads       highest engine worker count tried (default
//                     hardware_concurrency)
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "serving.hpp"
#include "psl/obs/json.hpp"
#include "psl/obs/metrics.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/serve/engine.hpp"
#include "psl/serve/snapshot.hpp"
#include "psl/util/date.hpp"
#include "psl/util/strings.hpp"
#include "psl/util/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using psl::bench::host_mix;
using psl::bench::snapshot_of;

struct Cell {
  std::size_t threads = 0;
  std::size_t batch = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
};

/// Queue one batch — hosts[first .. first + n), wrapping at 4096 — as a
/// submit_job job answered through Pinned::registrable_domains. The future
/// resolves once a worker has answered it; nullopt when the queue is full.
std::optional<std::future<void>> submit_batch(psl::serve::Engine& engine,
                                              const std::vector<std::string>& hosts,
                                              std::size_t first, std::size_t n) {
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> answered = done->get_future();
  const auto outcome = engine.submit_job(
      [&engine, &hosts, first, n, done](const psl::serve::Engine::Pinned& pinned) {
        thread_local std::vector<std::string_view> batch;
        thread_local std::vector<std::string_view> domains;
        batch.clear();
        for (std::size_t i = 0; i < n; ++i) batch.push_back(hosts[(first + i) & 4095]);
        domains.resize(n);
        pinned.registrable_domains(batch, domains);
        engine.count_queries(n);
        done->set_value();
      });
  if (outcome != psl::serve::Engine::Enqueue::kOk) return std::nullopt;
  return answered;
}

/// Drive `total` queries through the engine in batches of `batch`, keeping a
/// bounded window of in-flight futures so workers never starve.
double run_cell(psl::serve::Engine& engine, const std::vector<std::string>& hosts,
                std::size_t total, std::size_t batch) {
  const std::size_t window = 2 * engine.worker_count() + 2;
  std::deque<std::future<void>> inflight;

  const auto t0 = Clock::now();
  std::size_t sent = 0;
  while (sent < total) {
    const std::size_t n = std::min(batch, total - sent);
    for (;;) {
      auto submitted = submit_batch(engine, hosts, sent, n);
      if (submitted) {
        inflight.push_back(std::move(*submitted));
        break;
      }
      // Backpressure: retire the oldest in-flight batch and retry.
      if (!inflight.empty()) {
        inflight.front().get();
        inflight.pop_front();
      } else {
        std::this_thread::yield();
      }
    }
    sent += n;
    while (inflight.size() >= window) {
      inflight.front().get();
      inflight.pop_front();
    }
  }
  while (!inflight.empty()) {
    inflight.front().get();
    inflight.pop_front();
  }
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t queries_per_cell =
      argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : 100000;
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const unsigned max_threads = argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : hardware;
  if (queries_per_cell < 1 || max_threads < 1) {
    std::cerr << "usage: bench_serve_qps [queries_per_cell >= 1] [max_threads >= 1]\n";
    return 2;
  }

  const psl::history::History& history = psl::bench::full_history();
  const psl::List& list = history.latest();
  const psl::util::Date latest_date = history.version_date(history.version_count() - 1);
  const std::vector<std::string> hosts = host_mix(list);

  std::cout << "=== Serving engine: threads x batch-size QPS ablation ===\n";
  std::cout << "rules: " << list.rules().size() << ", queries/cell: " << queries_per_cell
            << ", hardware threads: " << hardware << "\n\n";

  std::vector<std::size_t> thread_counts;
  for (unsigned t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  const std::vector<std::size_t> batch_sizes = {1, 16, 256, 4096};

  std::vector<Cell> cells;
  for (const std::size_t threads : thread_counts) {
    for (const std::size_t batch : batch_sizes) {
      psl::serve::Engine engine(snapshot_of(list, latest_date),
                                {.threads = threads, .max_queue_depth = 1024});
      Cell cell;
      cell.threads = threads;
      cell.batch = batch;
      cell.wall_ms = run_cell(engine, hosts, queries_per_cell, batch);
      cell.qps = static_cast<double>(queries_per_cell) / (cell.wall_ms / 1000.0);
      cells.push_back(cell);
    }
  }

  psl::util::TextTable table({"threads", "batch size", "wall time", "queries/sec"});
  for (const Cell& cell : cells) {
    table.add_row({std::to_string(cell.threads), std::to_string(cell.batch),
                   psl::util::fmt_double(cell.wall_ms, 0) + " ms",
                   psl::util::fmt_double(cell.qps, 0)});
  }
  table.print(std::cout);

  // --- reload-under-load: hot-swap the list while a client keeps querying --
  // Alternates between the latest list and its predecessor, 50 swaps through
  // the full snapshot reload path, with batched queries racing the whole way.
  const std::size_t previous_index =
      history.version_count() >= 2 ? history.version_count() - 2 : 0;
  const psl::List previous = history.snapshot(previous_index);
  const psl::util::Date previous_date = history.version_date(previous_index);

  psl::obs::MetricsRegistry metrics;
  const std::size_t reload_threads = std::max<std::size_t>(2, max_threads);
  const std::size_t reload_batch = 256;
  constexpr int kReloads = 50;
  double reload_wall_ms = 0.0;
  std::uint64_t reload_generation = 0;
  {
    psl::serve::Engine engine(
        snapshot_of(list, latest_date),
        {.threads = reload_threads, .max_queue_depth = 1024, .metrics = &metrics});
    const std::string bytes_now = psl::snapshot::serialize(
        psl::CompiledMatcher(list), {latest_date, list.rules().size()});
    const std::string bytes_prev = psl::snapshot::serialize(
        psl::CompiledMatcher(previous), {previous_date, previous.rules().size()});

    std::thread reloader([&] {
      for (int i = 0; i < kReloads; ++i) {
        const std::string& bytes = i % 2 == 0 ? bytes_prev : bytes_now;
        auto swapped = engine.reload_snapshot(
            {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
        if (!swapped.ok()) {
          std::cerr << "reload failed: " << swapped.error().message << "\n";
          std::exit(2);
        }
        std::this_thread::yield();
      }
    });
    reload_wall_ms = run_cell(engine, hosts, queries_per_cell, reload_batch);
    reloader.join();
    reload_generation = engine.generation();
  }
  const double reload_qps = static_cast<double>(queries_per_cell) / (reload_wall_ms / 1000.0);

  std::cout << "\nreload-under-load (" << reload_threads << " threads, batch " << reload_batch
            << "): " << kReloads << " hot swaps, "
            << psl::util::fmt_double(reload_qps, 0) << " queries/sec, final generation "
            << reload_generation << "\n";
  if (reload_generation != 1u + kReloads) {
    std::cout << "GENERATION MISMATCH: expected " << (1u + kReloads) << "\n";
    return 1;
  }

  std::ofstream json("BENCH_serve.json");
  json << "{\n";
  json << "  \"rule_count\": " << list.rules().size() << ",\n";
  json << "  \"queries_per_cell\": " << queries_per_cell << ",\n";
  json << "  \"hardware_threads\": " << hardware << ",\n";
  json << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    json << "    {\"threads\": " << cell.threads << ", \"batch_size\": " << cell.batch
         << ", \"wall_ms\": " << psl::util::fmt_double(cell.wall_ms, 2)
         << ", \"qps\": " << psl::util::fmt_double(cell.qps, 1) << "}"
         << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"reload_under_load\": {\"threads\": " << reload_threads
       << ", \"batch_size\": " << reload_batch << ", \"reloads\": " << kReloads
       << ", \"wall_ms\": " << psl::util::fmt_double(reload_wall_ms, 2)
       << ", \"qps\": " << psl::util::fmt_double(reload_qps, 1)
       << ", \"final_generation\": " << reload_generation << "},\n";
  json << "  \"metrics\": " << psl::obs::to_json(metrics) << ",\n";
  psl::bench::emit_bench_delta(json);
  json << "\n}\n";
  std::cout << "wrote BENCH_serve.json\n";
  return 0;
}
