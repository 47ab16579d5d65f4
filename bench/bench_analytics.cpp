// Streaming-analytics throughput and memory ablation: ingest records/sec
// through the full client -> PSLN ingest_batch frame -> net::Server ->
// census path across engine-worker count x batch size, census-query latency
// under sustained concurrent ingest, and the bounded-memory gate the
// subsystem is named for — ten million corpus records streamed through one
// Census must stay under the 64 MiB budget with every exact aggregate
// intact. The gate runs in --smoke too (it IS the CI check); a violation
// exits nonzero.
//
// Results print as tables and land machine-readably in BENCH_analytics.json
// (with an embedded psl::obs metrics snapshot covering the analytics.*
// counters), which CI archives.
//
// Usage: bench_analytics [--smoke] [records_per_cell] [max_threads]
//   --smoke           tiny wire grid for CI (20k records/cell, 2 threads);
//                     the 10M-record memory gate still runs in full
//   records_per_cell  records streamed per (threads, batch) wire cell
//                     (default 400000)
//   max_threads       highest engine worker count tried (default
//                     hardware_concurrency)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common.hpp"
#include "serving.hpp"
#include "psl/analytics/census.hpp"
#include "psl/net/client.hpp"
#include "psl/net/server.hpp"
#include "psl/obs/json.hpp"
#include "psl/obs/metrics.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/serve/engine.hpp"
#include "psl/serve/snapshot.hpp"
#include "psl/url/host.hpp"
#include "psl/util/strings.hpp"
#include "psl/util/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;

using psl::bench::snapshot_of;

constexpr std::uint64_t kGateRecords = 10'000'000;
constexpr std::size_t kGateBudgetBytes = 64u << 20;

/// The corpus requests as wire records; views point into the corpus's
/// hostname table, which outlives every use here.
std::vector<psl::net::WireIngestRecord> wire_records(const psl::archive::Corpus& corpus) {
  std::vector<psl::net::WireIngestRecord> out;
  out.reserve(corpus.request_count());
  std::uint64_t ts = 0;
  for (const psl::archive::Request& r : corpus.requests()) {
    out.push_back({corpus.hostname(r.page_host), corpus.hostname(r.resource_host), ts++});
  }
  return out;
}

/// One blocking ingest client on its own connection, streaming `total`
/// records in batches of `batch`, cycling through `records`. Backpressure is
/// retried — the reject leaves the connection usable.
void ingest_worker(std::uint16_t port,
                   const std::vector<psl::net::WireIngestRecord>& records,
                   std::size_t total, std::size_t batch, std::size_t offset,
                   std::atomic<bool>& failed) {
  auto client = psl::net::Client::connect("127.0.0.1", port);
  if (!client.ok()) {
    std::cerr << "connect failed: " << client.error().message << "\n";
    failed = true;
    return;
  }
  std::vector<psl::net::WireIngestRecord> request;
  request.reserve(batch);
  std::size_t sent = 0;
  std::size_t index = offset % records.size();
  while (sent < total && !failed.load(std::memory_order_relaxed)) {
    request.clear();
    const std::size_t n = std::min(batch, total - sent);
    for (std::size_t i = 0; i < n; ++i) {
      request.push_back(records[index]);
      if (++index == records.size()) index = 0;
    }
    for (;;) {
      auto ack = client->ingest_batch(request);
      if (ack.ok()) {
        if (ack->accepted != n) {
          std::cerr << "short ack: " << ack->accepted << " of " << n << "\n";
          failed = true;
          return;
        }
        break;
      }
      if (ack.error().code == "net.backpressure") {
        std::this_thread::yield();
        continue;
      }
      std::cerr << "ingest failed: " << ack.error().message << " (" << ack.error().code
                << ")\n";
      failed = true;
      return;
    }
    sent += n;
  }
}

struct Cell {
  std::size_t threads = 0;
  std::size_t batch = 0;
  double wall_ms = 0.0;
  double rps = 0.0;
};

/// Boot engine (with census) + server, split `total` records across
/// `clients` connections, return wall ms.
double run_ingest_cell(const psl::snapshot::Snapshot& seed,
                       const std::vector<psl::net::WireIngestRecord>& records,
                       std::size_t engine_threads, std::size_t clients, std::size_t total,
                       std::size_t batch, psl::obs::MetricsRegistry* metrics) {
  psl::serve::EngineOptions engine_options;
  engine_options.threads = engine_threads;
  engine_options.max_queue_depth = 1024;
  engine_options.metrics = metrics;
  engine_options.census_factory = psl::analytics::census_factory({});
  psl::serve::Engine engine(psl::snapshot::Snapshot{seed.matcher, seed.meta}, engine_options);
  psl::net::ServerOptions options;
  options.metrics = metrics;
  psl::net::Server server(engine, options);
  auto port = server.start();
  if (!port.ok()) {
    std::cerr << "server start failed: " << port.error().message << "\n";
    std::exit(2);
  }

  std::atomic<bool> failed{false};
  const std::size_t per_client = (total + clients - 1) / clients;
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    const std::size_t share = std::min(per_client, total - std::min(total, c * per_client));
    if (share == 0) break;
    pool.emplace_back(ingest_worker, *port, std::cref(records), share, batch,
                      c * per_client, std::ref(failed));
  }
  for (std::thread& t : pool) t.join();
  const auto t1 = Clock::now();
  server.shutdown();
  if (failed) std::exit(2);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// The census's own site-key rule, restated for the reference pass: IPs and
/// suffix-only hosts stand alone, everything else groups by eTLD+1.
std::string_view reference_site_key(std::string_view host, const psl::MatchView& m) {
  if (psl::url::looks_like_ip_literal(host)) return host;
  return m.registrable_domain.empty() ? host : m.registrable_domain;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  std::size_t records_per_cell = smoke ? 20000 : 400000;
  unsigned max_threads = smoke ? 2u : hardware;
  if (positional.size() > 0) {
    records_per_cell = static_cast<std::size_t>(std::atol(positional[0]));
  }
  if (positional.size() > 1) max_threads = static_cast<unsigned>(std::atoi(positional[1]));
  if (records_per_cell < 1 || max_threads < 1) {
    std::cerr
        << "usage: bench_analytics [--smoke] [records_per_cell >= 1] [max_threads >= 1]\n";
    return 2;
  }

  const psl::history::History& history = psl::bench::full_history();
  const psl::List& list = history.latest();
  const psl::util::Date latest_date = history.version_date(history.version_count() - 1);
  const psl::archive::Corpus& corpus = psl::bench::full_corpus();
  const std::vector<psl::net::WireIngestRecord> records = wire_records(corpus);
  const psl::snapshot::Snapshot seed = snapshot_of(list, latest_date);
  const std::size_t clients = smoke ? 2 : 4;

  std::cout << "=== psl::analytics wire ingest: engine threads x batch-size ablation ===\n";
  std::cout << "rules: " << list.rules().size() << ", corpus requests: " << records.size()
            << ", records/cell: " << records_per_cell << ", client connections: " << clients
            << ", hardware threads: " << hardware << "\n\n";

  std::vector<std::size_t> thread_counts;
  for (unsigned t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  const std::vector<std::size_t> batch_sizes =
      smoke ? std::vector<std::size_t>{64, 1024} : std::vector<std::size_t>{16, 256, 4096};

  std::vector<Cell> cells;
  for (const std::size_t threads : thread_counts) {
    for (const std::size_t batch : batch_sizes) {
      Cell cell;
      cell.threads = threads;
      cell.batch = batch;
      cell.wall_ms =
          run_ingest_cell(seed, records, threads, clients, records_per_cell, batch, nullptr);
      cell.rps = static_cast<double>(records_per_cell) / (cell.wall_ms / 1000.0);
      cells.push_back(cell);
    }
  }

  psl::util::TextTable table({"engine threads", "batch size", "wall time", "records/sec"});
  for (const Cell& cell : cells) {
    table.add_row({std::to_string(cell.threads), std::to_string(cell.batch),
                   psl::util::fmt_double(cell.wall_ms, 0) + " ms",
                   psl::util::fmt_double(cell.rps, 0)});
  }
  table.print(std::cout);

  // --- census-query latency under sustained ingest -------------------------
  // Ingest clients stream continuously while a dedicated connection times
  // census_query round trips — the deployed read path: every query locks
  // each shard briefly against live writers and serializes the full tracker
  // table back over the wire.
  psl::obs::MetricsRegistry metrics;
  const std::size_t query_count = smoke ? 20 : 200;
  std::vector<double> census_ms;
  std::uint64_t observed_records = 0;
  {
    psl::serve::EngineOptions engine_options;
    engine_options.threads = std::min<std::size_t>(4, max_threads);
    engine_options.max_queue_depth = 1024;
    engine_options.metrics = &metrics;
    engine_options.census_factory = psl::analytics::census_factory({});
    psl::serve::Engine engine(psl::snapshot::Snapshot{seed.matcher, seed.meta},
                              engine_options);
    psl::net::ServerOptions options;
    options.metrics = &metrics;
    psl::net::Server server(engine, options);
    auto port = server.start();
    if (!port.ok()) {
      std::cerr << "server start failed: " << port.error().message << "\n";
      return 2;
    }

    std::atomic<bool> failed{false};
    std::atomic<bool> stop{false};
    std::vector<std::thread> ingesters;
    for (std::size_t c = 0; c < clients; ++c) {
      ingesters.emplace_back([&, c] {
        while (!stop.load(std::memory_order_relaxed) && !failed) {
          ingest_worker(*port, records, records.size(), 256, c * 1024, failed);
        }
      });
    }

    auto query_client = psl::net::Client::connect("127.0.0.1", *port);
    if (!query_client.ok()) {
      std::cerr << "connect failed: " << query_client.error().message << "\n";
      failed = true;
    } else {
      census_ms.reserve(query_count);
      for (std::size_t q = 0; q < query_count && !failed; ++q) {
        const auto t0 = Clock::now();
        auto snap = query_client->census(64);
        const auto t1 = Clock::now();
        if (!snap.ok()) {
          std::cerr << "census failed: " << snap.error().message << "\n";
          failed = true;
          break;
        }
        observed_records = snap->records;
        census_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    stop = true;
    for (std::thread& t : ingesters) t.join();
    server.shutdown();
    if (failed) return 2;
  }
  std::sort(census_ms.begin(), census_ms.end());
  const auto quantile = [&](double q) {
    return census_ms[std::min(census_ms.size() - 1,
                              static_cast<std::size_t>(q * static_cast<double>(census_ms.size())))];
  };
  std::cout << "\ncensus_query under ingest (" << query_count << " queries, top_k 64): p50 "
            << psl::util::fmt_double(quantile(0.50), 2) << " ms, p95 "
            << psl::util::fmt_double(quantile(0.95), 2) << " ms, max "
            << psl::util::fmt_double(census_ms.back(), 2) << " ms ("
            << observed_records << " records in census at last query)\n";

  // --- the bounded-memory gate ---------------------------------------------
  // Ten million records — the full corpus request stream cycled — through
  // ONE census, in process (the wire adds nothing to state growth). The
  // exact aggregates must hold at scale and the whole state must fit the
  // documented 64 MiB budget. This is the CI gate: violations exit nonzero.
  std::cout << "\n=== bounded-memory gate: " << kGateRecords << " records, budget "
            << (kGateBudgetBytes >> 20) << " MiB ===\n";
  const psl::CompiledMatcher gate_matcher(list);
  psl::analytics::Census census({}, std::min<std::size_t>(4, max_threads));

  // Reference pass over ONE cycle of the stream: exact third-party count
  // and distinct hosts, against which the census totals must be exact.
  std::uint64_t reference_third_party = 0;
  std::unordered_set<std::uint32_t> referenced;
  for (const psl::archive::Request& r : corpus.requests()) {
    referenced.insert(r.page_host);
    referenced.insert(r.resource_host);
    const std::string& page = corpus.hostname(r.page_host);
    const std::string& resource = corpus.hostname(r.resource_host);
    if (reference_site_key(page, gate_matcher.match_view(page)) !=
        reference_site_key(resource, gate_matcher.match_view(resource))) {
      ++reference_third_party;
    }
  }
  const std::uint64_t cycles = (kGateRecords + records.size() - 1) / records.size();
  const std::uint64_t gate_total = cycles * records.size();

  const std::size_t gate_threads = census.shard_count();
  const auto gate_t0 = Clock::now();
  std::vector<std::thread> gate_pool;
  for (std::size_t shard = 0; shard < gate_threads; ++shard) {
    gate_pool.emplace_back([&, shard] {
      constexpr std::size_t kBatch = 1024;
      std::vector<psl::analytics::CensusRecord> batch;
      batch.reserve(kBatch);
      // Shard s streams cycles [s, s+gate_threads, ...] of the request log.
      for (std::uint64_t cycle = shard; cycle < cycles; cycle += gate_threads) {
        for (std::size_t base = 0; base < records.size(); base += kBatch) {
          const std::size_t n = std::min(kBatch, records.size() - base);
          batch.clear();
          for (std::size_t i = 0; i < n; ++i) {
            const psl::net::WireIngestRecord& r = records[base + i];
            batch.push_back({r.page_host, r.resource_host, r.timestamp_ms});
          }
          census.ingest(shard, gate_matcher, batch);
        }
      }
    });
  }
  for (std::thread& t : gate_pool) t.join();
  const double gate_wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - gate_t0).count();

  const psl::analytics::CensusSnapshot snap = census.snapshot(64);
  const double gate_rps = static_cast<double>(gate_total) / (gate_wall_ms / 1000.0);
  std::cout << "streamed " << gate_total << " records in "
            << psl::util::fmt_double(gate_wall_ms, 0) << " ms ("
            << psl::util::fmt_double(gate_rps, 0) << " records/sec), state "
            << psl::util::fmt_double(static_cast<double>(snap.state_bytes) / (1 << 20), 1)
            << " MiB, unique hosts " << snap.unique_hosts << ", sites " << snap.sites_formed
            << ", third-party " << snap.third_party << ", dropped " << snap.dropped << "\n";

  bool gate_ok = true;
  const auto gate_check = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cout << "GATE VIOLATION: " << what << "\n";
      gate_ok = false;
    }
  };
  gate_check(snap.state_bytes <= kGateBudgetBytes,
             "state " + std::to_string(snap.state_bytes) + " bytes exceeds budget");
  gate_check(snap.records == gate_total, "records " + std::to_string(snap.records) +
                                             " != streamed " + std::to_string(gate_total));
  gate_check(snap.third_party == cycles * reference_third_party,
             "third_party " + std::to_string(snap.third_party) + " != " +
                 std::to_string(cycles * reference_third_party));
  gate_check(snap.first_party + snap.third_party == snap.records,
             "first+third != records");
  gate_check(snap.unique_hosts == referenced.size(),
             "unique_hosts " + std::to_string(snap.unique_hosts) + " != referenced " +
                 std::to_string(referenced.size()));
  gate_check(snap.dropped == 0, "default-size filters saturated on the smoke corpus");
  if (gate_ok) std::cout << "gate: OK\n";

  std::ofstream json("BENCH_analytics.json");
  json << "{\n";
  json << "  \"rule_count\": " << list.rules().size() << ",\n";
  json << "  \"corpus_requests\": " << records.size() << ",\n";
  json << "  \"records_per_cell\": " << records_per_cell << ",\n";
  json << "  \"client_connections\": " << clients << ",\n";
  json << "  \"hardware_threads\": " << hardware << ",\n";
  json << "  \"ingest_cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    json << "    {\"threads\": " << cell.threads << ", \"batch_size\": " << cell.batch
         << ", \"wall_ms\": " << psl::util::fmt_double(cell.wall_ms, 2)
         << ", \"records_per_sec\": " << psl::util::fmt_double(cell.rps, 1) << "}"
         << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"census_query_under_ingest\": {\"queries\": " << query_count
       << ", \"top_k\": 64, \"p50_ms\": " << psl::util::fmt_double(quantile(0.50), 3)
       << ", \"p95_ms\": " << psl::util::fmt_double(quantile(0.95), 3)
       << ", \"max_ms\": " << psl::util::fmt_double(census_ms.back(), 3) << "},\n";
  json << "  \"memory_gate\": {\"records\": " << gate_total
       << ", \"budget_bytes\": " << kGateBudgetBytes
       << ", \"state_bytes\": " << snap.state_bytes
       << ", \"wall_ms\": " << psl::util::fmt_double(gate_wall_ms, 2)
       << ", \"records_per_sec\": " << psl::util::fmt_double(gate_rps, 1)
       << ", \"unique_hosts\": " << snap.unique_hosts
       << ", \"sites_formed\": " << snap.sites_formed
       << ", \"third_party\": " << snap.third_party << ", \"dropped\": " << snap.dropped
       << ", \"ok\": " << (gate_ok ? "true" : "false") << "},\n";
  json << "  \"metrics\": " << psl::obs::to_json(metrics) << ",\n";
  psl::bench::emit_bench_delta(json);
  json << "\n}\n";
  std::cout << "wrote BENCH_analytics.json\n";
  return gate_ok ? 0 : 1;
}
