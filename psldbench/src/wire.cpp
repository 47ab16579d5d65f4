// The untraced run: a real psld driven over TCP by closed-loop net::Client
// connections, timed from outside the program.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench.hpp"
#include "oracle.hpp"
#include "stats.hpp"

namespace pb {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

bool compile_snapshot(const Prepared& prep, const std::string& work, std::size_t version,
                      const std::string& out) {
  const std::string list = work + "/v" + std::to_string(version) + ".txt";
  if (!write_file(list, prep.inputs.history.list_text(version))) return false;
  const int rc = run_to_completion({prep.psld, "compile", list, out}, work + "/compile.log");
  fs::remove(list);
  if (rc != 0) std::fprintf(stderr, "psldbench: psld compile failed (%d), see compile.log\n", rc);
  return rc == 0;
}

/// Build a store of `versions` (indices into the history) with psltool.
bool build_store(const Prepared& prep, const std::string& work_dir,
                 const std::vector<std::size_t>& versions, const std::string& out_path) {
  const std::string lists = work_dir + "/lists";
  fs::create_directories(lists);
  std::vector<std::string> argv = {prep.psltool, "store", "build", out_path};
  for (const std::size_t v : versions) {
    const std::string path = lists + "/v" + std::to_string(v) + ".txt";
    if (!write_file(path, prep.inputs.history.list_text(v))) return false;
    argv.push_back("--list");
    argv.push_back(prep.inputs.history.dates[v].to_string() + ":" + path);
  }
  const int rc = run_to_completion(argv, work_dir + "/store_build.log");
  fs::remove_all(lists);
  if (rc != 0) std::fprintf(stderr, "psldbench: psltool store build failed (%d)\n", rc);
  return rc == 0;
}

}  // namespace

std::unique_ptr<Prepared> prepare(const Options& options) {
  auto prep = std::make_unique<Prepared>(make_inputs(options.workload, options.seed));
  prep->cpus = split_cpus();
  prep->psld = options.bin_dir + "/psld";
  prep->psltool = options.bin_dir + "/psltool";
  for (const std::string& bin : {prep->psld, prep->psltool}) {
    if (::access(bin.c_str(), X_OK) != 0) {
      std::fprintf(stderr, "psldbench: %s is not an executable\n", bin.c_str());
      return nullptr;
    }
  }
  std::error_code ec;
  fs::create_directories(options.work_dir, ec);
  const History& hist = prep->inputs.history;
  const std::size_t V = hist.versions();
  prep->head_snapshot = options.work_dir + "/head.psnap";
  prep->prev_snapshot = options.work_dir + "/prev.psnap";
  if (!compile_snapshot(*prep, options.work_dir, V - 1, prep->head_snapshot) ||
      !compile_snapshot(*prep, options.work_dir, V - 2, prep->prev_snapshot)) {
    return nullptr;
  }
  prep->head_bytes = read_bytes(prep->head_snapshot);
  prep->prev_bytes = read_bytes(prep->prev_snapshot);
  prep->head = std::make_unique<psl::CompiledMatcher>(hist.list(V - 1));
  prep->prev = std::make_unique<psl::CompiledMatcher>(hist.list(V - 2));
  // time_travel serves it; every traced run measures the store layer on it.
  if (options.workload == Workload::kTimeTravel || options.trace) {
    std::vector<std::size_t> all(V);
    for (std::size_t v = 0; v < V; ++v) all[v] = v;
    prep->store = options.work_dir + "/history.pstore";
    if (!build_store(*prep, options.work_dir, all, prep->store)) return nullptr;
  }
  return prep;
}

namespace {

std::vector<std::string> serve_argv(const Options& options, const Prepared& prep) {
  std::vector<std::string> argv = {prep.psld, "--listen", "127.0.0.1:0"};
  if (options.workload == Workload::kTimeTravel) {
    argv.insert(argv.end(), {"--store", prep.store});
  } else {
    argv.insert(argv.end(), {"--snapshot", prep.head_snapshot});
  }
  if (options.workload == Workload::kChurnMixed) argv.push_back("--analytics");
  return argv;
}

}  // namespace

std::optional<Daemon> start_daemon(const Options& options, const Prepared& prep,
                                   const std::string& log_name) {
  std::string error;
  auto child = Child::spawn(serve_argv(options, prep), prep.cpus.server,
                            options.work_dir + "/" + log_name, error);
  if (!child) {
    std::fprintf(stderr, "psldbench: cannot start psld: %s\n", error.c_str());
    return std::nullopt;
  }
  const auto banner = child->wait_for_line("psld: serving generation", 60000);
  const auto port = banner ? banner_port(*banner) : std::nullopt;
  if (!port) {
    std::fprintf(stderr, "psldbench: psld did not come up; its log says:\n");
    for (const std::string& line : child->log_lines()) std::fprintf(stderr, "  %s\n", line.c_str());
    return std::nullopt;
  }
  return Daemon{*std::move(child), *port};
}

std::optional<psl::net::Client> connect_client(std::uint16_t port) {
  psl::net::ClientOptions client_options;
  client_options.connect_timeout_ms = 5000;
  client_options.io_timeout_ms = 20000;
  auto client = psl::net::Client::connect("127.0.0.1", port, client_options);
  if (!client.ok()) {
    std::fprintf(stderr, "psldbench: cannot connect to psld on port %u: %s (%s)\n", port,
                 client.error().message.c_str(), client.error().code.c_str());
    return std::nullopt;
  }
  return *std::move(client);
}

std::uint64_t send_request(psl::net::Client& client, const Request& req,
                           std::vector<std::string>& hosts,
                           std::vector<std::pair<std::string, std::string>>& pairs,
                           std::string& error) {
  hosts.assign(req.hosts.begin(), req.hosts.end());
  const auto fail = [&](const psl::util::Error& e) {
    error = e.code + ": " + e.message;
    return kNoAnswer;
  };
  switch (req.op) {
    case Op::kMatch: {
      auto r = client.match_batch(hosts);
      return r.ok() ? digest(*r) : fail(r.error());
    }
    case Op::kSameSite: {
      pairs.clear();
      for (const auto& [a, b] : req.pairs) pairs.emplace_back(a, b);
      auto r = client.same_site_batch(pairs);
      return r.ok() ? digest(*r) : fail(r.error());
    }
    case Op::kMatchAt: {
      auto r = client.match_at(psl::util::Date(static_cast<std::int32_t>(req.date_days)), hosts);
      return r.ok() ? digest(*r) : fail(r.error());
    }
    case Op::kDivergence: {
      auto r = client.divergence(hosts[0]);
      return r.ok() ? digest(*r) : fail(r.error());
    }
    case Op::kIngest: {
      auto r = client.ingest_batch(req.records);
      return r.ok() ? ingest_digest(r->accepted) : fail(r.error());
    }
  }
  return kNoAnswer;
}

namespace {

/// Exec to the first correct answer, plus the warm-up each workload needs
/// before its steady state: hot_small fills the same-site caches, and
/// time_travel materializes every stored version.
bool first_answer_and_warm(const Options& options, const Prepared& prep, std::uint16_t port,
                           psl::net::Client& client) {
  const Corpus& corpus = prep.inputs.corpus;
  Request probe;
  probe.op = Op::kMatch;
  for (std::size_t i = 0; i < 16; ++i) probe.hosts.push_back(corpus.hosts[i]);
  std::vector<std::string> hosts(probe.hosts.begin(), probe.hosts.end());
  const std::uint64_t want = expected_digest(*prep.head, probe);
  const History& hist = prep.inputs.history;
  if (options.workload == Workload::kTimeTravel) {
    auto r = client.match_at(hist.dates.back(), hosts);
    if (!r.ok() || digest(r->matches) != want) {
      std::fprintf(stderr, "psldbench: first match_at answer is %s\n",
                   r.ok() ? "wrong" : r.error().message.c_str());
      return false;
    }
    // Materialize every version, four connections at a time.
    constexpr std::size_t kWarmers = 4;
    std::atomic<bool> ok{true};
    std::vector<std::thread> warmers;
    for (std::size_t w = 0; w < kWarmers; ++w) {
      warmers.emplace_back([&, w] {
        auto warmer = connect_client(port);
        for (std::size_t v = w; ok && warmer && v < hist.versions(); v += kWarmers) {
          if (!warmer->match_at(hist.dates[v], {hosts[0]}).ok()) ok = false;
        }
        if (!warmer) ok = false;
      });
    }
    for (auto& t : warmers) t.join();
    return ok;
  }
  auto r = client.match_batch(hosts);
  if (!r.ok() || digest(*r) != want) {
    std::fprintf(stderr, "psldbench: first match_batch answer is %s\n",
                 r.ok() ? "wrong" : r.error().message.c_str());
    return false;
  }
  if (options.workload == Workload::kHotSmall) {
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < corpus.pairs.size(); i += 64) {
        pairs.clear();
        for (std::size_t j = i; j < std::min(i + 64, corpus.pairs.size()); ++j) {
          pairs.emplace_back(corpus.hosts[corpus.pairs[j].first], corpus.hosts[corpus.pairs[j].second]);
        }
        if (!client.same_site_batch(pairs).ok()) return false;
      }
    }
  }
  return true;
}

/// One load-generating connection. Its stream and answer log run on across
/// rounds, so no request repeats and the oracle sees one stream per lane.
struct Lane {
  ConnLog log;
  bool is_query = true;  ///< counts toward qps and the rtt percentiles
  /// churn_mixed's ingest lane: it sends its next batch only once the reads
  /// have answered as many pairs this round as it has sent records, so it
  /// ingests one record per read pair however fast psld answers.
  bool follows_reads = false;
  std::unique_ptr<Stream> stream;
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  // The current round only.
  std::vector<double> rtt_us;
  std::uint64_t round_queries = 0;
  Clock::time_point end{};
};

std::vector<Lane> lanes_for(const Inputs& inputs) {
  std::vector<Lane> lanes;
  const auto add = [&](Stream::Role role, std::uint32_t conn, bool is_query) {
    Lane l;
    l.log.role = role;
    l.log.conn = conn;
    l.is_query = is_query;
    l.stream = std::make_unique<Stream>(inputs, role, conn);
    lanes.push_back(std::move(l));
  };
  switch (inputs.workload) {
    case Workload::kHotSmall:
      add(Stream::Role::kHot, 0, true);
      add(Stream::Role::kHot, 1, true);
      break;
    case Workload::kBulkUnique:
      add(Stream::Role::kBulk, 0, true);
      add(Stream::Role::kBulk, 1, true);
      break;
    case Workload::kChurnMixed:
      add(Stream::Role::kChurnRead, 0, true);
      add(Stream::Role::kChurnIngest, 0, false);
      lanes.back().follows_reads = true;
      break;
    case Workload::kTimeTravel:
      add(Stream::Role::kTimeTravel, 0, true);
      add(Stream::Role::kTimeTravel, 1, true);
      break;
  }
  return lanes;
}

/// Rounds per run. Each round starts its own psld, so a run is not at the
/// mercy of one process's thread placement. On a shared host a neighbour's
/// load comes and goes within a run and shows as hypervisor steal; a round
/// with 15% steal ran 1.3-1.5x slower in latency and CPU per query than a
/// calm one. The latency and CPU metrics therefore come from the calm
/// rounds: those within kCalmSlack of the run's least steal, at least
/// kMinCounted of them.
constexpr int kRounds = 20;
constexpr double kCalmSlack = 0.01;
constexpr std::size_t kMinCounted = 5;

struct Round {
  double setup_s = 0;
  double elapsed_s = 0;
  std::uint64_t queries = 0;
  std::uint64_t ingested = 0;
  double cpu_s = 0;
  double peak_rss_mib = 0;
  std::vector<double> rtt_us;
  double steal_share = 0;  ///< hypervisor steal over the round, share of CPU time
  bool clean_exit = false;
};

struct Reloads {
  std::vector<double> ms;
  std::uint64_t failed = 0;
  std::string first_error;
};

/// What churn_mixed's reads have answered so far in the round; its ingest
/// and reload lanes pace themselves on it.
struct ReadProgress {
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> pairs{0};
};

/// Sleep in short steps until `ready()`; false when the deadline comes first.
template <typename Ready>
bool wait_for(Ready ready, Clock::time_point deadline) {
  while (!ready()) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

/// Set up a psld (timed), drive it for `window`, stop it.
bool run_round(const Options& options, const Prepared& prep, int index,
               std::chrono::nanoseconds window, std::vector<Lane>& lanes, Reloads& reloads,
               Round& round) {
  const auto t_exec = Clock::now();
  auto daemon = start_daemon(options, prep, "psld." + std::to_string(index) + ".log");
  if (!daemon) return false;
  {
    auto client = connect_client(daemon->port);
    if (!client || !first_answer_and_warm(options, prep, daemon->port, *client)) return false;
  }
  round.setup_s = seconds_since(t_exec);
  const pid_t pid = daemon->child.pid();

  const bool churn = options.workload == Workload::kChurnMixed;
  std::vector<psl::net::Client> clients;
  for (std::size_t i = 0; i < lanes.size() + (churn ? 1 : 0); ++i) {
    auto c = connect_client(daemon->port);
    if (!c) return false;
    clients.push_back(*std::move(c));
  }
  std::atomic<bool> go{false};
  Clock::time_point start{}, deadline{};
  ReadProgress progress;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    threads.emplace_back([&, i] {
      pin_current_thread(prep.cpus.generator);
      Lane& lane = lanes[i];
      lane.rtt_us.clear();
      lane.round_queries = 0;
      std::uint64_t sent = 0;
      Request req;
      std::vector<std::string> hosts;
      std::vector<std::pair<std::string, std::string>> pairs;
      std::string error;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (Clock::now() < deadline) {
        if (lane.follows_reads &&
            !wait_for([&] { return progress.pairs.load() >= sent + kIngestBatch; }, deadline)) {
          break;
        }
        lane.stream->next(req);
        const auto t0 = Clock::now();
        const std::uint64_t d = send_request(clients[i], req, hosts, pairs, error);
        const auto t1 = Clock::now();
        lane.rtt_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
        lane.log.digests.push_back(d);
        sent += req.queries();
        if (d == kNoAnswer) {
          ++lane.failed;
          if (lane.first_error.empty()) lane.first_error = error;
        } else {
          lane.round_queries += req.queries();
          if (churn && lane.is_query) progress.pairs += req.queries();
        }
        if (churn && lane.is_query) ++progress.frames;
      }
      lane.end = Clock::now();
    });
  }
  if (churn) {
    threads.emplace_back([&] {
      pin_current_thread(prep.cpus.generator);
      psl::net::Client& client = clients.back();
      const std::uint64_t every = churn_reload_every(prep.inputs.history);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t last_generation = 0;
      for (std::uint64_t i = 0;; ++i) {
        if (!wait_for([&] { return progress.frames.load() >= (i + 1) * every; }, deadline)) break;
        // psld boots on the newest vintage: flip to the previous one first.
        const auto& bytes = i % 2 == 0 ? prep.prev_bytes : prep.head_bytes;
        const auto t0 = Clock::now();
        auto r = client.reload(bytes);
        reloads.ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
        if (!r.ok() || *r <= last_generation) {
          ++reloads.failed;
          if (reloads.first_error.empty()) {
            reloads.first_error = r.ok() ? "generation did not advance" : r.error().message;
          }
        } else {
          last_generation = *r;
        }
      }
    });
  }
  const auto cpu0 = proc_cpu_seconds(pid);
  const auto steal0 = steal_seconds(prep.cpus.all);
  start = Clock::now();
  deadline = start + window;
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const auto cpu1 = proc_cpu_seconds(pid);
  const auto steal1 = steal_seconds(prep.cpus.all);
  const auto peak_rss = proc_peak_rss_mib(pid);
  clients.clear();
  round.clean_exit = daemon->child.terminate(10000);

  Clock::time_point end = start;
  for (Lane& lane : lanes) {
    end = std::max(end, lane.end);
    lane.queries += lane.round_queries;
    if (lane.is_query) {
      round.queries += lane.round_queries;
      round.rtt_us.insert(round.rtt_us.end(), lane.rtt_us.begin(), lane.rtt_us.end());
    } else {
      round.ingested += lane.round_queries;
    }
  }
  round.elapsed_s = std::chrono::duration<double>(end - start).count();
  if (round.queries == 0 || round.rtt_us.empty() || !cpu0 || !cpu1 || !peak_rss) {
    std::fprintf(stderr, "psldbench: no answers or no /proc counters from psld; refusing to report\n");
    return false;
  }
  round.cpu_s = *cpu1 - *cpu0;
  if (steal0 && steal1) {
    round.steal_share = (*steal1 - *steal0) /
                        (round.elapsed_s * static_cast<double>(prep.cpus.all.size()));
  }
  round.peak_rss_mib = *peak_rss;
  return true;
}

}  // namespace

bool run_wire(const Options& options, Prepared& prep, Result& result) {
  pin_current_thread(prep.cpus.generator);
  std::vector<Lane> lanes = lanes_for(prep.inputs);
  Reloads reloads;
  std::vector<Round> rounds(kRounds);
  const auto window = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(static_cast<double>(options.seconds) / kRounds));
  for (int i = 0; i < kRounds; ++i) {
    if (!run_round(options, prep, i, window, lanes, reloads, rounds[static_cast<std::size_t>(i)])) {
      return false;
    }
  }

  std::uint64_t failed = reloads.failed, attempted = reloads.ms.size(), ingested = 0;
  std::vector<ConnLog> logs;
  for (Lane& lane : lanes) {
    attempted += lane.log.digests.size();
    failed += lane.failed;
    if (!lane.first_error.empty()) {
      std::fprintf(stderr, "psldbench: request failed: %s\n", lane.first_error.c_str());
    }
    logs.push_back(std::move(lane.log));
  }
  if (!reloads.first_error.empty()) {
    std::fprintf(stderr, "psldbench: reload failed: %s\n", reloads.first_error.c_str());
  }
  bool clean_exit = true;
  std::vector<double> setup_s, rss, steal_share;
  double elapsed = 0;
  std::uint64_t queries = 0;
  for (const Round& r : rounds) {
    clean_exit &= r.clean_exit;
    setup_s.push_back(r.setup_s);
    rss.push_back(r.peak_rss_mib);
    elapsed += r.elapsed_s;
    queries += r.queries;
    ingested += r.ingested;
    steal_share.push_back(r.steal_share);
  }
  const std::vector<std::size_t> calm = calm_rounds(steal_share, kCalmSlack, kMinCounted);
  std::vector<double> qps, p50, p90, p99, cpu_ns, steal;
  std::size_t fewest = SIZE_MAX;
  std::string counted;
  for (const std::size_t i : calm) {
    const Round& r = rounds[i];
    counted += " " + std::to_string(i);
    steal.push_back(100.0 * r.steal_share);
    qps.push_back(static_cast<double>(r.queries) / r.elapsed_s);
    p50.push_back(percentile(r.rtt_us, 50));
    p90.push_back(percentile(r.rtt_us, 90));
    p99.push_back(percentile(r.rtt_us, 99));
    cpu_ns.push_back(r.cpu_s * 1e9 / static_cast<double>(r.queries));
    fewest = std::min(fewest, r.rtt_us.size());
  }
  if (!clean_exit) std::fprintf(stderr, "psldbench: psld did not drain and exit 0 on SIGTERM\n");

  // --- the oracle, after the window, on every CPU ------------------------------------
  pin_current_thread(prep.cpus.all);
  const Verdict verdict = verify(prep.inputs, {prep.head.get(), prep.prev.get()}, logs,
                                 static_cast<unsigned>(prep.cpus.all.size()));
  if (verdict.wrong != 0) {
    std::fprintf(stderr, "psldbench: %llu of %llu answers are WRONG; first: %s\n",
                 static_cast<unsigned long long>(verdict.wrong),
                 static_cast<unsigned long long>(verdict.checked), verdict.first_wrong.c_str());
  }
  result.correct = verdict.wrong == 0 && clean_exit;
  result.attempted = attempted;
  result.failed = failed;

  // Latency and CPU: the median over the calm rounds; the rest: the median
  // over all rounds.
  result.add("rtt_p50_us", median(p50), "us");
  result.add("server_cpu_ns_per_query", median(cpu_ns), "ns");
  result.add("server_rss_mib", median(rss), "MiB");
  result.add("setup_s", median(setup_s), "s");

  // Context the gate does not judge, printed before the result line.
  const auto list = [](const std::vector<double>& v, const char* fmt) {
    std::string out;
    char buf[64];
    for (const double x : v) {
      std::snprintf(buf, sizeof(buf), fmt, x);
      out += buf;
    }
    return out;
  };
  std::printf("report workload=%s seed=%llu nproc=%zu server_cpus=%s generator_cpus=%s%s\n",
              workload_name(options.workload), static_cast<unsigned long long>(options.seed),
              prep.cpus.all.size(), cpu_list(prep.cpus.server).c_str(),
              cpu_list(prep.cpus.generator).c_str(), prep.cpus.disjoint ? "" : " (shared: 1 cpu)");
  std::printf("report %d rounds of %.3f s, each on a fresh psld; queries=%llu answers_checked=%llu\n",
              kRounds, elapsed / kRounds, static_cast<unsigned long long>(queries),
              static_cast<unsigned long long>(verdict.checked));
  std::printf("report qps=%.1f 1/s rtt_p90_us=%.3f rtt_p99_us=%.3f (medians over the calm "
              "rounds; each round's percentiles from at least %zu frames; reported, not gated)\n",
              median(qps), median(p90), median(p99), fewest);
  std::vector<double> all_steal;
  for (const double share : steal_share) all_steal.push_back(100.0 * share);
  std::printf("report steal_pct per round:%s; calm rounds:%s\n", list(all_steal, " %.2f").c_str(),
              counted.c_str());
  std::printf("report calm rounds: steal_pct%s | qps%s | p50_us%s | p99_us%s | cpu_ns%s\n",
              list(steal, " %.2f").c_str(), list(qps, " %.0f").c_str(), list(p50, " %.2f").c_str(),
              list(p99, " %.1f").c_str(), list(cpu_ns, " %.0f").c_str());
  std::printf("report within-run spread (IQR/median over the calm rounds): rtt_p50_us %.4f, "
              "server_cpu_ns_per_query %.4f\n",
              relative_spread(p50), relative_spread(cpu_ns));
  std::printf("report all rounds: setup_s%s\n", list(setup_s, " %.4f").c_str());
  std::printf("report failed_frac=%.6g (failed %llu of %llu attempted frames)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  if (options.workload == Workload::kChurnMixed) {
    std::printf("report ingest_rps=%.1f 1/s (records accepted per second; %.3f records per read "
                "pair)\n",
                static_cast<double>(ingested) / elapsed,
                static_cast<double>(ingested) / static_cast<double>(queries));
    if (!reloads.ms.empty()) {
      std::printf("report reload_p50_ms=%.4f ms over %zu reloads (one per %llu read frames)\n",
                  median(reloads.ms), reloads.ms.size(),
                  static_cast<unsigned long long>(churn_reload_every(prep.inputs.history)));
    }
  }
  return true;
}

}  // namespace pb
