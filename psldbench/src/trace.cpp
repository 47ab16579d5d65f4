// The traced run: the workload's request stream replayed through the public
// entry points of each layer, at deeper and deeper depths, with one span
// per call recorded in memory and written out at the end.
//
//   depth 0  L0  CompiledMatcher::match_view / match_batch, called directly
//   L1           Pinned::registrable_domains (the cached lookup) over every
//                host of the stream, inside Engine::submit_job
//   depth 1  L2  Engine::submit_job running what psld's worker runs for the
//                frame (Pinned helpers, store or census calls)
//   depth 2  L3  FrameDecoder + parse_* on the encoded request, put_* /
//                end_frame for the response
//   depth 3  L4  an in-process net::Server answering a net::Client
//
// A layer's self time is the difference between adjacent depths. Counts
// come from a real psld's /proc (syscalls, context switches), from the
// in-process engine's MetricsRegistry (serve.cache.*), and from this
// binary's allocation counter. L5, the store, the census and reload are
// measured beside the depths (see the README).
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <thread>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "oracle.hpp"
#include "psl/analytics/census.hpp"
#include "psl/net/server.hpp"
#include "psl/obs/metrics.hpp"
#include "psl/serve/engine.hpp"
#include "psl/store/store.hpp"
#include "stats.hpp"

namespace pb {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

// --- spans ---------------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t parent;  ///< id of the parent span, 0 for a root
  std::uint64_t request;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) { spans_.reserve(1 << 16); }

  /// Record [t0, t1) and return its id (for children).
  std::uint32_t record(const char* name, Clock::time_point t0, Clock::time_point t1,
                       std::uint32_t parent, std::uint64_t request) {
    spans_.push_back({name, ns(t0), ns(t1), parent, request});
    return static_cast<std::uint32_t>(spans_.size());
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "id\tname\tstart_ns\tend_ns\tparent\trequest\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i + 1 << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.parent
          << '\t' << s.request << '\n';
    }
    return static_cast<bool>(out);
  }
  std::size_t size() const noexcept { return spans_.size(); }

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Where timed loops leave their results, so the compiler keeps the work.
volatile std::size_t g_sink = 0;

// --- the replayed stream -----------------------------------------------------------

struct Frame {
  Stream::Role role;
  Request req;
  /// Hosts the matcher sees: req.hosts, or both sides of every pair.
  std::vector<std::string_view> hosts;
};

/// The first 2 * n frames of the workload's first connection (churn_mixed:
/// its read stream with one 256-record ingest frame after every 16 reads,
/// the wire run's one record per read pair). The first half warms every
/// layer up; the second half is measured.
std::vector<Frame> replay_frames(const Inputs& in, std::size_t n) {
  std::vector<Frame> frames;
  const auto take = [&](Stream& s, Stream::Role role) {
    Frame f{role, {}, {}};
    s.next(f.req);
    if (f.req.op == Op::kSameSite) {
      for (const auto& [a, b] : f.req.pairs) {
        f.hosts.push_back(a);
        f.hosts.push_back(b);
      }
    } else if (f.req.op != Op::kIngest) {
      f.hosts = f.req.hosts;
    }
    frames.push_back(std::move(f));
  };
  if (in.workload == Workload::kChurnMixed) {
    Stream reads(in, Stream::Role::kChurnRead, 0), ingest(in, Stream::Role::kChurnIngest, 0);
    for (std::size_t i = 0; i < 2 * n; ++i) {
      if (i % (kIngestBatch / kChurnBatch + 1) == kIngestBatch / kChurnBatch) {
        take(ingest, Stream::Role::kChurnIngest);
      } else {
        take(reads, Stream::Role::kChurnRead);
      }
    }
    return frames;
  }
  const Stream::Role role = in.workload == Workload::kHotSmall     ? Stream::Role::kHot
                            : in.workload == Workload::kBulkUnique ? Stream::Role::kBulk
                                                                   : Stream::Role::kTimeTravel;
  Stream s(in, role, 0);
  for (std::size_t i = 0; i < 2 * n; ++i) take(s, role);
  return frames;
}

/// Measured frames per workload: a few seconds of replay at every depth.
std::size_t replay_length(Workload w) {
  switch (w) {
    case Workload::kHotSmall: return 20000;
    case Workload::kBulkUnique: return 300;
    case Workload::kChurnMixed: return 4500;
    case Workload::kTimeTravel: return 3000;
  }
  return 1000;
}

/// Sums over the measured half of a depth.
struct Tally {
  double ns = 0;
  std::uint64_t frames = 0;
  std::uint64_t queries = 0;
  void add(Clock::time_point t0, Clock::time_point t1, std::uint64_t q) {
    ns += ns_between(t0, t1);
    ++frames;
    queries += q;
  }
  double per_frame_us() const { return frames ? ns / 1e3 / static_cast<double>(frames) : 0; }
  double per_query_ns() const { return queries ? ns / static_cast<double>(queries) : 0; }
};

/// What every depth replays, and where it records.
struct Replay {
  const Options& options;
  const Prepared& prep;
  const std::vector<Frame>& frames;
  std::size_t n;  ///< frames [0, n) warm up, [n, 2n) are measured
  Tracer& tracer;
  Result& result;
};

// --- depth 0: the matcher ------------------------------------------------------------

void depth0_matcher(Replay& r, Tally& view, Tally& batch) {
  const psl::CompiledMatcher& head = *r.prep.head;
  std::vector<psl::MatchView> views;
  std::size_t sink = 0;
  for (std::size_t i = 0; i < r.frames.size(); ++i) {
    const Frame& f = r.frames[i];
    if (f.hosts.empty()) continue;
    views.resize(f.hosts.size());
    const auto t0 = Clock::now();
    for (const auto h : f.hosts) sink += head.match_view(h).registrable_domain.size();
    const auto t1 = Clock::now();
    head.match_batch(f.hosts, views);
    const auto t2 = Clock::now();
    if (i < r.n) continue;
    r.tracer.record("l0.match_view", t0, t1, 0, i);
    r.tracer.record("l0.match_batch", t1, t2, 0, i);
    view.add(t0, t1, f.hosts.size());
    batch.add(t1, t2, f.hosts.size());
  }
  g_sink = sink;
}

// --- depth 1: the engine hand-off and the pinned helpers -------------------------------

struct EngineDepth {
  Tally job;         ///< inside the job: what psld's worker runs for the frame
  Tally round_trip;  ///< submit_job to completion, as the caller sees it
  std::vector<double> queue_wait_us, handoff_us;
};

/// Runs `job` on an engine worker and waits for it; false when refused.
template <typename Job>
bool run_on_worker(psl::serve::Engine& engine, Job&& job) {
  std::promise<void> done;
  const auto enq = engine.submit_job([&](const psl::serve::Engine::Pinned& p) {
    job(p);
    done.set_value();
  });
  if (enq != psl::serve::Engine::Enqueue::kOk) {
    std::fprintf(stderr, "psldbench: in-process engine refused a job\n");
    return false;
  }
  done.get_future().wait();
  return true;
}

/// L1: every host of every frame through Pinned::registrable_domains, the
/// cached lookup psld's same_site path uses. Timed inside the job; the hit
/// ratio comes from the engine's serve.cache.* counters over the measured
/// half. Fails rather than report a ratio of no lookups.
bool l1_cached_lookups(Replay& r, psl::serve::Engine& engine, psl::obs::MetricsRegistry& registry,
                       Tally& rd, double& hit_ratio) {
  auto& hits = registry.counter("serve.cache.hit");
  auto& misses = registry.counter("serve.cache.miss");
  std::int64_t hits0 = 0, misses0 = 0;
  std::vector<std::string_view> out;
  for (std::size_t i = 0; i < r.frames.size(); ++i) {
    if (i == r.n) {
      hits0 = hits.value();
      misses0 = misses.value();
    }
    const Frame& f = r.frames[i];
    if (f.hosts.empty()) continue;
    out.resize(f.hosts.size());
    Clock::time_point t0{}, t1{};
    if (!run_on_worker(engine, [&](const psl::serve::Engine::Pinned& p) {
          t0 = Clock::now();
          p.registrable_domains(f.hosts, out);
          t1 = Clock::now();
        })) {
      return false;
    }
    if (i < r.n) continue;
    r.tracer.record("l1.registrable_domains", t0, t1, 0, i);
    rd.add(t0, t1, f.hosts.size());
  }
  const auto h = static_cast<double>(hits.value() - hits0);
  const auto lookups = h + static_cast<double>(misses.value() - misses0);
  if (lookups <= 0) {
    std::fprintf(stderr, "psldbench: the cached lookups counted no cache lookups\n");
    return false;
  }
  hit_ratio = h / lookups;
  return true;
}

/// What psld's worker runs for the frame.
void run_job(psl::serve::Engine& engine, const psl::serve::Engine::Pinned& p, const Frame& f) {
  thread_local std::vector<psl::MatchView> views;
  switch (f.req.op) {
    case Op::kMatch:
      views.resize(f.hosts.size());
      p.match_batch(f.hosts, views);
      break;
    case Op::kSameSite:
      for (const auto& [a, b] : f.req.pairs) (void)p.same_site(a, b);
      break;
    case Op::kMatchAt: {
      auto snap = engine.version_at(psl::util::Date(static_cast<std::int32_t>(f.req.date_days)));
      if (snap.ok()) {
        views.resize(f.hosts.size());
        snap->matcher.match_batch(f.hosts, views);
      }
      break;
    }
    case Op::kDivergence:
      (void)engine.divergence(f.hosts[0]);
      break;
    case Op::kIngest: {
      thread_local std::vector<psl::analytics::CensusRecord> records;
      records.clear();
      for (const auto& rec : f.req.records) {
        records.push_back({rec.page_host, rec.resource_host, rec.timestamp_ms});
      }
      if (p.census) p.census->ingest(p.worker, p.matcher, records);
      break;
    }
  }
}

bool depth1_engine(Replay& r, psl::serve::Engine& engine, EngineDepth& out) {
  for (std::size_t i = 0; i < r.frames.size(); ++i) {
    const Frame& f = r.frames[i];
    Clock::time_point t_start{}, t_end{};
    const auto t_submit = Clock::now();
    if (!run_on_worker(engine, [&](const psl::serve::Engine::Pinned& p) {
          t_start = Clock::now();
          run_job(engine, p, f);
          t_end = Clock::now();
        })) {
      return false;
    }
    const auto t_done = Clock::now();
    if (i < r.n) continue;
    const std::uint32_t root = r.tracer.record("l2.submit_job", t_submit, t_done, 0, i);
    r.tracer.record("l2.job", t_start, t_end, root, i);
    out.job.add(t_start, t_end, f.req.queries());
    out.round_trip.add(t_submit, t_done, f.req.queries());
    out.queue_wait_us.push_back(ns_between(t_submit, t_start) / 1e3);
    out.handoff_us.push_back((ns_between(t_submit, t_done) - ns_between(t_start, t_end)) / 1e3);
  }
  return true;
}

// --- depth 2: the frame codec --------------------------------------------------------

struct CodecDepth {
  Tally decode, encode;
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

/// The client's encoding of a request frame (not timed: the caller's cost).
void encode_request(const Request& req, std::vector<std::uint8_t>& out) {
  namespace net = psl::net;
  out.clear();
  std::size_t begin = 0;
  switch (req.op) {
    case Op::kMatch:
      begin = net::begin_frame(out, net::FrameType::kMatchBatch, 1);
      net::put_u32(out, static_cast<std::uint32_t>(req.hosts.size()));
      for (const auto h : req.hosts) net::put_str16(out, h);
      break;
    case Op::kSameSite:
      begin = net::begin_frame(out, net::FrameType::kSameSiteBatch, 1);
      net::put_u32(out, static_cast<std::uint32_t>(req.pairs.size()));
      for (const auto& [a, b] : req.pairs) {
        net::put_str16(out, a);
        net::put_str16(out, b);
      }
      break;
    case Op::kMatchAt:
      begin = net::begin_frame(out, net::FrameType::kMatchAt, 1);
      net::put_u64(out, static_cast<std::uint64_t>(req.date_days));
      net::put_u32(out, static_cast<std::uint32_t>(req.hosts.size()));
      for (const auto h : req.hosts) net::put_str16(out, h);
      break;
    case Op::kDivergence:
      begin = net::begin_frame(out, net::FrameType::kDivergence, 1);
      net::put_str16(out, req.hosts[0]);
      break;
    case Op::kIngest:
      begin = net::begin_frame(out, net::FrameType::kIngestBatch, 1);
      net::put_u32(out, static_cast<std::uint32_t>(req.records.size()));
      for (const auto& rec : req.records) {
        net::put_str16(out, rec.page_host);
        net::put_str16(out, rec.resource_host);
        net::put_u64(out, rec.timestamp_ms);
      }
      break;
  }
  net::end_frame(out, begin);
}

/// Decode + parse each request the way psld's loop thread does, answer it
/// (untimed), and encode the response the way psld's worker does.
bool depth2_codec(Replay& r, const psl::store::StoreView& store, CodecDepth& out) {
  namespace net = psl::net;
  const psl::CompiledMatcher& head = *r.prep.head;
  const History& hist = r.prep.inputs.history;
  net::FrameDecoder decoder;
  std::vector<std::uint8_t> request, response;
  std::vector<std::string_view> hosts;
  std::vector<std::pair<std::string_view, std::string_view>> pairs;
  std::vector<net::WireIngestRecord> records;
  std::vector<psl::MatchView> views;
  std::vector<std::uint8_t> same;
  for (std::size_t i = 0; i < r.frames.size(); ++i) {
    const Frame& f = r.frames[i];
    encode_request(f.req, request);

    const std::uint64_t decode_allocs0 = allocation_count();
    const auto t0 = Clock::now();
    decoder.feed(request);
    net::Frame frame;
    if (decoder.next(frame) != net::FrameDecoder::Next::kFrame) return false;
    std::int64_t date = 0;
    std::string_view one;
    bool parsed = false;
    switch (f.req.op) {
      case Op::kMatch: parsed = net::parse_match_request(frame.payload, hosts); break;
      case Op::kSameSite: parsed = net::parse_same_site_request(frame.payload, pairs); break;
      case Op::kMatchAt: parsed = net::parse_match_at_request(frame.payload, date, hosts); break;
      case Op::kDivergence: parsed = net::parse_divergence_request(frame.payload, one); break;
      case Op::kIngest: parsed = net::parse_ingest_request(frame.payload, records); break;
    }
    const auto t1 = Clock::now();
    const std::uint64_t decode_allocs = allocation_count() - decode_allocs0;
    if (!parsed) return false;

    const psl::CompiledMatcher* m = &head;
    std::optional<psl::snapshot::Snapshot> version;
    if (f.req.op == Op::kMatchAt) {
      auto snap = store.open_at(psl::util::Date(static_cast<std::int32_t>(date)));
      if (!snap.ok()) return false;
      version.emplace(*std::move(snap));
      m = &version->matcher;
    }
    // Answer outside the timed windows; only the encoding is timed.
    views.resize(hosts.size());
    if (f.req.op == Op::kMatch || f.req.op == Op::kMatchAt) m->match_batch(hosts, views);
    same.clear();
    if (f.req.op == Op::kSameSite) {
      for (const auto& [a, b] : pairs) same.push_back(psl::same_site(head, a, b) ? 1 : 0);
    }
    const std::string_view one_rd =
        f.req.op == Op::kDivergence ? head.match_view(one).registrable_domain : std::string_view();

    const std::uint64_t encode_allocs0 = allocation_count();
    const auto t2 = Clock::now();
    response.clear();
    const std::size_t begin = net::begin_response_frame(
        response, static_cast<net::FrameType>(frame.header.type), 1);
    net::put_u8(response, static_cast<std::uint8_t>(net::Status::kOk));
    switch (f.req.op) {
      case Op::kMatchAt:
        net::put_u64(response,
                     static_cast<std::uint64_t>(version->meta.source_date.days_since_epoch()));
        net::put_u64(response, version->meta.rule_count);
        [[fallthrough]];
      case Op::kMatch:
        net::put_u32(response, static_cast<std::uint32_t>(hosts.size()));
        for (const auto& v : views) {
          net::put_str16(response, v.public_suffix);
          net::put_str16(response, v.registrable_domain);
          net::put_u8(response, (v.matched_explicit_rule ? 1u : 0u) |
                                    (v.section == psl::Section::kPrivate ? 2u : 0u));
        }
        break;
      case Op::kSameSite:
        net::put_u32(response, static_cast<std::uint32_t>(same.size()));
        for (const std::uint8_t bit : same) net::put_u8(response, bit);
        break;
      case Op::kDivergence:
        // One range stands for the answer: the encode cost is per range.
        net::put_u32(response, 1);
        net::put_u64(response, static_cast<std::uint64_t>(hist.dates.front().days_since_epoch()));
        net::put_u64(response, static_cast<std::uint64_t>(hist.dates.back().days_since_epoch()));
        net::put_str16(response, one_rd);
        break;
      case Op::kIngest:
        net::put_u64(response, 1);
        net::put_u32(response, static_cast<std::uint32_t>(records.size()));
        break;
    }
    net::end_frame(response, begin);
    const auto t3 = Clock::now();
    const std::uint64_t allocs = decode_allocs + allocation_count() - encode_allocs0;
    if (i < r.n) continue;
    const std::uint32_t root = r.tracer.record("l3.codec", t0, t3, 0, i);
    r.tracer.record("l3.decode", t0, t1, root, i);
    r.tracer.record("l3.encode", t2, t3, root, i);
    out.decode.add(t0, t1, f.req.queries());
    out.encode.add(t2, t3, f.req.queries());
    out.allocs += allocs;
    out.bytes += request.size() + response.size();
  }
  return true;
}

// --- depth 3: an in-process server on loopback ------------------------------------------

bool depth3_wire(Replay& r, psl::serve::Engine& engine, psl::obs::MetricsRegistry& registry,
                 Tally& wire) {
  psl::net::ServerOptions server_options;
  server_options.metrics = &registry;
  psl::net::Server server(engine, server_options);
  auto port = server.start();
  if (!port.ok()) {
    std::fprintf(stderr, "psldbench: in-process server: %s\n", port.error().message.c_str());
    return false;
  }
  auto client = connect_client(*port);
  if (!client) return false;
  std::vector<std::string> hosts;
  std::vector<std::pair<std::string, std::string>> pairs;
  std::string error;
  for (std::size_t i = 0; i < r.frames.size(); ++i) {
    const auto t0 = Clock::now();
    const std::uint64_t d = send_request(*client, r.frames[i].req, hosts, pairs, error);
    const auto t1 = Clock::now();
    if (i < r.n) continue;
    r.tracer.record("l4.round_trip", t0, t1, 0, i);
    wire.add(t0, t1, r.frames[i].req.queries());
    ++r.result.attempted;
    if (d == kNoAnswer) {
      ++r.result.failed;
      std::fprintf(stderr, "psldbench: in-process request failed: %s\n", error.c_str());
    }
  }
  client.reset();
  server.shutdown();
  return true;
}

// --- a real psld: syscalls and context switches per frame -------------------------------

struct PsldCounts {
  double reads_per_frame = 0, writes_per_frame = 0, ctx_per_frame = 0;
};

/// Replays the frames against a real psld, reading its /proc counters over
/// the measured half; the answers go to `logs` for the oracle.
bool real_psld(Replay& r, PsldCounts& out, std::vector<ConnLog>& logs) {
  auto daemon = start_daemon(r.options, r.prep, "trace_psld.log");
  if (!daemon) return false;
  auto client = connect_client(daemon->port);
  if (!client) return false;
  const auto log_of = [&](Stream::Role role) -> ConnLog& {
    for (ConnLog& l : logs) {
      if (l.role == role) return l;
    }
    logs.push_back(ConnLog{role, 0, {}});
    return logs.back();
  };
  std::vector<std::string> hosts;
  std::vector<std::pair<std::string, std::string>> pairs;
  std::string error;
  const pid_t pid = daemon->child.pid();
  std::optional<ProcIo> io0;
  std::optional<std::uint64_t> ctx0;
  for (std::size_t i = 0; i < r.frames.size(); ++i) {
    if (i == r.n) {
      io0 = proc_io(pid);
      ctx0 = proc_ctx_switches(pid);
    }
    const std::uint64_t d = send_request(*client, r.frames[i].req, hosts, pairs, error);
    log_of(r.frames[i].role).digests.push_back(d);
    ++r.result.attempted;
    if (d == kNoAnswer) ++r.result.failed;
  }
  const auto io1 = proc_io(pid);
  const auto ctx1 = proc_ctx_switches(pid);
  if (!io0 || !io1 || !ctx0 || !ctx1) {
    std::fprintf(stderr, "psldbench: cannot read /proc counters of psld\n");
    return false;
  }
  const auto measured = static_cast<double>(r.frames.size() - r.n);
  out.reads_per_frame = static_cast<double>(io1->syscr - io0->syscr) / measured;
  out.writes_per_frame = static_cast<double>(io1->syscw - io0->syscw) / measured;
  out.ctx_per_frame = static_cast<double>(*ctx1 - *ctx0) / measured;
  client.reset();
  if (!daemon->child.terminate(10000)) {
    std::fprintf(stderr, "psldbench: psld did not drain and exit 0 on SIGTERM\n");
    r.result.correct = false;
  }
  return true;
}

// --- L5: the shard fleet -------------------------------------------------------------------

struct FleetNumbers {
  double flip_ms = 0;
  double cpu_skew = 0;
};

bool shard_fleet(Replay& r, FleetNumbers& out) {
  const Prepared& prep = r.prep;
  const std::string snapshot = r.options.work_dir + "/fleet.psnap";
  fs::copy_file(prep.head_snapshot, snapshot, fs::copy_options::overwrite_existing);
  std::string error;
  auto fleet = Child::spawn({prep.psld, "--listen", "127.0.0.1:0", "--snapshot", snapshot,
                             "--shards", "2"},
                            prep.cpus.server, r.options.work_dir + "/fleet.log", error);
  if (!fleet) return false;
  const auto banner = fleet->wait_for_line("psld: serving generation", 60000);
  std::vector<pid_t> shards;
  for (const char* needle : {"psld: shard 0 serving", "psld: shard 1 serving"}) {
    const auto line = fleet->wait_for_line(needle, 60000);
    const std::size_t at = line ? line->rfind("pid ") : std::string::npos;
    if (at != std::string::npos) shards.push_back(static_cast<pid_t>(std::atol(line->c_str() + at + 4)));
  }
  const auto port = banner ? banner_port(*banner) : std::nullopt;
  if (!port || shards.size() != 2) {
    std::fprintf(stderr, "psldbench: the shard fleet did not come up\n");
    return false;
  }

  // Fleet flip: rename-publish the other vintage, SIGHUP the parent, and
  // time until every probe connection reports a newer generation. Which
  // shard a probe lands on is the kernel's choice.
  std::vector<psl::net::Client> probes;
  for (int c = 0; c < 8; ++c) {
    auto client = connect_client(*port);
    if (!client) return false;
    probes.push_back(*std::move(client));
  }
  std::vector<double> flips;
  for (int flip = 0; flip < 6; ++flip) {
    std::vector<std::uint64_t> before;
    for (auto& p : probes) {
      auto s = p.stats();
      if (!s.ok()) return false;
      before.push_back(s->generation);
    }
    const std::string staged = snapshot + ".next";
    {
      const auto& bytes = flip % 2 == 0 ? prep.prev_bytes : prep.head_bytes;
      std::ofstream staging(staged, std::ios::binary);
      staging.write(reinterpret_cast<const char*>(bytes.data()),
                    static_cast<std::streamsize>(bytes.size()));
    }
    fs::rename(staged, snapshot);
    const auto t0 = Clock::now();
    ::kill(fleet->pid(), SIGHUP);
    for (std::size_t c = 0; c < probes.size(); ++c) {
      for (;;) {
        auto s = probes[c].stats();
        if (!s.ok()) return false;
        if (s->generation > before[c]) break;
        if (ns_between(t0, Clock::now()) > 10e9) {
          std::fprintf(stderr, "psldbench: fleet flip did not reach every shard in 10 s\n");
          return false;
        }
      }
    }
    flips.push_back(ns_between(t0, Clock::now()) / 1e6);
  }
  out.flip_ms = median(flips);
  probes.clear();

  // Shard CPU skew: 4 connections replay the measured frames for 1 s. The
  // fleet serves a snapshot (no store, no census), so store and ingest
  // frames go as match_batch of their hosts.
  std::vector<double> cpu0;
  for (pid_t pid : shards) cpu0.push_back(proc_cpu_seconds(pid).value_or(0));
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::thread> replayers;
  const auto stop = Clock::now() + std::chrono::seconds(1);
  for (std::size_t c = 0; c < 4; ++c) {
    replayers.emplace_back([&, c] {
      pin_current_thread(prep.cpus.generator);
      auto client = connect_client(*port);
      if (!client) {
        ++failed;
        return;
      }
      std::vector<std::string> hosts;
      std::vector<std::pair<std::string, std::string>> pairs;
      std::string error;
      Request as_match;
      for (std::size_t k = c; Clock::now() < stop; ++k) {
        const Frame& f = r.frames[r.n + k % r.n];
        const bool snapshot_op = f.req.op == Op::kMatch || f.req.op == Op::kSameSite;
        if (!snapshot_op && f.hosts.empty()) continue;
        if (!snapshot_op) as_match.hosts = f.hosts;
        if (send_request(*client, snapshot_op ? f.req : as_match, hosts, pairs, error) ==
            kNoAnswer) {
          ++failed;
        }
      }
    });
  }
  for (auto& t : replayers) t.join();
  std::vector<double> used;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    used.push_back(proc_cpu_seconds(shards[s]).value_or(cpu0[s]) - cpu0[s]);
  }
  const double mean_used = (used[0] + used[1]) / 2;
  out.cpu_skew = mean_used > 0 ? std::max(used[0], used[1]) / mean_used : 0;
  std::printf("report l5 shard cpu seconds: %.3f %.3f\n", used[0], used[1]);
  if (failed != 0) {
    std::fprintf(stderr, "psldbench: %llu fleet requests failed\n",
                 static_cast<unsigned long long>(failed.load()));
    r.result.failed += failed;
  }
  fleet->terminate(10000);
  return true;
}

// --- beside the depths: the store, the census, reload ------------------------------------------

/// StoreView::open_at with every version warm, then matching on the result.
/// Frames without a date (all but match_at) take a seeded uniform date.
bool store_layer(Replay& r, const psl::store::StoreView& view, Tally& open, Tally& match) {
  for (std::size_t v = 0; v < view.version_count(); ++v) {
    if (!view.open_version(v).ok()) return false;
  }
  const auto first = view.version_date(0).days_since_epoch();
  const auto span = view.version_date(view.version_count() - 1).days_since_epoch() - first;
  Rng rng(derive(r.prep.inputs.seed, 9));
  std::size_t sink = 0;
  for (std::size_t i = r.n; i < r.frames.size(); ++i) {
    const Frame& f = r.frames[i];
    if (f.hosts.empty()) continue;
    const std::int64_t date = f.req.op == Op::kMatchAt
                                  ? f.req.date_days
                                  : first + static_cast<std::int64_t>(rng.below(span + 1));
    const auto t0 = Clock::now();
    auto snap = view.open_at(psl::util::Date(static_cast<std::int32_t>(date)));
    const auto t1 = Clock::now();
    if (!snap.ok()) return false;
    for (const auto h : f.hosts) sink += snap->matcher.match_view(h).public_suffix.size();
    const auto t2 = Clock::now();
    r.tracer.record("store.open_at", t0, t1, 0, i);
    r.tracer.record("store.match_at", t1, t2, 0, i);
    open.add(t0, t1, 1);
    match.add(t1, t2, f.hosts.size());
  }
  g_sink = sink;
  return true;
}

/// Census::ingest of 256-record batches: churn_mixed's ingest frames, or
/// another workload's hosts taken pairwise as (page, resource).
Tally census_layer(Replay& r) {
  psl::analytics::Census census(psl::analytics::CensusOptions{}, 1);
  Tally ingest;
  std::vector<psl::analytics::CensusRecord> batch;
  std::uint64_t ts = 1600000000000ull;
  const auto flush = [&](std::size_t i) {
    const auto t0 = Clock::now();
    census.ingest(0, *r.prep.head, batch);
    const auto t1 = Clock::now();
    if (i >= r.n) {
      r.tracer.record("analytics.ingest", t0, t1, 0, i);
      ingest.add(t0, t1, batch.size());
    }
    batch.clear();
  };
  for (std::size_t i = 0; i < r.frames.size(); ++i) {
    const Frame& f = r.frames[i];
    if (f.req.op == Op::kIngest) {
      for (const auto& rec : f.req.records) {
        batch.push_back({rec.page_host, rec.resource_host, rec.timestamp_ms});
      }
    } else {
      for (std::size_t h = 0; h + 1 < f.hosts.size(); h += 2) {
        batch.push_back({f.hosts[h], f.hosts[h + 1], ts++});
      }
      if (f.hosts.size() == 1) batch.push_back({f.hosts[0], f.hosts[0], ts++});
    }
    if (batch.size() >= kIngestBatch || (i + 1 == r.n && !batch.empty())) flush(i);
  }
  if (!batch.empty()) flush(r.frames.size());
  return ingest;
}

/// Engine::reload_snapshot, alternating the two newest vintages.
bool reload_layer(Replay& r, psl::serve::Engine& engine, std::vector<double>& ms) {
  for (int k = 0; k < 16; ++k) {
    const auto& bytes = k % 2 == 0 ? r.prep.prev_bytes : r.prep.head_bytes;
    const auto t0 = Clock::now();
    const bool ok = engine.reload_snapshot(bytes).ok();
    const auto t1 = Clock::now();
    if (!ok) return false;
    r.tracer.record("serve.reload", t0, t1, 0, static_cast<std::uint64_t>(k));
    ms.push_back(ns_between(t0, t1) / 1e6);
  }
  return true;
}

/// What recording one span costs (a clock read plus the append), from a
/// scratch tracer that grows from the same reservation as the real one.
double span_cost_ns() {
  Tracer scratch(Clock::now());
  constexpr int kSpans = 1 << 18;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    const auto t = Clock::now();
    scratch.record("calibrate", t, t, 0, static_cast<std::uint64_t>(i));
  }
  return ns_between(t0, Clock::now()) / kSpans;
}

}  // namespace

bool run_trace(const Options& options, Prepared& prep, Result& result) {
  pin_current_thread(prep.cpus.generator);
  const Inputs& in = prep.inputs;
  const std::size_t n = replay_length(options.workload);
  const std::vector<Frame> frames = replay_frames(in, n);
  Tracer tracer(Clock::now());
  Replay r{options, prep, frames, n, tracer, result};

  // The engine and the store layer read the store of every vintage; its
  // newest version is head, the snapshot the engine serves.
  auto store = psl::store::StoreView::open(prep.store);
  auto snapshot = psl::snapshot::load_file(prep.head_snapshot);
  if (!store.ok() || !snapshot.ok()) {
    std::fprintf(stderr, "psldbench: cannot open the generated store or snapshot\n");
    return false;
  }

  const auto t_traced = Clock::now();
  Tally l0_view, l0_batch;
  depth0_matcher(r, l0_view, l0_batch);

  // psld's engine, in process: default workers and cache, the census when
  // psld would carry one, and the store (whose newest version is head).
  psl::obs::MetricsRegistry registry;
  psl::serve::EngineOptions engine_options;
  engine_options.metrics = &registry;
  if (options.workload == Workload::kChurnMixed) {
    engine_options.census_factory = psl::analytics::census_factory({});
  }
  psl::serve::Engine engine(*std::move(snapshot), engine_options);
  if (!engine.adopt_store(*store).ok()) return false;

  Tally l1_rd;
  double cache_hit_ratio = 0;
  EngineDepth l12;
  CodecDepth l3;
  Tally l4_wire;
  PsldCounts counts;
  FleetNumbers fleet;
  Tally store_open, store_match;
  std::vector<double> reload_ms;
  std::vector<ConnLog> logs;
  if (!l1_cached_lookups(r, engine, registry, l1_rd, cache_hit_ratio) ||
      !depth1_engine(r, engine, l12) || !depth2_codec(r, **store, l3) ||
      !depth3_wire(r, engine, registry, l4_wire) || !real_psld(r, counts, logs) ||
      !shard_fleet(r, fleet) || !store_layer(r, **store, store_open, store_match)) {
    return false;
  }
  const Tally ingest = census_layer(r);
  if (!reload_layer(r, engine, reload_ms)) return false;
  const double traced_ns = ns_between(t_traced, Clock::now());
  const double span_ns = span_cost_ns();

  pin_current_thread(prep.cpus.all);
  const Verdict verdict = verify(in, {prep.head.get(), prep.prev.get()}, logs,
                                 static_cast<unsigned>(prep.cpus.all.size()));
  if (verdict.wrong != 0) {
    std::fprintf(stderr, "psldbench: %llu of %llu answers are WRONG; first: %s\n",
                 static_cast<unsigned long long>(verdict.wrong),
                 static_cast<unsigned long long>(verdict.checked), verdict.first_wrong.c_str());
    result.correct = false;
  }
  const std::string spans_path = options.work_dir + "/spans.tsv";
  tracer.write(spans_path);

  const auto measured = static_cast<double>(frames.size() - n);
  const double codec_us = (l3.decode.ns + l3.encode.ns) / 1e3 / measured;
  result.add("l0.match_view_ns", l0_view.per_query_ns(), "ns");
  result.add("l0.match_batch_ns", l0_batch.per_query_ns(), "ns");
  result.add("l1.pinned_rd_ns", l1_rd.per_query_ns(), "ns");
  result.add("l1.cache_hit_ratio", cache_hit_ratio, "ratio");
  result.add("l2.queue_wait_us", median(l12.queue_wait_us), "us");
  result.add("l2.handoff_us", median(l12.handoff_us), "us");
  result.add("l2.ctx_switches_per_frame", counts.ctx_per_frame, "count");
  result.add("l3.decode_ns_per_host", l3.decode.per_query_ns(), "ns");
  result.add("l3.encode_ns_per_host", l3.encode.per_query_ns(), "ns");
  result.add("l3.allocs_per_frame", static_cast<double>(l3.allocs) / measured, "count");
  result.add("l3.bytes_per_query",
             static_cast<double>(l3.bytes) / static_cast<double>(l3.decode.queries), "B");
  result.add("l4.wire_overhead_us",
             l4_wire.per_frame_us() - l12.round_trip.per_frame_us() - codec_us, "us");
  result.add("l4.read_syscalls_per_frame", counts.reads_per_frame, "count");
  result.add("l4.write_syscalls_per_frame", counts.writes_per_frame, "count");
  result.add("l5.fleet_flip_ms", fleet.flip_ms, "ms");
  result.add("l5.shard_cpu_skew", fleet.cpu_skew, "ratio");
  result.add("store.open_at_ns", store_open.ns / static_cast<double>(store_open.frames), "ns");
  result.add("store.match_at_ns", store_match.per_query_ns(), "ns");
  result.add("analytics.ingest_ns_per_record", ingest.per_query_ns(), "ns");
  result.add("serve.reload_ms", median(reload_ms), "ms");
  // Tracing's share of the traced run: spans recorded times what one costs,
  // over the wall time of the replays that recorded them.
  result.add("trace.overhead_pct",
             100.0 * static_cast<double>(tracer.size()) * span_ns / traced_ns, "%");

  std::printf("report workload=%s seed=%llu traced replay: %zu warm-up + %zu measured frames, "
              "%zu spans in %s\n",
              workload_name(options.workload), static_cast<unsigned long long>(options.seed), n,
              frames.size() - n, tracer.size(), spans_path.c_str());
  std::printf("report depth means per frame: engine %.3f us, codec %.3f us, in-process wire "
              "%.3f us; %.1f ns per span over %.3f s of traced replay; answers_checked=%llu\n",
              l12.round_trip.per_frame_us(), codec_us, l4_wire.per_frame_us(), span_ns,
              traced_ns / 1e9, static_cast<unsigned long long>(verdict.checked));
  return true;
}

}  // namespace pb
