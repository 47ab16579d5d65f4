// psl::net::Server — the socket front-end over psl::serve::Engine.
//
// One event-loop thread owns every socket: a non-blocking IPv4 listener plus
// per-connection state machines (incremental FrameDecoder in, reusable write
// buffer out), multiplexed through one level-triggered epoll fd (the project
// is Linux-only). Work is split by cost:
//
//   * Hot frames run to completion on the loop thread. match_batch and
//     same_site_batch are bounded (a frame is at most max_frame_bytes of
//     hostnames) and cheap next to a thread hand-off, so the loop pins the
//     engine State once per frame (Engine::run_inline) and encodes the
//     answer straight into the connection's write buffer: no request copy,
//     no queue, no wake-up.
//   * Frames of unbounded cost — match_at and divergence (store time
//     travel), ingest_batch and census_query (analytics) — are handed to the
//     engine's worker pool via Engine::submit_job, all four through one
//     path (submit_queued) that differs only in its per-type encoder; the
//     worker builds the complete response frame off to the side and a
//     self-pipe wakes the loop to flush it, so a slow job never blocks
//     accepting, reading, or other connections' responses. Responses carry
//     the request id: a hot frame's answer can overtake a queued frame sent
//     before it on the same connection.
//
// Contracts worth naming:
//
//   * Backpressure is never unbounded buffering. For queued frames it is a
//     wire-level REJECT: when the engine queue is full, the client gets an
//     immediate Status::kBackpressure response for that request (counted in
//     net.reject.backpressure on top of the engine's serve.rejected) and the
//     connection stays healthy. Hot frames are never rejected; their bound
//     is the connection's write buffer. While a connection holds more than
//     max_frame_bytes of unflushed output the server answers none of its
//     buffered frames and stops reading from it, until the peer drains
//     responses — also when one read carried many pipelined frames.
//   * Frame-level violations (bad magic/version/flags, oversized length)
//     close the connection — the byte stream cannot be re-synchronized.
//     Payload-level violations answer Status::kMalformed and keep it open.
//   * Timeouts: a connection idle past idle_timeout_ms, stuck mid-frame past
//     read_timeout_ms, or sitting on undrained output with no send progress
//     for write_stall_timeout_ms (the peer stopped reading), is closed
//     (net.timeout.idle / net.timeout.read / net.timeout.write_stall). The
//     loop's poll timeout only tracks deadlines that can actually fire for a
//     connection's current state, so a stalled peer parks the loop instead
//     of spinning it.
//   * Push, not polling: a connection that sends subscribe (0x08) receives a
//     generation_changed (0x09) frame whenever a reload installs a new list
//     generation — it never has to poll stats. Pushes ride the same bounded
//     write buffers as responses, so a subscriber that stops reading is
//     closed by the write-stall timeout instead of buffered unboundedly.
//     Rapid consecutive reloads may coalesce into a single push carrying the
//     newest generation.
//   * Graceful drain: shutdown() stops accepting, lets in-flight queued
//     jobs finish and their responses flush (bounded by
//     drain_timeout_ms), then closes everything and joins the loop thread.
//     The destructor calls shutdown() if the caller did not.
//   * The steady-state decode/encode hot path performs no heap allocation:
//     decoder buffers, write buffers, scratch parse and match vectors, and
//     the queued frames' request/response buffers (a recycling pool shared
//     with the workers) all grow to a high-water mark once and are reused.
//
// obs instrumentation (when given a registry): gauge net.connections;
// counters net.accepted, net.frames_in, net.frames_out, net.bytes_in,
// net.bytes_out, net.reject.backpressure, net.reject.malformed,
// net.reject.max_conns, net.timeout.idle, net.timeout.read,
// net.timeout.write_stall, net.frame_errors, net.push.sent; histograms
// net.request_ms.{ping,same_site,match,reload,stats,ingest,census}
// (decode-to-response-enqueue latency per request type). With --analytics:
// counters analytics.ingest.records, analytics.ingest.dropped,
// analytics.census.queries; gauges analytics.{hosts,sites,pairs}.occupancy
// (the census's exact-aggregate filter fill levels, refreshed per ingest
// batch). The same numbers ride the stats frame's analytics block, so an
// uninstrumented deployment still sees them over the wire.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "psl/net/frame.hpp"
#include "psl/obs/metrics.hpp"
#include "psl/serve/engine.hpp"
#include "psl/util/result.hpp"

namespace psl::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";  ///< IPv4 dotted quad
  std::uint16_t port = 0;                  ///< 0 = ephemeral; see Server::port()
  std::size_t max_connections = 256;       ///< beyond this, accept-and-reject
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  int idle_timeout_ms = 30000;   ///< close connections with no traffic this long
  int read_timeout_ms = 10000;   ///< a started frame must complete this fast
  int write_stall_timeout_ms = 10000;  ///< pending output must make progress this fast
  int drain_timeout_ms = 5000;   ///< graceful-shutdown bound before force-close
  /// SO_REUSEPORT on the listener: N processes bind the same port and the
  /// kernel load-balances connections across them — the psld --shards
  /// fan-out. Every process on the port must set it.
  bool reuse_port = false;
  obs::MetricsRegistry* metrics = nullptr;  ///< optional; null = uninstrumented
};

class Server {
 public:
  /// The engine must outlive the server. Nothing is bound until start().
  Server(serve::Engine& engine, ServerOptions options = {});
  ~Server();  // shutdown() if still running
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn the event-loop thread. Returns the bound port
  /// (useful with port 0). Errors: net.listen (socket/bind/listen/epoll
  /// failure, message carries errno text), net.started (already running).
  util::Result<std::uint16_t> start();

  /// Graceful drain: stop accepting, finish in-flight batches and flush
  /// their responses (up to drain_timeout_ms), close, join. Idempotent.
  void shutdown();

  bool running() const noexcept { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const noexcept { return port_; }
  /// Open connections (tests; the live value is also the net.connections gauge).
  std::size_t connection_count() const;

 private:
  struct Connection;
  struct Completion;

  void loop();
  void handle_accept();
  bool handle_readable(Connection& conn);
  // Answer the decoder's whole frames while the write buffer is under its
  // bound, and flush; false = close the connection.
  bool serve_buffered(Connection& conn);
  bool flush_writes(Connection& conn);
  void dispatch_frame(Connection& conn, const Frame& frame);
  // The hot frames' one encoder: answers the request already parsed into
  // host_scratch_ (match) or pair_scratch_ (same_site).
  void append_hot_response(std::vector<std::uint8_t>& out, FrameType type, std::uint32_t id);
  void respond_status(Connection& conn, FrameType type, std::uint32_t id, Status status,
                      std::string_view detail);
  void respond_malformed(Connection& conn, FrameType type, std::uint32_t id,
                         std::string_view detail);  // counts net.reject.malformed
  void append_stats_response(std::vector<std::uint8_t>& out, std::uint32_t id);

  // The queued frames' one path. A per-type encoder runs on an engine
  // worker: it appends the OK body (everything after the status byte) for
  // the copied request to `out` and returns {}, or returns the status and
  // detail to answer instead.
  struct Outcome {
    Status status = Status::kOk;
    std::string detail;
  };
  using QueuedEncoder = Outcome (Server::*)(const serve::Engine::Pinned& pinned,
                                            std::span<const std::uint8_t> request,
                                            std::vector<std::uint8_t>& out);
  // Copy the payload, reserve an outstanding job, submit it and route its
  // response back through complete(); a refused submit answers
  // kBackpressure or kShuttingDown at once.
  void submit_queued(Connection& conn, const Frame& frame,
                     std::chrono::steady_clock::time_point t0, QueuedEncoder encode);
  Outcome encode_match_at(const serve::Engine::Pinned& pinned,
                          std::span<const std::uint8_t> request, std::vector<std::uint8_t>& out);
  Outcome encode_divergence(const serve::Engine::Pinned& pinned,
                            std::span<const std::uint8_t> request,
                            std::vector<std::uint8_t>& out);
  Outcome encode_ingest(const serve::Engine::Pinned& pinned, std::span<const std::uint8_t> request,
                        std::vector<std::uint8_t>& out);
  Outcome encode_census(const serve::Engine::Pinned& pinned, std::span<const std::uint8_t> request,
                        std::vector<std::uint8_t>& out);
  void complete(Completion completion);  // engine workers -> loop thread
  void drain_completions();
  void broadcast_generation();  // pending push -> subscribed connections
  void close_connection(std::uint64_t conn_id);
  int next_timeout_ms(std::chrono::steady_clock::time_point now) const;
  void observe_latency(FrameType request_type,
                       std::chrono::steady_clock::time_point t0);
  void update_read_interest(Connection& conn);

  // Recycled request/response buffers of queued frames, so steady-state
  // encoding allocates nothing once buffers reach high-water size.
  std::vector<std::uint8_t> acquire_buffer();
  void release_buffer(std::vector<std::uint8_t> buffer);

  serve::Engine& engine_;
  ServerOptions options_;
  std::uint16_t port_ = 0;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;   // self-pipe: workers/shutdown wake the loop
  int wake_write_fd_ = -1;
  int epoll_fd_ = -1;       // level-triggered readiness for every fd above
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  std::uint64_t next_conn_id_ = 1;
  // accept() hit fd exhaustion: the listener is parked until this instant so
  // level-triggered readiness cannot hot-spin the loop (loop thread only).
  bool accept_paused_ = false;
  std::chrono::steady_clock::time_point accept_resume_at_{};
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::unordered_map<int, std::uint64_t> fd_to_conn_;
  mutable std::mutex conn_count_mutex_;  // connection_count() from other threads
  std::size_t conn_count_ = 0;

  // Engine jobs capture `this`; shutdown() therefore blocks until every
  // submitted job has reported back (outstanding_jobs_ == 0) before the
  // server can be torn down — the engine's drain guarantee makes that wait
  // finite whichever of the two objects the caller destroys first.
  std::mutex completion_mutex_;
  std::condition_variable jobs_cv_;
  std::size_t outstanding_jobs_ = 0;
  std::vector<Completion> completions_;

  std::mutex buffer_pool_mutex_;
  std::vector<std::vector<std::uint8_t>> buffer_pool_;

  // The push channel (subscribe / generation_changed). The engine's
  // generation listener fires on whatever thread performed the reload; it
  // records the newest generation here and wakes the loop, which fans one
  // 0x09 frame out to every subscribed connection. The state is shared via
  // shared_ptr so a listener invocation racing shutdown() holds it alive;
  // disarming under the mutex guarantees no pipe write after shutdown
  // closes the fd. Rapid reloads may coalesce into one push — subscribers
  // always converge to the newest generation, not every intermediate one.
  struct PushState {
    std::mutex mutex;
    bool armed = false;    ///< loop alive and interested in wakeups
    bool pending = false;  ///< a generation change awaits broadcast
    std::uint64_t generation = 0;
    std::uint64_t rule_count = 0;
    std::int64_t source_date_days = 0;
    int wake_fd = -1;
  };
  std::shared_ptr<PushState> push_state_;

  // Loop-thread scratch (parse views point into the decoder buffer).
  std::vector<std::uint8_t> read_scratch_;
  std::vector<std::pair<std::string_view, std::string_view>> pair_scratch_;
  std::vector<std::string_view> host_scratch_;
  std::vector<MatchView> view_scratch_;
  std::vector<WireIngestRecord> ingest_scratch_;

  // census_query answers served over this server's lifetime (the stats
  // frame reports it even without a metrics registry).
  std::atomic<std::uint64_t> census_queries_total_{0};

  obs::Gauge* connections_gauge_ = nullptr;
  obs::Counter* accepted_ = nullptr;
  obs::Counter* frames_in_ = nullptr;
  obs::Counter* frames_out_ = nullptr;
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* bytes_out_ = nullptr;
  obs::Counter* reject_backpressure_ = nullptr;
  obs::Counter* reject_malformed_ = nullptr;
  obs::Counter* reject_max_conns_ = nullptr;
  obs::Counter* timeout_idle_ = nullptr;
  obs::Counter* timeout_read_ = nullptr;
  obs::Counter* timeout_write_stall_ = nullptr;
  obs::Counter* frame_errors_ = nullptr;
  obs::Counter* push_sent_ = nullptr;
  obs::Histogram* latency_ping_ = nullptr;
  obs::Histogram* latency_same_site_ = nullptr;
  obs::Histogram* latency_match_ = nullptr;
  obs::Histogram* latency_reload_ = nullptr;
  obs::Histogram* latency_stats_ = nullptr;
  obs::Histogram* latency_match_at_ = nullptr;
  obs::Histogram* latency_divergence_ = nullptr;
  obs::Histogram* latency_ingest_ = nullptr;
  obs::Histogram* latency_census_ = nullptr;
  obs::Counter* analytics_ingest_records_ = nullptr;
  obs::Counter* analytics_ingest_dropped_ = nullptr;
  obs::Counter* analytics_census_queries_ = nullptr;
  obs::Gauge* analytics_hosts_gauge_ = nullptr;
  obs::Gauge* analytics_sites_gauge_ = nullptr;
  obs::Gauge* analytics_pairs_gauge_ = nullptr;
};

}  // namespace psl::net
