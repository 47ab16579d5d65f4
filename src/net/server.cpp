#include "psl/net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

#include "psl/analytics/census.hpp"
#include "psl/store/store.hpp"

namespace psl::net {

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// How long the listener stays parked after accept() hits fd exhaustion.
constexpr int kAcceptRetryMs = 100;

/// Level-triggered interest in `fd` (op = EPOLL_CTL_ADD or EPOLL_CTL_MOD).
void watch(int epoll_fd, int op, int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd, op, fd, &ev);
}

void unwatch(int epoll_fd, int fd) { ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr); }

/// count × match_batch-shaped entry (the match_batch and match_at bodies).
void put_match_entries(std::vector<std::uint8_t>& out, std::span<const MatchView> views) {
  for (const MatchView& view : views) {
    put_str16(out, view.public_suffix);
    put_str16(out, view.registrable_domain);
    const std::uint8_t flags = (view.matched_explicit_rule ? 1u : 0u) |
                               (view.section == Section::kPrivate ? 2u : 0u);
    put_u8(out, flags);
  }
}

/// The one encoder of status/detail responses: every answer that is not
/// kOk, from the loop thread and from the workers alike.
void append_status(std::vector<std::uint8_t>& out, FrameType type, std::uint32_t id,
                   Status status, std::string_view detail) {
  const std::size_t frame_begin = begin_response_frame(out, type, id);
  put_u8(out, static_cast<std::uint8_t>(status));
  put_str16(out, detail.substr(0, 512));
  end_frame(out, frame_begin);
}

}  // namespace

// --- connection + completion state ------------------------------------------

struct Server::Connection {
  Connection(std::uint64_t id_in, int fd_in, std::size_t max_frame_bytes)
      : id(id_in), fd(fd_in), decoder(max_frame_bytes) {}

  std::uint64_t id;
  int fd;
  FrameDecoder decoder;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::size_t inflight = 0;  ///< engine jobs whose responses are pending
  bool draining = false;
  bool subscribed = false;  ///< receives generation_changed pushes
  /// Last generation/rule count pushed (or implied by the subscribe reply);
  /// the next push carries rule_delta relative to pushed_rule_count.
  std::uint64_t pushed_generation = 0;
  std::uint64_t pushed_rule_count = 0;
  bool want_read = true;
  bool want_write = false;
  bool mid_frame = false;
  std::chrono::steady_clock::time_point last_activity;
  std::chrono::steady_clock::time_point frame_start;

  std::size_t pending_out() const noexcept { return out.size() - out_off; }
};

/// A finished engine batch: one fully encoded response frame plus enough
/// context to route and time it. Produced on engine workers, consumed on the
/// loop thread.
struct Server::Completion {
  std::uint64_t conn_id = 0;
  std::vector<std::uint8_t> frame;  ///< recycled via the buffer pool
  FrameType request_type = FrameType::kPing;
  std::chrono::steady_clock::time_point t0;
};

// --- lifecycle --------------------------------------------------------------

Server::Server(serve::Engine& engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {
  if (options_.metrics) {
    auto& m = *options_.metrics;
    connections_gauge_ = &m.gauge("net.connections");
    accepted_ = &m.counter("net.accepted");
    frames_in_ = &m.counter("net.frames_in");
    frames_out_ = &m.counter("net.frames_out");
    bytes_in_ = &m.counter("net.bytes_in");
    bytes_out_ = &m.counter("net.bytes_out");
    reject_backpressure_ = &m.counter("net.reject.backpressure");
    reject_malformed_ = &m.counter("net.reject.malformed");
    reject_max_conns_ = &m.counter("net.reject.max_conns");
    timeout_idle_ = &m.counter("net.timeout.idle");
    timeout_read_ = &m.counter("net.timeout.read");
    timeout_write_stall_ = &m.counter("net.timeout.write_stall");
    frame_errors_ = &m.counter("net.frame_errors");
    push_sent_ = &m.counter("net.push.sent");
    latency_ping_ = &m.histogram("net.request_ms.ping");
    latency_same_site_ = &m.histogram("net.request_ms.same_site");
    latency_match_ = &m.histogram("net.request_ms.match");
    latency_reload_ = &m.histogram("net.request_ms.reload");
    latency_stats_ = &m.histogram("net.request_ms.stats");
    latency_match_at_ = &m.histogram("net.request_ms.match_at");
    latency_divergence_ = &m.histogram("net.request_ms.divergence");
    latency_ingest_ = &m.histogram("net.request_ms.ingest");
    latency_census_ = &m.histogram("net.request_ms.census");
    analytics_ingest_records_ = &m.counter("analytics.ingest.records");
    analytics_ingest_dropped_ = &m.counter("analytics.ingest.dropped");
    analytics_census_queries_ = &m.counter("analytics.census.queries");
    analytics_hosts_gauge_ = &m.gauge("analytics.hosts.occupancy");
    analytics_sites_gauge_ = &m.gauge("analytics.sites.occupancy");
    analytics_pairs_gauge_ = &m.gauge("analytics.pairs.occupancy");
  }
}

Server::~Server() { shutdown(); }

util::Result<std::uint16_t> Server::start() {
  if (running_.load(std::memory_order_acquire)) {
    return util::make_error("net.started", "server is already running");
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return util::make_error("net.listen", "bad IPv4 bind address: " + options_.bind_address);
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return util::make_error("net.listen", errno_text("socket"));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (options_.reuse_port) {
    // Must be set on EVERY socket sharing the port, before bind — this is
    // the kernel's shard load-balancer (psld --shards).
    if (::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
      const auto err = util::make_error("net.listen", errno_text("setsockopt(SO_REUSEPORT)"));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return err;
    }
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 128) != 0 || !set_nonblocking(listen_fd_)) {
    const auto err = util::make_error("net.listen", errno_text("bind/listen"));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return err;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    const auto err = util::make_error("net.listen", errno_text("getsockname"));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return err;
  }
  port_ = ntohs(bound.sin_port);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    const auto err = util::make_error("net.listen", errno_text("pipe"));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return err;
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  set_nonblocking(wake_read_fd_);
  set_nonblocking(wake_write_fd_);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    const auto err = util::make_error("net.listen", errno_text("epoll_create1"));
    for (int* fd : {&wake_read_fd_, &wake_write_fd_, &listen_fd_}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
    return err;
  }
  watch(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, true, false);
  watch(epoll_fd_, EPOLL_CTL_ADD, wake_read_fd_, true, false);

  read_scratch_.resize(64 * 1024);
  stop_requested_.store(false, std::memory_order_release);

  // Arm the push channel: the engine's generation listener records the new
  // generation and wakes the loop, which broadcasts to subscribed
  // connections. The listener captures the shared state (not `this`), so an
  // invocation racing shutdown() cannot dangle; disarming under the mutex
  // guarantees no pipe write after the fd closes.
  push_state_ = std::make_shared<PushState>();
  push_state_->armed = true;
  push_state_->wake_fd = wake_write_fd_;
  engine_.set_generation_listener(
      [state = push_state_](std::uint64_t generation, const snapshot::Metadata& meta) {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (!state->armed) return;
        state->pending = true;
        state->generation = generation;
        state->rule_count = meta.rule_count;
        state->source_date_days = meta.source_date.days_since_epoch();
        const std::uint8_t byte = 1;
        (void)!::write(state->wake_fd, &byte, 1);  // EAGAIN = wakeup already pending
      });

  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { loop(); });
  return port_;
}

void Server::shutdown() {
  if (!running_.load(std::memory_order_acquire)) return;
  // Disarm the push channel first: clearing the engine listener stops new
  // invocations, and flipping `armed` under the mutex waits out any
  // listener mid-write so nothing touches the wake pipe once it closes.
  engine_.set_generation_listener(nullptr);
  if (push_state_) {
    std::lock_guard<std::mutex> lock(push_state_->mutex);
    push_state_->armed = false;
    push_state_->wake_fd = -1;
  }
  stop_requested_.store(true, std::memory_order_release);
  const std::uint8_t byte = 1;
  // A full pipe already guarantees a pending wakeup.
  (void)!::write(wake_write_fd_, &byte, 1);
  if (loop_thread_.joinable()) loop_thread_.join();

  // Engine jobs capture `this`; wait for every one of them to report back
  // (the engine's workers keep draining its queue, so this is finite)
  // before retiring the wake pipe and letting the server be destroyed.
  {
    std::unique_lock<std::mutex> lock(completion_mutex_);
    jobs_cv_.wait(lock, [this] { return outstanding_jobs_ == 0; });
    ::close(wake_write_fd_);
    wake_write_fd_ = -1;
  }
  ::close(wake_read_fd_);
  wake_read_fd_ = -1;
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(epoll_fd_);
  epoll_fd_ = -1;
  running_.store(false, std::memory_order_release);
}

std::size_t Server::connection_count() const {
  std::lock_guard<std::mutex> lock(conn_count_mutex_);
  return conn_count_;
}

// --- buffer pool ------------------------------------------------------------

std::vector<std::uint8_t> Server::acquire_buffer() {
  std::lock_guard<std::mutex> lock(buffer_pool_mutex_);
  if (buffer_pool_.empty()) return {};
  std::vector<std::uint8_t> buffer = std::move(buffer_pool_.back());
  buffer_pool_.pop_back();
  buffer.clear();
  return buffer;
}

void Server::release_buffer(std::vector<std::uint8_t> buffer) {
  std::lock_guard<std::mutex> lock(buffer_pool_mutex_);
  if (buffer_pool_.size() < 64) buffer_pool_.push_back(std::move(buffer));
}

// --- event loop -------------------------------------------------------------

void Server::loop() {
  using Clock = std::chrono::steady_clock;
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  bool draining = false;
  Clock::time_point drain_deadline{};

  for (;;) {
    const Clock::time_point now = Clock::now();

    if (stop_requested_.load(std::memory_order_acquire) && !draining) {
      draining = true;
      drain_deadline = now + std::chrono::milliseconds(options_.drain_timeout_ms);
      unwatch(epoll_fd_, listen_fd_);
      for (auto& [id, conn] : connections_) {
        conn->draining = true;
        update_read_interest(*conn);
      }
    }

    if (draining) {
      // Close connections with nothing left to deliver; exit once all are
      // gone or the drain bound expires (in-flight responses are then shed).
      std::vector<std::uint64_t> done;
      for (auto& [id, conn] : connections_) {
        if (conn->inflight == 0 && conn->pending_out() == 0) done.push_back(id);
      }
      for (const std::uint64_t id : done) close_connection(id);
      if (connections_.empty() || now >= drain_deadline) break;
    }

    // Enforce idle/read/write-stall timeouts before sleeping. The guards here
    // must stay in lockstep with next_timeout_ms: every deadline that call
    // reports has to be one this check can fire, or the loop busy-spins on a
    // deadline that never resolves.
    {
      std::vector<std::uint64_t> expired_idle, expired_read, expired_write;
      for (auto& [id, conn] : connections_) {
        if (options_.read_timeout_ms > 0 && conn->mid_frame &&
            now - conn->frame_start >= std::chrono::milliseconds(options_.read_timeout_ms)) {
          expired_read.push_back(id);
        } else if (options_.write_stall_timeout_ms > 0 && conn->pending_out() > 0 &&
                   now - conn->last_activity >=
                       std::chrono::milliseconds(options_.write_stall_timeout_ms)) {
          // last_activity advances on every successful send, so this fires
          // only when the peer has accepted nothing for the whole window.
          expired_write.push_back(id);
        } else if (options_.idle_timeout_ms > 0 && conn->inflight == 0 &&
                   conn->pending_out() == 0 &&
                   now - conn->last_activity >=
                       std::chrono::milliseconds(options_.idle_timeout_ms)) {
          expired_idle.push_back(id);
        }
      }
      for (const std::uint64_t id : expired_read) {
        if (timeout_read_) timeout_read_->add();
        close_connection(id);
      }
      for (const std::uint64_t id : expired_write) {
        if (timeout_write_stall_) timeout_write_stall_->add();
        close_connection(id);
      }
      for (const std::uint64_t id : expired_idle) {
        if (timeout_idle_) timeout_idle_->add();
        close_connection(id);
      }
    }

    // Un-park the listener once the fd-exhaustion backoff elapses.
    if (accept_paused_ && !draining && now >= accept_resume_at_) {
      accept_paused_ = false;
      watch(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, true, false);
    }

    int timeout_ms = next_timeout_ms(now);
    if (accept_paused_ && !draining) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(accept_resume_at_ - now).count();
      const int resume_left = static_cast<int>(std::max<long long>(0, left));
      timeout_ms = timeout_ms < 0 ? resume_left : std::min(timeout_ms, resume_left);
    }
    if (draining) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(drain_deadline - now).count();
      const int drain_left = static_cast<int>(std::max<long long>(0, left));
      timeout_ms = timeout_ms < 0 ? drain_left : std::min(timeout_ms, drain_left);
    }

    const int ready = std::max(0, ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms));

    // Drain the wake pipe BEFORE anything that can make a worker write to
    // it. Draining it mid-batch (after dispatching a connection's request)
    // could swallow a byte the worker wrote for a completion that
    // drain_completions() already missed this iteration — the next wait()
    // would then block indefinitely with that response stranded.
    for (int i = 0; i < ready; ++i) {
      if (events[i].data.fd != wake_read_fd_) continue;
      std::uint8_t sink[256];
      while (::read(wake_read_fd_, sink, sizeof sink) > 0) {
      }
      break;
    }
    drain_completions();
    broadcast_generation();

    bool accept_ready = false;
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t mask = events[i].events;
      if (fd == wake_read_fd_) continue;  // drained above
      if (fd == listen_fd_) {
        accept_ready = true;  // handled after existing connections, so a
        continue;             // just-closed fd cannot alias a fresh accept
      }
      auto it = fd_to_conn_.find(fd);
      if (it == fd_to_conn_.end()) continue;  // closed earlier this batch
      const std::uint64_t conn_id = it->second;
      Connection& conn = *connections_.at(conn_id);
      // EPOLLHUP counts as readable so the read path observes EOF.
      bool alive = (mask & EPOLLERR) == 0;
      if (alive && (mask & (EPOLLIN | EPOLLHUP)) != 0 && conn.want_read) {
        alive = handle_readable(conn);
      }
      if (alive && (mask & EPOLLOUT) != 0) alive = serve_buffered(conn);
      if (!alive) close_connection(conn_id);
    }
    if (accept_ready && !draining) handle_accept();
  }

  // Force-close whatever the drain bound left behind.
  while (!connections_.empty()) close_connection(connections_.begin()->first);
}

int Server::next_timeout_ms(std::chrono::steady_clock::time_point now) const {
  using std::chrono::milliseconds;
  std::chrono::steady_clock::time_point earliest{};
  bool have = false;
  // Only deadlines the expiry check can fire in the connection's CURRENT
  // state count. Reporting any other deadline (e.g. an idle deadline for a
  // write-stalled or inflight connection) would clamp the poll timeout to 0
  // once it passes and spin the loop at 100% CPU with nothing to do.
  for (const auto& [id, conn] : connections_) {
    if (options_.read_timeout_ms > 0 && conn->mid_frame) {
      const auto deadline = conn->frame_start + milliseconds(options_.read_timeout_ms);
      if (!have || deadline < earliest) earliest = deadline, have = true;
    }
    if (conn->pending_out() > 0) {
      if (options_.write_stall_timeout_ms > 0) {
        const auto deadline =
            conn->last_activity + milliseconds(options_.write_stall_timeout_ms);
        if (!have || deadline < earliest) earliest = deadline, have = true;
      }
    } else if (conn->inflight == 0 && options_.idle_timeout_ms > 0) {
      const auto deadline = conn->last_activity + milliseconds(options_.idle_timeout_ms);
      if (!have || deadline < earliest) earliest = deadline, have = true;
    }
  }
  if (!have) return -1;
  const auto left = std::chrono::duration_cast<milliseconds>(earliest - now).count();
  return static_cast<int>(std::clamp<long long>(left, 0, 60'000));
}

void Server::handle_accept() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
        // fd/buffer exhaustion: the backlog stays ready, so level-triggered
        // wakeups would hot-spin the loop. Park the listener and retry once
        // the backoff elapses (pending clients just wait in the backlog).
        unwatch(epoll_fd_, listen_fd_);
        accept_paused_ = true;
        accept_resume_at_ =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(kAcceptRetryMs);
      }
      return;  // EAGAIN or a transient accept error: try next wake
    }
    if (connections_.size() >= options_.max_connections) {
      if (reject_max_conns_) reject_max_conns_->add();
      ::close(fd);
      continue;
    }
    if (!set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    set_nodelay(fd);
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(id, fd, options_.max_frame_bytes);
    conn->last_activity = std::chrono::steady_clock::now();
    watch(epoll_fd_, EPOLL_CTL_ADD, fd, true, false);
    fd_to_conn_[fd] = id;
    connections_[id] = std::move(conn);
    if (accepted_) accepted_->add();
    {
      std::lock_guard<std::mutex> lock(conn_count_mutex_);
      conn_count_ = connections_.size();
    }
    if (connections_gauge_) connections_gauge_->set(static_cast<double>(connections_.size()));
  }
}

void Server::close_connection(std::uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  const int fd = it->second->fd;
  unwatch(epoll_fd_, fd);
  ::close(fd);
  fd_to_conn_.erase(fd);
  connections_.erase(it);
  {
    std::lock_guard<std::mutex> lock(conn_count_mutex_);
    conn_count_ = connections_.size();
  }
  if (connections_gauge_) connections_gauge_->set(static_cast<double>(connections_.size()));
}

bool Server::handle_readable(Connection& conn) {
  // One read per readiness. serve_buffered() leaves at most a partial frame
  // in the decoder whenever reading is allowed, so the decoder holds no more
  // than one read plus one frame; further input waits in the socket (the
  // epoll fd is level-triggered and reports it again).
  for (;;) {
    const ssize_t n = ::read(conn.fd, read_scratch_.data(), read_scratch_.size());
    if (n > 0) {
      if (bytes_in_) bytes_in_->add(n);
      conn.last_activity = std::chrono::steady_clock::now();
      conn.decoder.feed({read_scratch_.data(), static_cast<std::size_t>(n)});
      break;
    }
    if (n == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  return serve_buffered(conn);
}

bool Server::serve_buffered(Connection& conn) {
  Frame frame;
  bool held_back = false;
  bool answered = false;
  for (;;) {
    // The write-buffer bound: answer whole frames only while this
    // connection's unflushed output is at most max_frame_bytes. Frames past
    // the bound wait in the decoder until flushing brings the output back
    // under it (every flush path runs this function).
    held_back = false;
    for (;;) {
      if (conn.pending_out() > options_.max_frame_bytes) {
        held_back = true;
        break;
      }
      const FrameDecoder::Next got = conn.decoder.next(frame);
      if (got == FrameDecoder::Next::kNeedMore) break;
      if (got == FrameDecoder::Next::kError) {
        // The stream cannot be resynchronized past a bad header; drop it.
        if (frame_errors_) frame_errors_->add();
        return false;
      }
      if (frames_in_) frames_in_->add();
      dispatch_frame(conn, frame);
      answered = true;
    }
    if (!flush_writes(conn)) return false;
    if (!held_back || conn.pending_out() > options_.max_frame_bytes) break;
  }

  // Read-timeout bookkeeping: a partial frame left in the decoder once
  // every whole frame is answered is a started frame that must complete
  // within read_timeout_ms. It started now unless it is the same partial
  // frame as before (nothing was answered), so a peer streaming pipelined
  // frames whose reads keep ending mid-frame is never timed out. Frames
  // held back by the write bound are the write-stall timeout's business,
  // not the peer's slow sending.
  if (!held_back && conn.decoder.buffered() > 0) {
    if (!conn.mid_frame || answered) {
      conn.mid_frame = true;
      conn.frame_start = std::chrono::steady_clock::now();
    }
  } else {
    conn.mid_frame = false;
  }
  return true;
}

bool Server::flush_writes(Connection& conn) {
  while (conn.pending_out() > 0) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off, conn.pending_out(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      if (bytes_out_) bytes_out_->add(n);
      conn.out_off += static_cast<std::size_t>(n);
      // Send progress resets the write-stall clock (and the idle clock, as
      // reads already do) so only a peer accepting NOTHING gets stalled out.
      conn.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  if (conn.pending_out() == 0) {
    conn.out.clear();  // capacity kept: the steady-state no-alloc contract
    conn.out_off = 0;
    if (conn.want_write) {
      conn.want_write = false;
      watch(epoll_fd_, EPOLL_CTL_MOD, conn.fd, conn.want_read, false);
    }
  } else if (!conn.want_write) {
    conn.want_write = true;
    watch(epoll_fd_, EPOLL_CTL_MOD, conn.fd, conn.want_read, true);
  }
  update_read_interest(conn);
  return true;
}

void Server::update_read_interest(Connection& conn) {
  // Stop reading from peers that won't drain their responses (bounded
  // buffering), and from everyone once the server is draining.
  const bool want = !conn.draining && conn.pending_out() <= options_.max_frame_bytes;
  if (want != conn.want_read) {
    conn.want_read = want;
    watch(epoll_fd_, EPOLL_CTL_MOD, conn.fd, conn.want_read, conn.want_write);
  }
}

// --- request dispatch -------------------------------------------------------

void Server::respond_status(Connection& conn, FrameType type, std::uint32_t id, Status status,
                            std::string_view detail) {
  append_status(conn.out, type, id, status, detail);
  if (frames_out_) frames_out_->add();
}

void Server::respond_malformed(Connection& conn, FrameType type, std::uint32_t id,
                               std::string_view detail) {
  if (reject_malformed_) reject_malformed_->add();
  respond_status(conn, type, id, Status::kMalformed, detail);
}

void Server::append_stats_response(std::vector<std::uint8_t>& out, std::uint32_t id) {
  const std::size_t frame_begin = begin_response_frame(out, FrameType::kStats, id);
  put_u8(out, static_cast<std::uint8_t>(Status::kOk));
  const snapshot::Metadata meta = engine_.metadata();
  put_u64(out, engine_.generation());
  put_u64(out, meta.rule_count);
  put_u64(out, static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(meta.source_date.days_since_epoch())));
  put_u32(out, static_cast<std::uint32_t>(connections_.size()));
  put_u32(out, static_cast<std::uint32_t>(engine_.queue_depth()));
  // Analytics block: the SERVING generation's census (zeroed when
  // --analytics is off); census queries are server-lifetime.
  const auto census = engine_.census();
  put_u8(out, census ? 1 : 0);
  put_u64(out, census ? census->records() : 0);
  put_u64(out, census ? census->dropped() : 0);
  put_u64(out, census_queries_total_.load(std::memory_order_relaxed));
  put_u64(out, census ? census->state_bytes() : 0);
  end_frame(out, frame_begin);
}

// --- the hot frames: match_batch and same_site_batch ------------------------

void Server::append_hot_response(std::vector<std::uint8_t>& out, FrameType type,
                                 std::uint32_t id) {
  // One pinned State for the whole frame (batch-granular swap visibility),
  // answered through the inline cache slot. Every view the encoder reads
  // points into the request bytes or the pinned matcher's arena.
  engine_.run_inline([&](const serve::Engine::Pinned& pinned) {
    const std::size_t frame_begin = begin_response_frame(out, type, id);
    put_u8(out, static_cast<std::uint8_t>(Status::kOk));
    if (type == FrameType::kMatchBatch) {
      view_scratch_.resize(host_scratch_.size());
      pinned.match_batch(host_scratch_, view_scratch_);
      put_u32(out, static_cast<std::uint32_t>(host_scratch_.size()));
      put_match_entries(out, view_scratch_);
      engine_.count_queries(host_scratch_.size());
    } else {
      put_u32(out, static_cast<std::uint32_t>(pair_scratch_.size()));
      for (const auto& [a, b] : pair_scratch_) put_u8(out, pinned.same_site(a, b) ? 1 : 0);
      engine_.count_queries(pair_scratch_.size());
    }
    end_frame(out, frame_begin);
  });
}

void Server::observe_latency(FrameType request_type,
                             std::chrono::steady_clock::time_point t0) {
  obs::Histogram* sink = nullptr;
  switch (request_type) {
    case FrameType::kPing: sink = latency_ping_; break;
    case FrameType::kSameSiteBatch: sink = latency_same_site_; break;
    case FrameType::kMatchBatch: sink = latency_match_; break;
    case FrameType::kReload: sink = latency_reload_; break;
    case FrameType::kStats: sink = latency_stats_; break;
    case FrameType::kMatchAt: sink = latency_match_at_; break;
    case FrameType::kDivergence: sink = latency_divergence_; break;
    case FrameType::kIngestBatch: sink = latency_ingest_; break;
    case FrameType::kCensusQuery: sink = latency_census_; break;
    case FrameType::kSubscribe:
    case FrameType::kGenerationChanged: break;  // loop-thread only, not timed
  }
  if (!sink) return;
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  sink->observe(std::chrono::duration<double, std::milli>(elapsed).count());
}

void Server::dispatch_frame(Connection& conn, const Frame& frame) {
  const auto t0 = std::chrono::steady_clock::now();
  const FrameType type = static_cast<FrameType>(frame.header.type);
  const std::uint32_t id = frame.header.id;

  if (conn.draining) {
    respond_status(conn, type, id, Status::kShuttingDown, "server is draining");
    return;
  }

  switch (type) {
    case FrameType::kPing: {
      const std::size_t frame_begin = begin_response_frame(conn.out, type, id);
      put_u8(conn.out, static_cast<std::uint8_t>(Status::kOk));
      put_raw(conn.out, frame.payload);
      end_frame(conn.out, frame_begin);
      if (frames_out_) frames_out_->add();
      observe_latency(type, t0);
      return;
    }

    case FrameType::kStats: {
      append_stats_response(conn.out, id);
      if (frames_out_) frames_out_->add();
      observe_latency(type, t0);
      return;
    }

    case FrameType::kSubscribe: {
      if (!frame.payload.empty()) {
        respond_malformed(conn, type, id, "subscribe payload must be empty");
        return;
      }
      // Record what this peer now knows so the first push carries a
      // meaningful rule_delta and a generation it already saw is skipped.
      conn.subscribed = true;
      conn.pushed_generation = engine_.generation();
      conn.pushed_rule_count = engine_.metadata().rule_count;
      const std::size_t frame_begin = begin_response_frame(conn.out, type, id);
      put_u8(conn.out, static_cast<std::uint8_t>(Status::kOk));
      put_u64(conn.out, conn.pushed_generation);
      end_frame(conn.out, frame_begin);
      if (frames_out_) frames_out_->add();
      return;
    }

    case FrameType::kReload: {
      // Validation is keep-last-good inside the engine; running it on the
      // loop thread briefly pauses I/O but never the engine workers.
      auto swapped = engine_.reload_snapshot(frame.payload);
      if (swapped.ok()) {
        const std::size_t frame_begin = begin_response_frame(conn.out, type, id);
        put_u8(conn.out, static_cast<std::uint8_t>(Status::kOk));
        put_u64(conn.out, *swapped);
        end_frame(conn.out, frame_begin);
        if (frames_out_) frames_out_->add();
      } else {
        respond_status(conn, type, id, Status::kReloadRejected, swapped.error().code);
      }
      observe_latency(type, t0);
      return;
    }

    // The hot frames run to completion here, on the loop thread: one pinned
    // State per frame, answers encoded from the parse views (which point
    // into the decoder buffer) straight into conn.out. No request copy, no
    // queue, no worker, no wake-up. Their backpressure is the bounded write
    // buffer: serve_buffered() stops answering, and the loop stops reading,
    // while this connection's unflushed output is above max_frame_bytes.
    case FrameType::kSameSiteBatch:
    case FrameType::kMatchBatch: {
      const bool parsed = type == FrameType::kMatchBatch
                              ? parse_match_request(frame.payload, host_scratch_)
                              : parse_same_site_request(frame.payload, pair_scratch_);
      if (!parsed) {
        respond_malformed(conn, type, id,
                          type == FrameType::kMatchBatch ? "bad match_batch payload"
                                                         : "bad same_site_batch payload");
        return;
      }
      append_hot_response(conn.out, type, id);
      if (frames_out_) frames_out_->add();
      observe_latency(type, t0);
      return;
    }

    // The queued frames: work of unbounded cost (store time travel, census
    // ingest and queries) runs on the engine's workers through
    // submit_queued(). Each payload is validated here first, so a malformed
    // request answers at once and the worker-side re-parse cannot fail.
    case FrameType::kMatchAt: {
      std::int64_t date_days = 0;
      if (!parse_match_at_request(frame.payload, date_days, host_scratch_)) {
        respond_malformed(conn, type, id, "bad match_at payload");
        return;
      }
      submit_queued(conn, frame, t0, &Server::encode_match_at);
      return;
    }

    case FrameType::kDivergence: {
      std::string_view host;
      if (!parse_divergence_request(frame.payload, host)) {
        respond_malformed(conn, type, id, "bad divergence payload");
        return;
      }
      submit_queued(conn, frame, t0, &Server::encode_divergence);
      return;
    }

    case FrameType::kIngestBatch: {
      if (!parse_ingest_request(frame.payload, ingest_scratch_)) {
        respond_malformed(conn, type, id, "bad ingest_batch payload");
        return;
      }
      submit_queued(conn, frame, t0, &Server::encode_ingest);
      return;
    }

    case FrameType::kCensusQuery: {
      std::uint32_t top_k = 0;
      if (!parse_census_request(frame.payload, top_k)) {
        respond_malformed(conn, type, id, "bad census_query payload");
        return;
      }
      submit_queued(conn, frame, t0, &Server::encode_census);
      return;
    }

    case FrameType::kGenerationChanged:
      break;  // server-push only; a client sending it gets kUnsupported
  }

  respond_status(conn, type, id, Status::kUnsupported,
                 "unknown frame type " + std::to_string(frame.header.type));
}

// --- the queued frames: match_at, divergence, ingest_batch, census_query ----

void Server::submit_queued(Connection& conn, const Frame& frame,
                           std::chrono::steady_clock::time_point t0, QueuedEncoder encode) {
  const FrameType type = static_cast<FrameType>(frame.header.type);
  const std::uint32_t id = frame.header.id;
  // The payload is copied ONCE, into a pooled buffer the job owns; the
  // worker encodes the whole response frame into another pooled buffer and
  // hands it back through complete().
  std::vector<std::uint8_t> request = acquire_buffer();
  request.assign(frame.payload.begin(), frame.payload.end());
  const std::uint64_t conn_id = conn.id;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    ++outstanding_jobs_;
  }
  const auto enq = engine_.submit_job(
      [this, encode, conn_id, type, id, t0,
       request = std::move(request)](const serve::Engine::Pinned& pinned) mutable {
        std::vector<std::uint8_t> buf = acquire_buffer();
        const std::size_t frame_begin = begin_response_frame(buf, type, id);
        put_u8(buf, static_cast<std::uint8_t>(Status::kOk));
        const Outcome outcome = (this->*encode)(pinned, request, buf);
        if (outcome.status == Status::kOk) {
          end_frame(buf, frame_begin);
        } else {
          buf.resize(frame_begin);
          append_status(buf, type, id, outcome.status, outcome.detail);
        }
        if (frames_out_) frames_out_->add();
        release_buffer(std::move(request));
        complete(Completion{conn_id, std::move(buf), type, t0});
      });
  switch (enq) {
    case serve::Engine::Enqueue::kOk:
      ++conn.inflight;
      return;
    case serve::Engine::Enqueue::kBackpressure:
      if (reject_backpressure_) reject_backpressure_->add();
      respond_status(conn, type, id, Status::kBackpressure, "engine queue is full");
      break;
    case serve::Engine::Enqueue::kStopped:
      respond_status(conn, type, id, Status::kShuttingDown, "engine is stopped");
      break;
  }
  // The job was never enqueued; give back its reservation.
  std::lock_guard<std::mutex> lock(completion_mutex_);
  --outstanding_jobs_;
  jobs_cv_.notify_all();
}

// Version resolution and materialization run here, on the worker (a cold
// version may decode delta chains), so store-level errors are answers like
// any other.
Server::Outcome Server::encode_match_at(const serve::Engine::Pinned&,
                                        std::span<const std::uint8_t> request,
                                        std::vector<std::uint8_t>& out) {
  thread_local std::vector<std::string_view> hosts;
  thread_local std::vector<MatchView> views;
  std::int64_t days = 0;
  parse_match_at_request(request, days, hosts);  // validated on the loop thread
  if (days < INT32_MIN || days > INT32_MAX) return {Status::kMalformed, "store.no-version"};
  const auto snap = engine_.version_at(util::Date{static_cast<std::int32_t>(days)});
  if (!snap.ok()) {
    return {snap.error().code == "store.none" ? Status::kUnsupported : Status::kMalformed,
            snap.error().code};
  }
  views.resize(hosts.size());
  snap->matcher.match_batch(hosts, views);
  put_u64(out, static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(snap->meta.source_date.days_since_epoch())));
  put_u64(out, snap->meta.rule_count);
  put_u32(out, static_cast<std::uint32_t>(hosts.size()));
  put_match_entries(out, views);
  engine_.count_queries(hosts.size());
  return {};
}

Server::Outcome Server::encode_divergence(const serve::Engine::Pinned&,
                                          std::span<const std::uint8_t> request,
                                          std::vector<std::uint8_t>& out) {
  std::string_view host;
  parse_divergence_request(request, host);  // validated on the loop thread
  const auto ranges = engine_.divergence(host);
  if (!ranges.ok()) {
    return {ranges.error().code == "store.none" ? Status::kUnsupported : Status::kMalformed,
            ranges.error().code};
  }
  put_u32(out, static_cast<std::uint32_t>(ranges->size()));
  for (const store::DivergenceRange& r : *ranges) {
    put_u64(out, static_cast<std::uint64_t>(
                     static_cast<std::int64_t>(r.first_date.days_since_epoch())));
    put_u64(out, static_cast<std::uint64_t>(
                     static_cast<std::int64_t>(r.last_date.days_since_epoch())));
    put_str16(out, r.registrable_domain);
  }
  engine_.count_queries(1);
  return {};
}

Server::Outcome Server::encode_ingest(const serve::Engine::Pinned& pinned,
                                      std::span<const std::uint8_t> request,
                                      std::vector<std::uint8_t>& out) {
  if (!pinned.census) return {Status::kUnsupported, "analytics.none"};
  thread_local std::vector<WireIngestRecord> records;
  thread_local std::vector<analytics::CensusRecord> batch;
  parse_ingest_request(request, records);  // validated on the loop thread
  batch.clear();
  batch.reserve(records.size());
  for (const WireIngestRecord& r : records) {
    batch.push_back({r.page_host, r.resource_host, r.timestamp_ms});
  }
  // The whole batch lands in the pinned generation's census — that is the
  // ack's generation, and the atomicity contract.
  const analytics::IngestResult result =
      pinned.census->ingest(pinned.worker, pinned.matcher, batch);
  if (analytics_ingest_records_) {
    analytics_ingest_records_->add(static_cast<std::int64_t>(result.records));
  }
  if (analytics_ingest_dropped_ && result.dropped > 0) {
    analytics_ingest_dropped_->add(static_cast<std::int64_t>(result.dropped));
  }
  if (analytics_hosts_gauge_) {
    analytics_hosts_gauge_->set(static_cast<double>(pinned.census->unique_hosts()));
    analytics_sites_gauge_->set(static_cast<double>(pinned.census->sites_formed()));
    analytics_pairs_gauge_->set(static_cast<double>(pinned.census->reach_pairs()));
  }
  put_u64(out, pinned.generation);
  put_u32(out, result.records);
  return {};
}

Server::Outcome Server::encode_census(const serve::Engine::Pinned& pinned,
                                      std::span<const std::uint8_t> request,
                                      std::vector<std::uint8_t>& out) {
  if (!pinned.census) return {Status::kUnsupported, "analytics.none"};
  std::uint32_t top_k = 0;
  parse_census_request(request, top_k);  // validated on the loop thread
  analytics::CensusSnapshot snap = pinned.census->snapshot(top_k);
  WireCensus wire;
  wire.generation = pinned.generation;
  wire.records = snap.records;
  wire.first_party = snap.first_party;
  wire.third_party = snap.third_party;
  wire.unique_hosts = snap.unique_hosts;
  wire.sites_formed = snap.sites_formed;
  wire.misbound_hosts = snap.misbound_hosts;
  wire.dropped = snap.dropped;
  wire.first_timestamp_ms = snap.first_timestamp_ms;
  wire.last_timestamp_ms = snap.last_timestamp_ms;
  wire.state_bytes = snap.state_bytes;
  wire.etlds.reserve(snap.etlds.size());
  for (auto& row : snap.etlds) {
    wire.etlds.push_back({std::move(row.etld), row.misbound});
  }
  wire.trackers.reserve(snap.trackers.size());
  for (auto& row : snap.trackers) {
    wire.trackers.push_back(
        {std::move(row.domain), row.requests, row.requests_err, row.reach, row.reach_err});
  }
  put_census(out, wire);
  census_queries_total_.fetch_add(1, std::memory_order_relaxed);
  if (analytics_census_queries_) analytics_census_queries_->add();
  return {};
}

// --- completions (worker -> loop handoff) -----------------------------------

void Server::complete(Completion completion) {
  std::lock_guard<std::mutex> lock(completion_mutex_);
  completions_.push_back(std::move(completion));
  --outstanding_jobs_;
  jobs_cv_.notify_all();
  if (wake_write_fd_ >= 0) {
    const std::uint8_t byte = 1;
    (void)!::write(wake_write_fd_, &byte, 1);  // EAGAIN = wakeup already pending
  }
}

void Server::broadcast_generation() {
  WireGenerationChanged push;
  {
    std::lock_guard<std::mutex> lock(push_state_->mutex);
    if (!push_state_->pending) return;
    push_state_->pending = false;
    push.generation = push_state_->generation;
    push.rule_count = push_state_->rule_count;
    push.source_date_days = push_state_->source_date_days;
  }
  std::vector<std::uint64_t> dead;
  for (auto& [id, conn] : connections_) {
    if (!conn->subscribed || conn->draining) continue;
    // The subscribe reply (or a previous push) already told this peer about
    // this generation — e.g. it subscribed after the listener fired but
    // before this broadcast ran.
    if (conn->pushed_generation == push.generation) continue;
    push.rule_delta =
        static_cast<std::int64_t>(push.rule_count) -
        static_cast<std::int64_t>(conn->pushed_rule_count);
    // A push is not a response: no response bit, request id 0.
    const std::size_t frame_begin = begin_frame(conn->out, FrameType::kGenerationChanged, 0);
    put_generation_changed(conn->out, push);
    end_frame(conn->out, frame_begin);
    conn->pushed_generation = push.generation;
    conn->pushed_rule_count = push.rule_count;
    if (frames_out_) frames_out_->add();
    if (push_sent_) push_sent_->add();
    if (!serve_buffered(*conn)) dead.push_back(id);
  }
  for (const std::uint64_t id : dead) close_connection(id);
}

void Server::drain_completions() {
  std::vector<Completion> ready;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    ready.swap(completions_);
  }
  for (Completion& completion : ready) {
    auto it = connections_.find(completion.conn_id);
    if (it != connections_.end()) {
      Connection& conn = *it->second;
      if (conn.inflight > 0) --conn.inflight;
      conn.out.insert(conn.out.end(), completion.frame.begin(), completion.frame.end());
      conn.last_activity = std::chrono::steady_clock::now();
      observe_latency(completion.request_type, completion.t0);
      if (!serve_buffered(conn)) close_connection(completion.conn_id);
    }
    release_buffer(std::move(completion.frame));
  }
}

}  // namespace psl::net
