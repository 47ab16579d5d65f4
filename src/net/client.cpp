#include "psl/net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fcntl.h>

namespace psl::net {

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void set_timeout(int fd, int which, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof tv);
}

util::Error status_error(Status status, std::string_view detail) {
  switch (status) {
    case Status::kBackpressure:
      return util::make_error("net.backpressure", "server rejected the batch: engine queue full");
    case Status::kMalformed:
      return util::make_error("net.malformed", "server could not parse the request payload");
    case Status::kUnsupported:
      return util::make_error("net.unsupported",
                              detail.empty() ? "server does not support this frame type"
                                             : std::string(detail));
    case Status::kReloadRejected:
      return util::make_error("net.reload-rejected",
                              "reload refused, previous list keeps serving: " +
                                  std::string(detail));
    case Status::kShuttingDown:
      return util::make_error("net.stopped", "server is draining");
    case Status::kOk:
      break;
  }
  return util::make_error("net.protocol", "unknown response status");
}

}  // namespace

Client::Client(int fd, ClientOptions options)
    : fd_(fd), options_(options), decoder_(options.max_frame_bytes) {
  recv_scratch_.resize(64 * 1024);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      options_(other.options_),
      next_id_(other.next_id_),
      decoder_(std::move(other.decoder_)),
      send_buf_(std::move(other.send_buf_)),
      payload_buf_(std::move(other.payload_buf_)),
      recv_scratch_(std::move(other.recv_scratch_)),
      address_(std::move(other.address_)),
      port_(other.port_),
      subscribed_(other.subscribed_),
      pushed_generation_(other.pushed_generation_),
      push_callback_(std::move(other.push_callback_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    options_ = other.options_;
    next_id_ = other.next_id_;
    decoder_ = std::move(other.decoder_);
    send_buf_ = std::move(other.send_buf_);
    payload_buf_ = std::move(other.payload_buf_);
    recv_scratch_ = std::move(other.recv_scratch_);
    address_ = std::move(other.address_);
    port_ = other.port_;
    subscribed_ = other.subscribed_;
    pushed_generation_ = other.pushed_generation_;
    push_callback_ = std::move(other.push_callback_);
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Result<Client> Client::connect(const std::string& address, std::uint16_t port,
                                     ClientOptions options) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    return util::make_error("net.io", "bad IPv4 address: " + address);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return util::make_error("net.io", errno_text("socket"));

  // Non-blocking connect so the timeout is enforceable, then back to
  // blocking with SO_RCVTIMEO/SO_SNDTIMEO for the per-request bound.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS) {
      const auto err = util::make_error("net.io", errno_text("connect"));
      ::close(fd);
      return err;
    }
    pollfd p{fd, POLLOUT, 0};
    const int ready = ::poll(&p, 1, options.connect_timeout_ms);
    if (ready <= 0) {
      ::close(fd);
      return util::make_error("net.timeout", "connect timed out");
    }
    int soerr = 0;
    socklen_t len = sizeof soerr;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
    if (soerr != 0) {
      ::close(fd);
      return util::make_error("net.io",
                              std::string("connect: ") + std::strerror(soerr));
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  set_timeout(fd, SO_RCVTIMEO, options.io_timeout_ms);
  set_timeout(fd, SO_SNDTIMEO, options.io_timeout_ms);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  Client client(fd, options);
  client.address_ = address;  // kept for reconnect()
  client.port_ = port;
  return client;
}

util::Result<bool> Client::send_all(std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return util::make_error("net.timeout", "send timed out");
    }
    return util::make_error("net.io", errno_text("send"));
  }
  return true;
}

util::Result<bool> Client::round_trip(FrameType type, std::span<const std::uint8_t> payload,
                                      Frame& out) {
  if (fd_ < 0) return util::make_error("net.closed", "client is not connected");
  if (payload.size() > options_.max_frame_bytes) {
    return util::make_error("net.oversize", "request payload exceeds max_frame_bytes");
  }
  const std::uint32_t id = next_id_++;
  send_buf_.clear();
  encode_frame(send_buf_, type, id, payload);
  if (auto sent = send_all(send_buf_); !sent.ok()) {
    close();
    return sent.error();
  }

  for (;;) {
    switch (decoder_.next(out)) {
      case FrameDecoder::Next::kFrame: {
        // A generation_changed push may interleave ahead of (or between) our
        // responses — consume it and keep waiting for the real answer.
        if (out.header.type == static_cast<std::uint8_t>(FrameType::kGenerationChanged)) {
          if (auto handled = handle_push(out); !handled.ok()) return handled.error();
          continue;
        }
        if (out.header.type != response_type(type) || out.header.id != id) {
          close();
          return util::make_error("net.protocol", "response type/id mismatch");
        }
        WireReader reader(out.payload);
        std::uint8_t status = 0;
        if (!reader.u8(status)) {
          close();
          return util::make_error("net.protocol", "response payload missing status byte");
        }
        if (static_cast<Status>(status) != Status::kOk) {
          std::string_view detail;
          reader.str16(detail);  // optional; empty when absent
          return status_error(static_cast<Status>(status), detail);
        }
        return true;
      }
      case FrameDecoder::Next::kError:
        close();
        return util::make_error("net.protocol", decoder_.error().message);
      case FrameDecoder::Next::kNeedMore:
        break;
    }
    const ssize_t n = ::recv(fd_, recv_scratch_.data(), recv_scratch_.size(), 0);
    if (n > 0) {
      decoder_.feed({recv_scratch_.data(), static_cast<std::size_t>(n)});
      continue;
    }
    if (n == 0) {
      close();
      return util::make_error("net.closed", "server closed the connection");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      close();  // a half-read response frame cannot be resumed
      return util::make_error("net.timeout", "response timed out");
    }
    close();
    return util::make_error("net.io", errno_text("recv"));
  }
}

util::Result<bool> Client::ping() {
  static constexpr std::uint8_t kProbe[4] = {0xB1, 0x05, 0x5E, 0xD5};
  Frame frame;
  if (auto ok = round_trip(FrameType::kPing, kProbe, frame); !ok.ok()) return ok.error();
  // Status byte + echo.
  if (frame.payload.size() != 1 + sizeof kProbe ||
      std::memcmp(frame.payload.data() + 1, kProbe, sizeof kProbe) != 0) {
    return util::make_error("net.protocol", "ping echo mismatch");
  }
  return true;
}

util::Result<std::vector<std::uint8_t>> Client::same_site_batch(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  payload_buf_.clear();
  put_u32(payload_buf_, static_cast<std::uint32_t>(pairs.size()));
  for (const auto& [a, b] : pairs) {
    if (a.size() > 0xFFFF || b.size() > 0xFFFF) {
      return util::make_error("net.oversize", "hostname exceeds the 65535-byte wire bound");
    }
    put_str16(payload_buf_, a);
    put_str16(payload_buf_, b);
  }
  Frame frame;
  if (auto ok = round_trip(FrameType::kSameSiteBatch, payload_buf_, frame); !ok.ok()) {
    return ok.error();
  }
  WireReader reader(frame.payload);
  std::uint8_t status = 0;
  std::uint32_t count = 0;
  if (!reader.u8(status) || !reader.u32(count) || count != pairs.size()) {
    return util::make_error("net.protocol", "bad same_site response body");
  }
  std::vector<std::uint8_t> out(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!reader.u8(out[i])) {
      return util::make_error("net.protocol", "short same_site response body");
    }
  }
  if (!reader.done()) {
    return util::make_error("net.protocol", "trailing bytes in same_site response");
  }
  return out;
}

util::Result<std::vector<WireMatch>> Client::match_batch(const std::vector<std::string>& hosts) {
  payload_buf_.clear();
  put_u32(payload_buf_, static_cast<std::uint32_t>(hosts.size()));
  for (const std::string& host : hosts) {
    if (host.size() > 0xFFFF) {
      return util::make_error("net.oversize", "hostname exceeds the 65535-byte wire bound");
    }
    put_str16(payload_buf_, host);
  }
  Frame frame;
  if (auto ok = round_trip(FrameType::kMatchBatch, payload_buf_, frame); !ok.ok()) {
    return ok.error();
  }
  WireReader reader(frame.payload);
  std::uint8_t status = 0;
  std::uint32_t count = 0;
  if (!reader.u8(status) || !reader.u32(count) || count != hosts.size()) {
    return util::make_error("net.protocol", "bad match response body");
  }
  std::vector<WireMatch> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string_view public_suffix, registrable_domain;
    std::uint8_t flags = 0;
    if (!reader.str16(public_suffix) || !reader.str16(registrable_domain) ||
        !reader.u8(flags)) {
      return util::make_error("net.protocol", "short match response body");
    }
    WireMatch m;
    m.public_suffix = std::string(public_suffix);
    m.registrable_domain = std::string(registrable_domain);
    m.matched_explicit_rule = (flags & 1u) != 0;
    m.private_section = (flags & 2u) != 0;
    out.push_back(std::move(m));
  }
  if (!reader.done()) {
    return util::make_error("net.protocol", "trailing bytes in match response");
  }
  return out;
}

util::Result<WireMatchAt> Client::match_at(util::Date date,
                                           const std::vector<std::string>& hosts) {
  payload_buf_.clear();
  put_u64(payload_buf_, static_cast<std::uint64_t>(
                            static_cast<std::int64_t>(date.days_since_epoch())));
  put_u32(payload_buf_, static_cast<std::uint32_t>(hosts.size()));
  for (const std::string& host : hosts) {
    if (host.size() > 0xFFFF) {
      return util::make_error("net.oversize", "hostname exceeds the 65535-byte wire bound");
    }
    put_str16(payload_buf_, host);
  }
  Frame frame;
  if (auto ok = round_trip(FrameType::kMatchAt, payload_buf_, frame); !ok.ok()) {
    return ok.error();
  }
  WireReader reader(frame.payload);
  std::uint8_t status = 0;
  std::uint64_t version_date = 0;
  std::uint32_t count = 0;
  WireMatchAt out;
  if (!reader.u8(status) || !reader.u64(version_date) || !reader.u64(out.rule_count) ||
      !reader.u32(count) || count != hosts.size()) {
    return util::make_error("net.protocol", "bad match_at response body");
  }
  out.version_date_days = static_cast<std::int64_t>(version_date);
  out.matches.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string_view public_suffix, registrable_domain;
    std::uint8_t flags = 0;
    if (!reader.str16(public_suffix) || !reader.str16(registrable_domain) ||
        !reader.u8(flags)) {
      return util::make_error("net.protocol", "short match_at response body");
    }
    WireMatch m;
    m.public_suffix = std::string(public_suffix);
    m.registrable_domain = std::string(registrable_domain);
    m.matched_explicit_rule = (flags & 1u) != 0;
    m.private_section = (flags & 2u) != 0;
    out.matches.push_back(std::move(m));
  }
  if (!reader.done()) {
    return util::make_error("net.protocol", "trailing bytes in match_at response");
  }
  return out;
}

util::Result<std::vector<WireDivergenceRange>> Client::divergence(const std::string& host) {
  if (host.size() > 0xFFFF) {
    return util::make_error("net.oversize", "hostname exceeds the 65535-byte wire bound");
  }
  payload_buf_.clear();
  put_str16(payload_buf_, host);
  Frame frame;
  if (auto ok = round_trip(FrameType::kDivergence, payload_buf_, frame); !ok.ok()) {
    return ok.error();
  }
  WireReader reader(frame.payload);
  std::uint8_t status = 0;
  std::uint32_t count = 0;
  if (!reader.u8(status) || !reader.u32(count)) {
    return util::make_error("net.protocol", "bad divergence response body");
  }
  std::vector<WireDivergenceRange> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t first = 0, last = 0;
    std::string_view domain;
    if (!reader.u64(first) || !reader.u64(last) || !reader.str16(domain)) {
      return util::make_error("net.protocol", "short divergence response body");
    }
    WireDivergenceRange r;
    r.first_date_days = static_cast<std::int64_t>(first);
    r.last_date_days = static_cast<std::int64_t>(last);
    r.registrable_domain = std::string(domain);
    out.push_back(std::move(r));
  }
  if (!reader.done()) {
    return util::make_error("net.protocol", "trailing bytes in divergence response");
  }
  return out;
}

util::Result<std::vector<std::string>> Client::registrable_domains(
    const std::vector<std::string>& hosts) {
  auto matches = match_batch(hosts);
  if (!matches.ok()) return matches.error();
  std::vector<std::string> out;
  out.reserve(matches->size());
  for (WireMatch& m : *matches) out.push_back(std::move(m.registrable_domain));
  return out;
}

// --- the push channel --------------------------------------------------------

util::Result<bool> Client::handle_push(const Frame& frame) {
  WireGenerationChanged push;
  if (frame.header.id != 0 || !parse_generation_changed(frame.payload, push)) {
    close();
    return util::make_error("net.protocol", "bad generation_changed push");
  }
  pushed_generation_ = push.generation;
  if (push_callback_) push_callback_(push);
  return true;
}

util::Result<std::uint64_t> Client::subscribe() {
  Frame frame;
  if (auto ok = round_trip(FrameType::kSubscribe, {}, frame); !ok.ok()) return ok.error();
  WireReader reader(frame.payload);
  std::uint8_t status = 0;
  std::uint64_t generation = 0;
  if (!reader.u8(status) || !reader.u64(generation) || !reader.done()) {
    return util::make_error("net.protocol", "bad subscribe response body");
  }
  subscribed_ = true;
  // The subscribe response pins where this connection's knowledge starts.
  pushed_generation_ = generation;
  return generation;
}

util::Result<std::size_t> Client::poll_pushes() {
  if (fd_ < 0) return util::make_error("net.closed", "client is not connected");
  std::size_t received = 0;
  for (;;) {
    Frame frame;
    switch (decoder_.next(frame)) {
      case FrameDecoder::Next::kFrame: {
        // Nothing but pushes may arrive between round trips.
        if (frame.header.type != static_cast<std::uint8_t>(FrameType::kGenerationChanged)) {
          close();
          return util::make_error("net.protocol", "unsolicited non-push frame");
        }
        if (auto handled = handle_push(frame); !handled.ok()) return handled.error();
        ++received;
        continue;
      }
      case FrameDecoder::Next::kError:
        close();
        return util::make_error("net.protocol", decoder_.error().message);
      case FrameDecoder::Next::kNeedMore:
        break;
    }
    const ssize_t n = ::recv(fd_, recv_scratch_.data(), recv_scratch_.size(), MSG_DONTWAIT);
    if (n > 0) {
      decoder_.feed({recv_scratch_.data(), static_cast<std::size_t>(n)});
      continue;
    }
    if (n == 0) {
      close();
      return util::make_error("net.closed", "server closed the connection");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return received;  // socket drained
    close();
    return util::make_error("net.io", errno_text("recv"));
  }
}

util::Result<bool> Client::reconnect() {
  if (address_.empty()) {
    return util::make_error("net.io", "client has no dial target (not created via connect())");
  }
  close();
  auto fresh = connect(address_, port_, options_);
  if (!fresh.ok()) return fresh.error();
  // Adopt the new socket but keep this client's identity (callback, options,
  // subscription intent). The decoder restarts clean — the old stream died
  // mid-anything and none of it can be trusted.
  fd_ = fresh->fd_;
  fresh->fd_ = -1;
  decoder_ = FrameDecoder(options_.max_frame_bytes);
  pushed_generation_ = 0;
  if (subscribed_) {
    subscribed_ = false;  // re-established by the subscribe below
    if (auto generation = subscribe(); !generation.ok()) return generation.error();
  }
  return true;
}

util::Result<std::uint64_t> Client::reload(std::span<const std::uint8_t> snapshot_bytes) {
  Frame frame;
  if (auto ok = round_trip(FrameType::kReload, snapshot_bytes, frame); !ok.ok()) {
    return ok.error();
  }
  WireReader reader(frame.payload);
  std::uint8_t status = 0;
  std::uint64_t generation = 0;
  if (!reader.u8(status) || !reader.u64(generation)) {
    return util::make_error("net.protocol", "bad reload response body");
  }
  return generation;
}

util::Result<WireStats> Client::stats() {
  Frame frame;
  if (auto ok = round_trip(FrameType::kStats, {}, frame); !ok.ok()) return ok.error();
  WireReader reader(frame.payload);
  std::uint8_t status = 0;
  WireStats stats;
  std::uint64_t date = 0;
  if (!reader.u8(status) || !reader.u64(stats.generation) || !reader.u64(stats.rule_count) ||
      !reader.u64(date) || !reader.u32(stats.connections) || !reader.u32(stats.queue_depth) ||
      !reader.u8(stats.analytics_enabled) || !reader.u64(stats.analytics_records) ||
      !reader.u64(stats.analytics_dropped) || !reader.u64(stats.analytics_census_queries) ||
      !reader.u64(stats.analytics_state_bytes)) {
    return util::make_error("net.protocol", "bad stats response body");
  }
  stats.source_date_days = static_cast<std::int64_t>(date);
  return stats;
}

util::Result<WireIngestAck> Client::ingest_batch(std::span<const WireIngestRecord> records) {
  payload_buf_.clear();
  put_u32(payload_buf_, static_cast<std::uint32_t>(records.size()));
  for (const WireIngestRecord& r : records) {
    if (r.page_host.size() > 0xFFFF || r.resource_host.size() > 0xFFFF) {
      return util::make_error("net.oversize", "hostname exceeds the 65535-byte wire bound");
    }
    put_str16(payload_buf_, r.page_host);
    put_str16(payload_buf_, r.resource_host);
    put_u64(payload_buf_, r.timestamp_ms);
  }
  Frame frame;
  if (auto ok = round_trip(FrameType::kIngestBatch, payload_buf_, frame); !ok.ok()) {
    return ok.error();
  }
  WireReader reader(frame.payload);
  std::uint8_t status = 0;
  WireIngestAck ack;
  if (!reader.u8(status) || !reader.u64(ack.generation) || !reader.u32(ack.accepted) ||
      !reader.done()) {
    return util::make_error("net.protocol", "bad ingest response body");
  }
  return ack;
}

util::Result<WireCensus> Client::census(std::uint32_t top_k) {
  payload_buf_.clear();
  put_u32(payload_buf_, top_k);
  Frame frame;
  if (auto ok = round_trip(FrameType::kCensusQuery, payload_buf_, frame); !ok.ok()) {
    return ok.error();
  }
  WireCensus out;
  // round_trip already consumed the leading status byte's semantics; the
  // body after it is the census payload.
  if (frame.payload.empty() || !parse_census(frame.payload.subspan(1), out)) {
    return util::make_error("net.protocol", "bad census response body");
  }
  return out;
}

}  // namespace psl::net
