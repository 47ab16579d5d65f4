// psl::net::Client — a small blocking client for the psld wire protocol.
//
// One Client is one TCP connection driving strict request/response pairs
// (it never pipelines, so a response is always for the request just sent;
// the id is checked anyway). It is intentionally synchronous: tests,
// benches, the C API, and the psld CLI all want "send a batch, wait for the
// answer" — callers that need concurrency open one Client per thread.
//
// The push channel: subscribe() registers this connection for
// generation_changed frames, which the server pushes whenever a reload
// installs a new list generation. Pushes arrive asynchronously and are
// consumed wherever the client reads the socket — interleaved with a
// response inside any round trip, or explicitly via poll_pushes() — never
// treated as protocol errors. Each push updates last_pushed_generation()
// and fires the optional push callback. The client caches no answers:
// every registrable_domains() call is a match_batch round trip.
//
// Error codes (util::Result, stable):
//   net.io             socket create/connect/send/recv failed (message has
//                      errno text)
//   net.timeout        connect or round-trip exceeded its bound
//   net.protocol       response violated the framing contract (bad magic/
//                      version, wrong type or id, short payload)
//   net.closed         the server closed the connection
//   net.backpressure   server rejected the batch: engine queue full; nothing
//                      was computed — retry or shed
//   net.malformed      server could not parse our payload
//   net.unsupported    server does not speak this frame type
//   net.reload-rejected  reload refused; message carries the snapshot
//                      loader's code (keep-last-good: old list still serves)
//   net.stopped        server is draining
//   net.oversize       a request would exceed max_frame_bytes, or a hostname
//                      exceeds the 65535-byte str16 bound
//
// Not thread-safe: one Client per thread (or external locking).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "psl/net/frame.hpp"
#include "psl/util/date.hpp"
#include "psl/util/result.hpp"

namespace psl::net {

struct ClientOptions {
  int connect_timeout_ms = 5000;
  int io_timeout_ms = 10000;  ///< bound on each blocking send/recv
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

class Client {
 public:
  /// Connect to an IPv4 address ("127.0.0.1") and port.
  static util::Result<Client> connect(const std::string& address, std::uint16_t port,
                                      ClientOptions options = {});

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const noexcept { return fd_ >= 0; }
  void close();

  /// Round-trip liveness probe (echo check included).
  util::Result<bool> ping();

  /// out[i] = 1 when pairs[i] is same-site, else 0.
  util::Result<std::vector<std::uint8_t>> same_site_batch(
      const std::vector<std::pair<std::string, std::string>>& pairs);

  util::Result<std::vector<WireMatch>> match_batch(const std::vector<std::string>& hosts);

  /// Convenience over match_batch: just the eTLD+1 strings ("" when the host
  /// is itself a public suffix).
  util::Result<std::vector<std::string>> registrable_domains(
      const std::vector<std::string>& hosts);

  /// Time-travel match: answers from the stored list version in effect at
  /// `date` (psld --store). net.unsupported when the server has no store
  /// ("store.none"); net.malformed when `date` precedes the first stored
  /// version ("store.no-version").
  util::Result<WireMatchAt> match_at(util::Date date, const std::vector<std::string>& hosts);

  /// `host`'s registrable-domain history across every stored list version:
  /// consecutive equal-domain runs, oldest first, covering the whole span.
  util::Result<std::vector<WireDivergenceRange>> divergence(const std::string& host);

  /// Ship serialized psl::snapshot bytes; returns the server's new
  /// generation. Keep-last-good on the server: rejection leaves it serving.
  util::Result<std::uint64_t> reload(std::span<const std::uint8_t> snapshot_bytes);

  util::Result<WireStats> stats();

  // --- analytics (psld --analytics) ---------------------------------------

  /// Stream one batch of (page_host, resource_host, timestamp) observations
  /// into the server's analytics census. The ack names the ONE generation
  /// the whole batch was attributed to — batches are never split across a
  /// reload. Views must stay valid for the call. net.unsupported with
  /// detail "analytics.none" when the server carries no census.
  util::Result<WireIngestAck> ingest_batch(std::span<const WireIngestRecord> records);

  /// Snapshot the serving generation's census aggregates (top_k = 0 asks
  /// for the server's default tracker-table size). Same "analytics.none"
  /// contract as ingest_batch.
  util::Result<WireCensus> census(std::uint32_t top_k = 0);

  // --- the push channel ---------------------------------------------------

  /// Invoked (from whichever call consumed the push off the socket) for
  /// every generation_changed frame received.
  using PushCallback = std::function<void(const WireGenerationChanged&)>;

  /// Register for generation_changed pushes. Returns the server's CURRENT
  /// generation (carried in the subscribe response), so the caller converges
  /// immediately instead of waiting for the first push. Survives reconnect():
  /// a reconnected client re-subscribes automatically.
  util::Result<std::uint64_t> subscribe();
  void set_push_callback(PushCallback callback) { push_callback_ = std::move(callback); }
  /// Newest generation the server has told us about — via the subscribe
  /// response or any push consumed since (0 before either).
  std::uint64_t last_pushed_generation() const noexcept { return pushed_generation_; }
  bool subscribed() const noexcept { return subscribed_; }

  /// Drain any pushes sitting in the socket without blocking (no request is
  /// sent). Returns how many arrived. Any non-push frame here is a protocol
  /// violation — nothing else may arrive between round trips — and closes
  /// the connection. net.closed when the server hung up.
  util::Result<std::size_t> poll_pushes();

  /// Drop the dead socket, dial the original address again and re-subscribe
  /// if subscribe() had been called. The push callback and options carry
  /// over; last_pushed_generation() restarts from the re-subscribe answer.
  util::Result<bool> reconnect();

 private:
  Client(int fd, ClientOptions options);

  /// Send one request frame and block for its response. On success `out`
  /// holds the response frame; its payload view stays valid until the next
  /// round_trip call. A non-kOk response status is mapped to the error codes
  /// above (so a kFrame result always has status kOk).
  util::Result<bool> round_trip(FrameType type, std::span<const std::uint8_t> payload,
                                Frame& out);
  util::Result<bool> send_all(std::span<const std::uint8_t> bytes);
  /// Record one generation_changed frame (updates last_pushed_generation,
  /// fires the callback). net.protocol + close on a malformed push body.
  util::Result<bool> handle_push(const Frame& frame);

  int fd_ = -1;
  ClientOptions options_;
  std::uint32_t next_id_ = 1;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> send_buf_;
  std::vector<std::uint8_t> payload_buf_;
  std::vector<std::uint8_t> recv_scratch_;

  std::string address_;  ///< dial target, kept for reconnect()
  std::uint16_t port_ = 0;
  bool subscribed_ = false;
  std::uint64_t pushed_generation_ = 0;
  PushCallback push_callback_;
};

}  // namespace psl::net
