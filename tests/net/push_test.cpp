// The push channel end to end: subscribe handshake, generation_changed
// delivery on reload WITHOUT the client issuing a query, slow subscribers
// reclaimed by the write-stall timeout instead of buffered unboundedly, and
// reconnect re-subscribing and converging.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "psl/net/client.hpp"
#include "psl/net/frame.hpp"
#include "psl/net/server.hpp"
#include "psl/obs/metrics.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/serve/engine.hpp"
#include "psl/serve/snapshot.hpp"

namespace psl::net {
namespace {

List parse_list(const std::string& text) {
  auto parsed = List::parse(text);
  EXPECT_TRUE(parsed.ok());
  return *std::move(parsed);
}

/// Two lists that answer differently for shop1.myshopify.com.
List list_a() { return parse_list("com\nuk\nco.uk\ngithub.io\n"); }
List list_b() { return parse_list("com\nuk\nco.uk\ngithub.io\nmyshopify.com\n"); }

snapshot::Snapshot snap_of(const List& list) {
  snapshot::Metadata meta;
  meta.rule_count = list.rules().size();
  return snapshot::Snapshot{CompiledMatcher(list), meta};
}

Client connect_or_die(std::uint16_t port) {
  auto client = Client::connect("127.0.0.1", port);
  EXPECT_TRUE(client.ok()) << (client.ok() ? "" : client.error().message);
  if (!client.ok()) std::abort();
  return *std::move(client);
}

/// Spin (bounded) until `pred` holds; returns whether it ever did.
template <typename Pred>
bool eventually(Pred pred, int budget_ms = 5000) {
  for (int waited = 0; waited < budget_ms; waited += 5) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

TEST(NetPushTest, SubscriberIsPushedGenerationChangesWithoutQuerying) {
  obs::MetricsRegistry metrics;
  serve::Engine engine(snap_of(list_a()), {.threads = 1, .metrics = &metrics});
  ServerOptions options;
  options.metrics = &metrics;
  Server server(engine, options);
  auto port = server.start();
  ASSERT_TRUE(port.ok()) << port.error().message;

  Client client = connect_or_die(*port);
  std::vector<WireGenerationChanged> pushes;
  client.set_push_callback([&pushes](const WireGenerationChanged& p) { pushes.push_back(p); });

  auto subscribed = client.subscribe();
  ASSERT_TRUE(subscribed.ok()) << subscribed.error().message;
  EXPECT_EQ(*subscribed, 1u);  // converged immediately, before any push
  EXPECT_EQ(client.last_pushed_generation(), 1u);

  // Reload on the server side; the subscriber must learn about it through
  // the push alone — poll_pushes() sends NOTHING on the wire.
  EXPECT_EQ(engine.reload_list(list_b()), 2u);
  ASSERT_TRUE(eventually([&] {
    auto drained = client.poll_pushes();
    EXPECT_TRUE(drained.ok()) << drained.error().message;
    return client.last_pushed_generation() == 2u;
  }));

  ASSERT_EQ(pushes.size(), 1u);
  EXPECT_EQ(pushes[0].generation, 2u);
  EXPECT_EQ(pushes[0].rule_count, 5u);
  EXPECT_EQ(pushes[0].rule_delta, 1);  // list_b has one rule more than list_a
  EXPECT_GE(metrics.counter("net.push.sent").value(), 1);
}

TEST(NetPushTest, PushInterleavedWithResponsesIsConsumedInsideRoundTrip) {
  serve::Engine engine(snap_of(list_a()), {.threads = 1});
  Server server(engine, {});
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  Client client = connect_or_die(*port);
  ASSERT_TRUE(client.subscribe().ok());
  engine.reload_list(list_b());

  // Give the broadcast time to land in the socket AHEAD of our next
  // response, then issue a normal query: round_trip must consume the
  // interleaved push (updating the generation) and still return the answer.
  ASSERT_TRUE(eventually([&] {
    auto pong = client.ping();
    EXPECT_TRUE(pong.ok()) << pong.error().message;
    return client.last_pushed_generation() == 2u;
  }));
}

TEST(NetPushTest, SlowSubscriberIsStalledOutNotBufferedUnboundedly) {
  obs::MetricsRegistry metrics;
  serve::Engine engine(snap_of(list_a()), {.threads = 1, .metrics = &metrics});
  ServerOptions options;
  options.max_frame_bytes = 4096;    // park reads after ~one frame of backlog
  options.idle_timeout_ms = 60'000;  // only the write-stall timeout may fire
  options.read_timeout_ms = 60'000;
  options.write_stall_timeout_ms = 200;
  options.metrics = &metrics;
  Server server(engine, options);
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  {
    // A subscriber with a tiny receive window that reads its subscribe reply
    // and then NOTHING else, while blasting pings to close its window (pushes
    // alone are 48 bytes — loopback buffering would absorb years of reloads
    // before pending output lingers server-side). Once its outbound buffer
    // stops draining, reload-driven pushes pile onto the same bounded buffer
    // and the write-stall timeout reclaims the connection.
    int rcvbuf = 4096;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(*port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

    std::vector<std::uint8_t> wire;
    encode_frame(wire, FrameType::kSubscribe, 1, {});
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    std::uint8_t reply[64];
    ASSERT_GT(::recv(fd, reply, sizeof reply, 0), 0);  // subscribe response

    wire.clear();
    std::vector<std::uint8_t> payload(3000, 0xAB);
    encode_frame(wire, FrameType::kPing, 2, payload);
    std::vector<std::uint8_t> burst;
    burst.reserve(wire.size() * 3000);
    for (int i = 0; i < 3000; ++i) burst.insert(burst.end(), wire.begin(), wire.end());
    std::size_t sent = 0;
    while (sent < burst.size()) {
      const ssize_t n = ::send(fd, burst.data() + sent, burst.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;  // server may reset us mid-blast
      sent += static_cast<std::size_t>(n);
    }
    for (int i = 0; i < 6; ++i) engine.reload_list(list_b());  // pushes pile up

    EXPECT_TRUE(eventually([&] {
      return metrics.counter("net.timeout.write_stall").value() >= 1 &&
             server.connection_count() == 0;
    }));
    ::close(fd);
  }

  // Healthy subscribers are unaffected afterwards.
  Client client = connect_or_die(*port);
  EXPECT_TRUE(client.subscribe().ok());
  EXPECT_TRUE(client.ping().ok());
}

TEST(NetPushTest, ReconnectResubscribesAndConverges) {
  serve::Engine engine(snap_of(list_a()), {.threads = 1});
  Server first(engine, {});
  auto port = first.start();
  ASSERT_TRUE(port.ok());

  Client client = connect_or_die(*port);
  ASSERT_TRUE(client.subscribe().ok());
  EXPECT_EQ(client.last_pushed_generation(), 1u);

  // The server goes away and the list moves on while the client is dark.
  first.shutdown();
  EXPECT_EQ(engine.reload_list(list_b()), 2u);

  // A replacement server on the SAME port (Server objects are one-shot).
  ServerOptions rebind;
  rebind.port = *port;
  Server second(engine, rebind);
  ASSERT_TRUE(eventually([&] { return second.start().ok(); }));

  // The old connection is dead; any round trip fails, and reconnect()
  // re-subscribes — the subscribe response alone converges the client to the
  // current generation, no push needed.
  EXPECT_FALSE(client.ping().ok());
  auto back = client.reconnect();
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_TRUE(client.subscribed());
  EXPECT_EQ(client.last_pushed_generation(), 2u);

  // And the re-subscription is live: the next reload is pushed.
  engine.reload_list(list_a());
  EXPECT_TRUE(eventually([&] {
    auto drained = client.poll_pushes();
    EXPECT_TRUE(drained.ok()) << drained.error().message;
    return client.last_pushed_generation() == 3u;
  }));
}

}  // namespace
}  // namespace psl::net
