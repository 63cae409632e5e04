// Tests of the benchmark's driver against a stub server that answers every
// request after a fixed delay, except during a stall: replies that come
// due inside the stall are held until it ends.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "codec/codec.hpp"
#include "driver.hpp"
#include "stats.hpp"
#include "transport/wire.hpp"

namespace perfbench {
namespace {

namespace transport = twostep::transport;
namespace codec = twostep::codec;

class StubServer {
 public:
  explicit StubServer(std::int64_t delay_us) : delay_us_(delay_us) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd_, 16);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~StubServer() {
    stop_ = true;
    thread_.join();
    for (const Conn& c : conns_) ::close(c.fd);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }
  StubServer(const StubServer&) = delete;
  StubServer& operator=(const StubServer&) = delete;

  [[nodiscard]] transport::Endpoint endpoint() const { return {"127.0.0.1", port_}; }

  /// Holds every reply that comes due in [from_us, to_us) until to_us.
  void stall(std::int64_t from_us, std::int64_t to_us) {
    stall_from_ = from_us;
    stall_to_ = to_us;
  }

  /// Closes every connection and the listener, as a crashed replica would.
  void crash() { crash_ = true; }

 private:
  struct Conn {
    int fd = -1;
    transport::FrameParser parser;
  };

  void serve() {
    // reply time -> (connection fd, reply)
    std::multimap<std::int64_t, std::pair<int, codec::ClientReply>> due;
    while (!stop_) {
      if (crash_ && listen_fd_ >= 0) {
        for (const Conn& c : conns_) ::close(c.fd);
        conns_.clear();
        due.clear();
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      std::vector<pollfd> pfds;
      if (listen_fd_ >= 0) pfds.push_back({listen_fd_, POLLIN, 0});
      for (const Conn& c : conns_) pfds.push_back({c.fd, POLLIN, 0});
      ::poll(pfds.data(), pfds.size(), 1);
      const std::int64_t now = now_us();
      for (const pollfd& p : pfds) {
        if ((p.revents & POLLIN) == 0) continue;
        if (p.fd == listen_fd_) {
          conns_.push_back(Conn{::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC), {}});
          continue;
        }
        for (Conn& c : conns_) {
          if (c.fd != p.fd) continue;
          std::uint8_t buf[1 << 16];
          const ssize_t got = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
          if (got <= 0) break;
          c.parser.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(got)));
          while (auto frame = c.parser.next()) {
            const auto req = codec::decode_client_request(frame->payload);
            if (!req) continue;
            std::int64_t at = now + delay_us_;
            if (at >= stall_from_ && at < stall_to_) at = stall_to_;
            due.emplace(at,
                        std::make_pair(c.fd, codec::ClientReply{req->id, req->payload, 0, true}));
          }
        }
      }
      while (!due.empty() && due.begin()->first <= now_us()) {
        const auto& [fd, reply] = due.begin()->second;
        const auto frame =
            transport::make_frame(transport::FrameKind::kClientReply, codec::encode(reply));
        ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
        due.erase(due.begin());
      }
    }
  }

  std::int64_t delay_us_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<Conn> conns_;
  std::atomic<std::int64_t> stall_from_{0}, stall_to_{0};
  std::atomic<bool> crash_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: it uses every member above
};

DriverOptions options_for(std::vector<transport::Endpoint> servers) {
  DriverOptions o;
  o.servers = std::move(servers);
  o.connections = 2;
  o.sessions = 8;
  o.seed = 7;
  return o;
}

TEST(Driver, RequestsDueDuringAStallAreChargedTheStall) {
  constexpr std::int64_t kDelayUs = 2'000, kStallUs = 200'000;
  StubServer server(kDelayUs);
  Driver driver(options_for({server.endpoint()}));
  ASSERT_TRUE(driver.connect());
  const std::int64_t stall_from = now_us() + 400'000;
  server.stall(stall_from, stall_from + kStallUs);
  const Phase phase = driver.open_loop(1'000, 1'000'000, 1'000'000, 1);

  ASSERT_GT(phase.requests.size(), 800u);
  EXPECT_EQ(phase.lost(), 0);
  int stalled = 0;
  for (const Request& r : phase.requests) {
    ASSERT_TRUE(r.ok);
    const std::int64_t latency = r.done_us - r.due_us;
    if (r.due_us + kDelayUs >= stall_from && r.due_us + kDelayUs < stall_from + kStallUs) {
      // Due inside the stall: waits for its end, measured from when it was due.
      EXPECT_GE(latency, stall_from + kStallUs - r.due_us - 1'000);
      ++stalled;
    } else if (r.due_us > stall_from + kStallUs + 100'000) {
      EXPECT_LT(latency, kStallUs / 2);  // well clear of the stall
    }
  }
  EXPECT_GT(stalled, 150);
  // The worst request waited out nearly the whole stall.
  const std::vector<double> latencies = phase.latencies_us();
  EXPECT_GE(latencies.back(), kStallUs - 5'000);
  // The generator kept to its schedule: it is never charged for the stall.
  ASSERT_EQ(phase.gen_late_us.size(), phase.requests.size());
  std::vector<double> late = phase.gen_late_us;
  std::sort(late.begin(), late.end());
  EXPECT_LT(quantile_sorted(late, 0.99), 5'000);
}

TEST(Driver, ReportedTailIsTheHighestPercentileWithTenSamplesBeyond) {
  StubServer server(1'000);
  Driver driver(options_for({server.endpoint()}));
  ASSERT_TRUE(driver.connect());
  const Phase phase = driver.open_loop(2'000, 600'000, 1'000'000, 2);
  const std::vector<double> latencies = phase.latencies_us();
  const Tail tail = supported_tail(latencies);
  ASSERT_GT(tail.pct, 0);
  EXPECT_GE(beyond(latencies.size(), tail.pct / 100.0), 10);
  // One rung further up the ladder would leave fewer than ten beyond.
  const double next = tail.pct == 50 ? 0.9 : 1.0 - (1.0 - tail.pct / 100.0) / 10.0;
  EXPECT_LT(beyond(latencies.size(), next), 10);
  EXPECT_EQ(tail.value, quantile_sorted(latencies, tail.pct / 100.0));
}

TEST(Stats, SupportedTailLadder) {
  std::vector<double> v(1'000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  EXPECT_DOUBLE_EQ(supported_tail(v).pct, 99);  // 10 samples beyond p99, 1 beyond p99.9
  EXPECT_EQ(supported_tail(v).value, 990);
  v.pop_back();
  EXPECT_DOUBLE_EQ(supported_tail(v).pct, 90);  // 999 samples: only 9 beyond p99
  v.resize(10'000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  EXPECT_DOUBLE_EQ(supported_tail(v).pct, 99.9);
  EXPECT_EQ(supported_tail(std::vector<double>(15, 1.0)).pct, 0);  // 7 beyond the median
  EXPECT_DOUBLE_EQ(supported_tail(std::vector<double>(20, 1.0)).pct, 50);
}

TEST(Driver, RedialsASurvivorAndResendsOpenRequests) {
  StubServer first(1'000), second(1'000);
  Driver driver(options_for({first.endpoint(), second.endpoint()}));
  ASSERT_TRUE(driver.connect());
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    first.crash();
  });
  const Phase phase = driver.open_loop(1'000, 800'000, 1'000'000, 3);
  killer.join();
  EXPECT_EQ(phase.lost(), 0);
  EXPECT_EQ(phase.rejected(), 0);
  ASSERT_EQ(phase.redials.size(), 2u);  // both connections
  for (const Redial& r : phase.redials) EXPECT_GT(r.first_reply_us, r.lost_us);
}

TEST(Driver, ClosedLoopIssuesExactlyTheRequestedCount) {
  StubServer server(500);
  Driver driver(options_for({server.endpoint()}));
  ASSERT_TRUE(driver.connect());
  const Phase phase = driver.closed_loop(16, 2'000, 1'000'000);
  EXPECT_EQ(phase.requests.size(), 2'000u);
  EXPECT_EQ(phase.lost(), 0);
  const std::vector<double> rates = phase.segment_rates(400);
  ASSERT_EQ(rates.size(), 5u);
  for (const double rate : rates) EXPECT_GT(rate, 0);
  EXPECT_EQ(driver.issued(), 2'000);
}

}  // namespace
}  // namespace perfbench
