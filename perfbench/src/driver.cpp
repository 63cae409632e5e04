#include "driver.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <stdexcept>

#include "codec/codec.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace transport = twostep::transport;
namespace codec = twostep::codec;

namespace {
constexpr std::int64_t kRedialBackoffUs = 10'000;  ///< delay before redialling a lost connection
constexpr std::int64_t kClosedCapUs = 60'000'000;  ///< a closed loop ends by count first
}  // namespace

std::int64_t now_us() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000 + ts.tv_nsec / 1000;
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t Phase::ok_in_window() const {
  std::int64_t n = 0;
  for (const Request& r : requests)
    if (r.ok && r.done_us >= start_us && r.done_us < end_us) ++n;
  return n;
}

std::vector<double> Phase::segment_rates(std::size_t per) const {
  std::vector<std::int64_t> done;
  for (const Request& r : requests)
    if (r.ok) done.push_back(r.done_us);
  std::sort(done.begin(), done.end());
  std::vector<double> rates;
  std::int64_t from = start_us;
  for (std::size_t k = per; per > 0 && k <= done.size(); k += per) {
    const std::int64_t to = done[k - 1];
    rates.push_back(static_cast<double>(per) * 1e6 /
                    static_cast<double>(std::max<std::int64_t>(1, to - from)));
    from = to;
  }
  return rates;
}

std::int64_t Phase::rejected() const {
  std::int64_t n = 0;
  for (const Request& r : requests)
    if (r.done_us >= 0 && !r.ok) ++n;
  return n;
}

std::int64_t Phase::lost() const {
  std::int64_t n = 0;
  for (const Request& r : requests)
    if (r.done_us < 0) ++n;
  return n;
}

std::vector<double> Phase::latencies_us() const {
  std::vector<double> out;
  out.reserve(requests.size());
  for (const Request& r : requests)
    out.push_back(r.ok ? static_cast<double>(r.done_us - r.due_us) : kInf);
  std::sort(out.begin(), out.end());
  return out;
}

struct Driver::Conn {
  int fd = -1;
  int server = 0;
  transport::FrameParser parser;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::int64_t redial_at = -1;  ///< >= 0 while the connection is down
  int redial_index = -1;        ///< Phase::redials entry awaiting a first reply
};

/// The arrival discipline of one phase.
struct Driver::Run {
  bool closed = false;
  // open loop
  double mean_gap_us = 0;
  twostep::util::Rng rng{1};
  double next_due_us = 0;
  // closed loop
  int outstanding = 0;
  std::int64_t total = 0;
  int in_flight = 0;
};

Driver::Driver(DriverOptions options) : options_(std::move(options)) {
  if (options_.servers.empty()) throw std::invalid_argument("driver: no servers");
  if (options_.connections < 1 || options_.sessions < 1)
    throw std::invalid_argument("driver: connections and sessions must be >= 1");
  conns_.resize(static_cast<std::size_t>(options_.connections));
  client_ids_.resize(static_cast<std::size_t>(options_.sessions));
  for (std::size_t s = 0; s < client_ids_.size(); ++s)
    client_ids_[s] =
        static_cast<std::int64_t>(twostep::util::splitmix64(options_.seed ^ 0xc11e47ULL, s) >> 2) +
        1;
}

Driver::~Driver() {
  for (Conn& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
}

int Driver::dial(int server) const {
  const transport::Endpoint& ep = options_.servers[static_cast<std::size_t>(server)];
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  // Loopback connects complete or get refused at once, so a blocking dial
  // never stalls the pacing loop for long.
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

bool Driver::connect() {
  const int n = static_cast<int>(options_.servers.size());
  for (Conn& conn : conns_) {
    conn.server = options_.server % n;
    conn.fd = dial(conn.server);
    if (conn.fd < 0) return false;
  }
  return true;
}

Phase Driver::open_loop(double rate, std::int64_t window_us, std::int64_t drain_us,
                        std::uint64_t stream) {
  Run mode;
  mode.mean_gap_us = 1e6 / rate;
  mode.rng = twostep::util::Rng{twostep::util::splitmix64(options_.seed, stream)};
  return run(mode, window_us, drain_us);
}

Phase Driver::closed_loop(int outstanding, std::int64_t total, std::int64_t drain_us) {
  Run mode;
  mode.closed = true;
  mode.outstanding = outstanding;
  mode.total = total;
  return run(mode, kClosedCapUs, drain_us);
}

void Driver::send(Conn& conn, const Phase& phase, std::size_t index) {
  const Request& r = phase.requests[index];
  codec::ClientRequest req{id_base_ + static_cast<std::int64_t>(index), r.payload,
                           client_ids_[static_cast<std::size_t>(r.session)], {}};
  if (r.span != 0) req.trace = twostep::obs::TraceContext{r.span, r.span, r.sent_us};
  transport::append_frame(conn.out, transport::FrameKind::kClientRequest, codec::encode(req));
}

void Driver::issue(Phase& phase, std::int64_t due_us, std::int64_t now) {
  Request r;
  r.due_us = due_us;
  r.sent_us = now;
  r.payload = next_payload_++;
  r.session = static_cast<int>(phase.requests.size() % client_ids_.size());
  const std::size_t index = phase.requests.size();
  if (options_.trace_every > 0 && options_.recorder != nullptr &&
      index % static_cast<std::size_t>(options_.trace_every) == 0)
    r.span = options_.recorder->next_span_id();
  phase.requests.push_back(r);
  Conn& conn = conns_[static_cast<std::size_t>(r.session) % conns_.size()];
  // A request pinned to a dead connection waits for the redial, which
  // resends everything still open on it.
  if (conn.fd >= 0) send(conn, phase, index);
}

void Driver::lose(Conn& conn, Phase& phase, std::int64_t now) {
  ::close(conn.fd);
  conn.fd = -1;
  conn.parser = transport::FrameParser{};
  conn.out.clear();
  conn.out_off = 0;
  conn.redial_at = now + kRedialBackoffUs;
  conn.redial_index = static_cast<int>(phase.redials.size());
  phase.redials.push_back(Redial{now, -1});
}

bool Driver::redial(Conn& conn, Phase& phase, std::int64_t now) {
  const int n = static_cast<int>(options_.servers.size());
  for (int k = 1; k <= n; ++k) {
    const int server = (conn.server + k) % n;
    const int fd = dial(server);
    if (fd < 0) continue;
    conn.fd = fd;
    conn.server = server;
    conn.redial_at = -1;
    // Resend every open request pinned here, oldest first, under its
    // original id: ids rise per session, so the new server's dedup table
    // accepts them in order.
    const std::size_t self = static_cast<std::size_t>(&conn - conns_.data());
    for (std::size_t i = 0; i < phase.requests.size(); ++i) {
      const Request& r = phase.requests[i];
      if (r.done_us < 0 && static_cast<std::size_t>(r.session) % conns_.size() == self)
        send(conn, phase, i);
    }
    return true;
  }
  conn.redial_at = now + kRedialBackoffUs;
  return false;
}

void Driver::flush(Conn& conn, Phase& phase, std::int64_t now) {
  while (conn.fd >= 0 && conn.out_off < conn.out.size()) {
    const ssize_t w = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (w > 0) {
      conn.out_off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (w < 0 && errno == EINTR) continue;
    lose(conn, phase, now);
    return;
  }
  conn.out.clear();
  conn.out_off = 0;
}

void Driver::read(Conn& conn, Phase& phase, std::int64_t now, Run& mode) {
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      lose(conn, phase, now);
      return;
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (!conn.parser.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(got)))) {
      lose(conn, phase, now);
      return;
    }
    while (auto frame = conn.parser.next()) {
      if (frame->kind != transport::FrameKind::kClientReply) continue;
      const auto reply = codec::decode_client_reply(frame->payload);
      if (!reply) continue;
      const std::int64_t index = reply->id - id_base_;
      if (index < 0 || index >= static_cast<std::int64_t>(phase.requests.size())) continue;
      Request& r = phase.requests[static_cast<std::size_t>(index)];
      if (r.done_us >= 0) continue;  // a resend answered twice
      r.done_us = now;
      r.ok = reply->ok;
      if (mode.closed) --mode.in_flight;
      if (r.span != 0)
        options_.recorder->record({r.span, r.span, 0, "client.call", r.sent_us,
                                   now - r.sent_us, r.payload});
      if (conn.redial_index >= 0) {
        phase.redials[static_cast<std::size_t>(conn.redial_index)].first_reply_us = now;
        conn.redial_index = -1;
      }
    }
  }
}

Phase Driver::run(Run& mode, std::int64_t window_us, std::int64_t drain_us) {
  // Microsecond wakeups: without this the kernel may defer a ppoll()
  // timeout by its default 50 µs slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Phase phase;
  phase.start_us = now_us();
  std::int64_t window_end = phase.start_us + window_us;
  stop_.store(false, std::memory_order_relaxed);
  std::int64_t drain_end = 0;
  const std::int64_t cpu0 = process_cpu_ns();
  bool offering = true;
  mode.next_due_us = static_cast<double>(phase.start_us);
  std::size_t oldest_open = 0;
  std::vector<pollfd> pfds;
  for (;;) {
    std::int64_t now = now_us();
    if (offering && stop_.load(std::memory_order_relaxed)) window_end = std::min(window_end, now);
    if (offering && now >= window_end) {
      offering = false;
      phase.end_us = window_end;
      phase.cpu_ns = process_cpu_ns() - cpu0;
      drain_end = now + drain_us;
    }
    if (offering) {
      if (mode.closed) {
        for (; mode.in_flight < mode.outstanding &&
               static_cast<std::int64_t>(phase.requests.size()) < mode.total;
             ++mode.in_flight)
          issue(phase, now, now);
        if (static_cast<std::int64_t>(phase.requests.size()) == mode.total) window_end = now + 1;
      } else {
        while (mode.next_due_us <= static_cast<double>(now) &&
               mode.next_due_us < static_cast<double>(window_end)) {
          const auto due = static_cast<std::int64_t>(mode.next_due_us);
          issue(phase, due, now);
          phase.gen_late_us.push_back(static_cast<double>(now - due));
          const double u = std::max(mode.rng.next_double(), 1e-12);
          mode.next_due_us += -std::log(u) * mode.mean_gap_us;
        }
      }
    }
    for (Conn& c : conns_) {
      if (c.fd < 0 && c.redial_at >= 0 && now >= c.redial_at) redial(c, phase, now);
      if (c.fd >= 0) flush(c, phase, now);
    }
    while (oldest_open < phase.requests.size() && phase.requests[oldest_open].done_us >= 0)
      ++oldest_open;
    if (!offering && (oldest_open == phase.requests.size() || now >= drain_end)) break;

    double wake_us = static_cast<double>(offering ? window_end : drain_end);
    if (offering && !mode.closed) wake_us = std::min(wake_us, mode.next_due_us);
    pfds.clear();
    for (const Conn& c : conns_) {
      if (c.fd < 0) {
        if (c.redial_at >= 0) wake_us = std::min(wake_us, static_cast<double>(c.redial_at));
        continue;
      }
      pfds.push_back(pollfd{c.fd,
                            static_cast<short>(POLLIN | (c.out_off < c.out.size() ? POLLOUT : 0)),
                            0});
    }
    const double wait_ns = std::max(0.0, (wake_us - static_cast<double>(now)) * 1000.0);
    timespec ts{static_cast<time_t>(wait_ns / 1e9),
                static_cast<long>(std::fmod(wait_ns, 1e9))};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    now = now_us();
    for (const pollfd& p : pfds) {
      if (p.revents == 0) continue;
      for (Conn& c : conns_) {
        if (c.fd != p.fd) continue;
        if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) read(c, phase, now, mode);
        if (c.fd >= 0 && (p.revents & POLLOUT) != 0) flush(c, phase, now);
        break;
      }
    }
  }
  id_base_ += static_cast<std::int64_t>(phase.requests.size());
  return phase;
}

}  // namespace perfbench
