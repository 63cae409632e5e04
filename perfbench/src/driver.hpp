// The benchmark's own client: an open-loop (and closed-loop) request driver
// built directly on the public wire framing (transport::append_frame /
// FrameParser) and the codec's client frames.
//
// It exists instead of node::OpenLoopLoadgen because that generator
//   - stamps a request when it is issued, not when it was due, which hides
//     how late the generator itself ran;
//   - paces arrivals with transport::EventLoop timers, which fire on the
//     loop's millisecond grid, so arrivals bunch up;
//   - redials only the first server unless `spread` is set, so it cannot
//     ride through the loss of that server (and spreading its connections
//     makes every replica a proxy, see README.md).
// This driver owns its sockets and waits in ppoll() with a nanosecond
// timeout (timer slack 1 µs), so its pacing does not depend on the event
// loop under test: a later fix to the loop's timers cannot change the
// generator.
//
// Every request's latency runs from its DUE time (the arrival process's
// schedule) to its reply, so a stall in the system, or in the generator,
// is charged to every request that was due during it (no coordinated
// omission).  A request never answered counts as failed.
//
// Sessions: request i belongs to session i mod `sessions` and is pinned to
// connection session mod `connections`.  Each session has its own dedup
// client id and strictly increasing request ids, so the server's
// per-client dedup table absorbs the resends that follow a redial.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "obs/flight.hpp"
#include "transport/tcp.hpp"
#include "transport/wire.hpp"

namespace perfbench {

/// Raw CLOCK_MONOTONIC microseconds: the clock of every timestamp here,
/// shared with obs::FlightRecorder spans.
[[nodiscard]] std::int64_t now_us();

/// Process CPU time (user + sys, all threads) in nanoseconds.
[[nodiscard]] std::int64_t process_cpu_ns();

struct Request {
  std::int64_t due_us = 0;    ///< when the arrival process scheduled it
  std::int64_t sent_us = 0;   ///< when the driver issued it
  std::int64_t done_us = -1;  ///< reply arrival; -1 = never answered
  std::int64_t payload = 0;   ///< unique per driver, 1-based
  std::uint64_t span = 0;     ///< client.call span (and trace) id when traced
  int session = 0;
  bool ok = false;            ///< answered with ok = true
};

/// A connection the driver lost and redialled: when it died, and when the
/// first reply arrived on its replacement (-1: none did).
struct Redial {
  std::int64_t lost_us = 0;
  std::int64_t first_reply_us = -1;
};

/// One load phase.
struct Phase {
  /// In issue order.  A deque, so memory grows with the count instead of
  /// in doubling steps that would make peak RSS jump between runs.
  std::deque<Request> requests;
  std::int64_t start_us = 0;        ///< offering window [start_us, end_us)
  std::int64_t end_us = 0;
  std::int64_t cpu_ns = 0;          ///< process CPU spent inside the window
  std::vector<double> gen_late_us;  ///< issue time minus due time, per request
  std::vector<Redial> redials;

  [[nodiscard]] std::int64_t ok_in_window() const;
  /// Ok replies per second over each run of `per` consecutive completions
  /// (the first run counted from the phase's start), in order.
  [[nodiscard]] std::vector<double> segment_rates(std::size_t per) const;
  [[nodiscard]] std::int64_t rejected() const;  ///< answered with ok = false
  [[nodiscard]] std::int64_t lost() const;      ///< never answered
  /// Due-to-reply latency of every request, in µs, sorted ascending;
  /// rejected and lost ones are +infinity.
  [[nodiscard]] std::vector<double> latencies_us() const;
};

struct DriverOptions {
  std::vector<twostep::transport::Endpoint> servers;
  int connections = 1;
  /// Every connection dials servers[server] first; a lost connection
  /// redials the next server that accepts, round robin.
  int server = 0;
  int sessions = 64;
  std::uint64_t seed = 1;
  /// Stamp a TraceContext on every trace_every-th request (0: none) and
  /// record its client.call span in `recorder`.
  int trace_every = 0;
  twostep::obs::FlightRecorder* recorder = nullptr;
};

class Driver {
 public:
  explicit Driver(DriverOptions options);
  ~Driver();
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Dials every connection; false when a server is unreachable.
  bool connect();

  /// Open loop: Poisson arrivals at `rate` per second for `window_us`,
  /// then up to `drain_us` more for outstanding replies.  `stream` picks
  /// an independent arrival sequence for the same seed.
  Phase open_loop(double rate, std::int64_t window_us, std::int64_t drain_us,
                  std::uint64_t stream);

  /// Closed loop: issues `total` requests keeping `outstanding` in flight
  /// (each reply issues the next), then drains.  The window ends with the
  /// last issue.
  Phase closed_loop(int outstanding, std::int64_t total, std::int64_t drain_us);

  /// Ends the current phase's offering window early (any thread); the
  /// phase then drains as usual.
  void request_stop() noexcept { stop_.store(true, std::memory_order_relaxed); }

  /// Payloads 1..issued() have been sent by this driver.
  [[nodiscard]] std::int64_t issued() const noexcept { return next_payload_ - 1; }

 private:
  struct Conn;
  struct Run;

  Phase run(Run& mode, std::int64_t window_us, std::int64_t drain_us);
  void issue(Phase& phase, std::int64_t due_us, std::int64_t now);
  void send(Conn& conn, const Phase& phase, std::size_t index);
  void flush(Conn& conn, Phase& phase, std::int64_t now);
  void read(Conn& conn, Phase& phase, std::int64_t now, Run& mode);
  void lose(Conn& conn, Phase& phase, std::int64_t now);
  bool redial(Conn& conn, Phase& phase, std::int64_t now);
  [[nodiscard]] int dial(int server) const;

  DriverOptions options_;
  std::vector<Conn> conns_;
  std::vector<std::int64_t> client_ids_;
  std::int64_t next_payload_ = 1;
  std::int64_t id_base_ = 0;  ///< request id = id_base_ + index within the phase
  std::atomic<bool> stop_{false};
};

}  // namespace perfbench
