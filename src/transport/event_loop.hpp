// Non-blocking I/O event loop for the live node runtime.
//
// A minimal epoll reactor: level-triggered fd callbacks, a monotonic-clock
// timer heap, and a thread-safe post() queue woken through an eventfd.  One
// loop = one thread: every callback runs on the thread inside run(); the
// only cross-thread entry points are post() and request_stop() (the latter
// additionally async-signal-safe, so a SIGINT handler can stop a server).
//
// Time is exposed as microseconds since loop construction, which is what the
// live consensus::Env reports as sim::Tick — the protocols run on the same
// integer clock in both worlds, only the unit convention changes (one tick =
// one microsecond instead of one abstract round unit).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <vector>

#include "obs/histogram.hpp"

namespace twostep::transport {

/// Optional loop self-instrumentation.  All pointers null (the default)
/// costs one branch per loop iteration and zero clock reads; with
/// histograms installed, each wakeup records how long the loop blocked in
/// epoll_wait, how long the dispatch work took, and the timer/posted queue
/// depths it saw.  Install before run() starts; the histograms are
/// internally thread-safe.
struct LoopProbe {
  obs::LogHistogram* poll_us = nullptr;      ///< time blocked in epoll_wait
  obs::LogHistogram* work_us = nullptr;      ///< non-blocking dispatch time per wakeup
  obs::LogHistogram* timer_depth = nullptr;  ///< armed timers, sampled per iteration
  obs::LogHistogram* posted_depth = nullptr; ///< posted tasks drained per iteration
  /// Per fired timer: fire time minus deadline.  The loop sleeps in whole
  /// milliseconds (timeouts round up), so this shows what a sub-ms timer
  /// really waits; one clock read per fired timer, none without the probe.
  obs::LogHistogram* timer_late_us = nullptr;
};

class EventLoop {
 public:
  using FdCallback = std::function<void(std::uint32_t events)>;
  using Task = std::function<void()>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Microseconds elapsed since construction (CLOCK_MONOTONIC).
  [[nodiscard]] std::int64_t now_us() const;

  /// Registers `fd` for the epoll event mask `events` (EPOLLIN/EPOLLOUT...).
  /// The callback runs on the loop thread for every ready notification and
  /// may call mod_fd/del_fd, including on its own fd.
  void add_fd(int fd, std::uint32_t events, FdCallback cb);
  void mod_fd(int fd, std::uint32_t events);
  void del_fd(int fd);

  /// Arms a one-shot timer `delay_us` microseconds from now; returns an id
  /// usable with cancel_timer.  Loop-thread only.
  std::uint64_t schedule_after(std::int64_t delay_us, Task fn);

  /// Cancels a pending timer; false if it already fired or is unknown.
  bool cancel_timer(std::uint64_t id);

  /// Enqueues `fn` to run on the loop thread.  Thread-safe; wakes the loop.
  void post(Task fn);

  /// Enqueues `fn` to run once at the end of the current dispatch round,
  /// before the loop blocks in epoll_wait again.  Loop-thread only.  The
  /// transport uses this to coalesce every frame queued during one round
  /// into a single vectored flush per connection.
  void at_round_end(Task fn);

  /// The epoll timeout the loop would use right now, in ms (-1 = no timer).
  /// Drains lazily-cancelled timer-heap entries first — the same fix the
  /// simulator's scheduler got in PR 2: a pile of cancelled timers at the
  /// top of the heap must not manufacture spurious zero-timeout wakeups.
  /// Exposed for regression tests.
  [[nodiscard]] int next_timeout_hint_ms() { return next_timeout_ms(); }

  /// Dispatches events until request_stop().  Runs posted tasks, due timers
  /// and fd callbacks; blocks in epoll_wait when idle.
  void run();

  /// Requests run() to return after the current dispatch round.  Safe from
  /// any thread and from signal handlers (atomic store + eventfd write).
  void request_stop() noexcept;

  /// Installs the self-instrumentation probe.  Call before run() starts.
  void set_probe(const LoopProbe& probe) noexcept { probe_ = probe; }

  /// True between run() entry and request_stop() taking effect.
  [[nodiscard]] bool stopped() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

 private:
  struct TimerEntry {
    std::int64_t deadline_us;
    std::uint64_t id;
    bool operator>(const TimerEntry& o) const noexcept {
      return deadline_us != o.deadline_us ? deadline_us > o.deadline_us : id > o.id;
    }
  };

  void drain_wake_fd();
  void run_posted();
  void fire_due_timers();
  void run_round_end();
  /// Pops cancelled entries off the top of the timer heap so they cannot
  /// influence the epoll timeout.
  void drain_cancelled_timers();
  /// epoll_wait timeout until the next timer, in ms; -1 when no timer.
  [[nodiscard]] int next_timeout_ms();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::int64_t origin_ns_ = 0;

  // shared_ptr so a callback erasing its own (or another) fd mid-dispatch
  // cannot free the std::function currently executing.
  std::unordered_map<int, std::shared_ptr<FdCallback>> fds_;

  std::priority_queue<TimerEntry, std::vector<TimerEntry>, std::greater<>> timer_heap_;
  std::unordered_map<std::uint64_t, Task> timers_;  ///< armed (not cancelled)
  std::uint64_t next_timer_id_ = 1;

  std::mutex post_mu_;
  std::vector<Task> posted_;

  std::vector<Task> round_end_;  ///< loop-thread only; drained every round

  LoopProbe probe_;

  std::atomic<bool> stop_{false};
};

}  // namespace twostep::transport
