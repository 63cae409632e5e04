#include "transport/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace twostep::transport {

namespace {

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

EventLoop::EventLoop() : origin_ns_(monotonic_ns()) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0)
    throw std::system_error(errno, std::generic_category(), "epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw std::system_error(errno, std::generic_category(), "eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    const int err = errno;
    ::close(wake_fd_);
    ::close(epoll_fd_);
    throw std::system_error(err, std::generic_category(), "epoll_ctl(wake)");
  }
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

std::int64_t EventLoop::now_us() const { return (monotonic_ns() - origin_ns_) / 1000; }

void EventLoop::add_fd(int fd, std::uint32_t events, FdCallback cb) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0)
    throw std::system_error(errno, std::generic_category(), "epoll_ctl(add)");
  fds_[fd] = std::make_shared<FdCallback>(std::move(cb));
}

void EventLoop::mod_fd(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0)
    throw std::system_error(errno, std::generic_category(), "epoll_ctl(mod)");
}

void EventLoop::del_fd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);  // best-effort
  fds_.erase(fd);
}

std::uint64_t EventLoop::schedule_after(std::int64_t delay_us, Task fn) {
  if (delay_us < 0) delay_us = 0;
  const std::uint64_t id = next_timer_id_++;
  timer_heap_.push(TimerEntry{now_us() + delay_us, id});
  timers_.emplace(id, std::move(fn));
  return id;
}

bool EventLoop::cancel_timer(std::uint64_t id) { return timers_.erase(id) > 0; }

void EventLoop::post(Task fn) {
  {
    const std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  std::uint64_t one = 1;
  // EINTR/EAGAIN are benign: the eventfd is only a wakeup edge.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::request_stop() noexcept {
  stop_.store(true, std::memory_order_relaxed);
  std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::drain_wake_fd() {
  std::uint64_t buf = 0;
  while (::read(wake_fd_, &buf, sizeof(buf)) > 0) {
  }
}

void EventLoop::run_posted() {
  // Swap under the lock; tasks posted while running land in the next round.
  std::vector<Task> batch;
  {
    const std::lock_guard<std::mutex> lock(post_mu_);
    batch.swap(posted_);
  }
  if (probe_.posted_depth) probe_.posted_depth->record(static_cast<std::int64_t>(batch.size()));
  for (Task& task : batch) task();
}

void EventLoop::fire_due_timers() {
  const std::int64_t now = now_us();
  while (!timer_heap_.empty() && timer_heap_.top().deadline_us <= now) {
    const TimerEntry due = timer_heap_.top();
    timer_heap_.pop();
    const auto it = timers_.find(due.id);
    if (it == timers_.end()) continue;  // cancelled
    Task fn = std::move(it->second);
    timers_.erase(it);
    if (probe_.timer_late_us) probe_.timer_late_us->record(now_us() - due.deadline_us);
    fn();
  }
}

void EventLoop::drain_cancelled_timers() {
  // Skip over lazily-cancelled heap tops so a dead timer never wakes us.
  while (!timer_heap_.empty() && !timers_.contains(timer_heap_.top().id)) timer_heap_.pop();
}

void EventLoop::at_round_end(Task fn) { round_end_.push_back(std::move(fn)); }

void EventLoop::run_round_end() {
  // Swap first: a round-end task scheduling another round-end task (it
  // should not, but defensively) lands in the next round, not this loop.
  std::vector<Task> batch;
  batch.swap(round_end_);
  for (Task& task : batch) task();
}

int EventLoop::next_timeout_ms() {
  drain_cancelled_timers();
  if (timer_heap_.empty()) return -1;
  const std::int64_t delta_us = timer_heap_.top().deadline_us - now_us();
  if (delta_us <= 0) return 0;
  // Round up so we never spin on an almost-due timer.
  return static_cast<int>((delta_us + 999) / 1000);
}

void EventLoop::run() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  // Timing is only measured when the probe asks for it: the unprobed loop
  // reads no clocks beyond what dispatch itself needs.
  const bool timed = probe_.poll_us != nullptr || probe_.work_us != nullptr;
  std::int64_t work_start_us = timed ? now_us() : 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    run_posted();
    fire_due_timers();
    if (probe_.timer_depth) probe_.timer_depth->record(static_cast<std::int64_t>(timers_.size()));
    run_round_end();
    if (stop_.load(std::memory_order_relaxed)) break;
    const int timeout = next_timeout_ms();
    std::int64_t poll_start_us = 0;
    if (timed) {
      poll_start_us = now_us();
      if (probe_.work_us) probe_.work_us->record(poll_start_us - work_start_us);
    }
    const int ready = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout);
    if (timed) {
      work_start_us = now_us();
      if (probe_.poll_us) probe_.poll_us->record(work_start_us - poll_start_us);
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "epoll_wait");
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        drain_wake_fd();
        continue;
      }
      // Look the callback up per event: an earlier callback in this batch
      // may have closed this fd (stale level-triggered events are skipped).
      const auto it = fds_.find(fd);
      if (it == fds_.end()) continue;
      const std::shared_ptr<FdCallback> cb = it->second;  // keep alive
      (*cb)(events[i].events);
    }
  }
}

}  // namespace twostep::transport
