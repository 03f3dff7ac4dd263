// The networking substrate of the live collector (§8: the platform speaks
// the BGP wire protocol to thousands of peers over real TCP sessions): a
// single-threaded, non-blocking epoll event loop.
//
// Design (DESIGN.md §7):
//   * One thread owns every fd. No locks on the data path — sessions,
//     listeners and the HTTP endpoint all run as callbacks on this loop,
//     which is exactly the share-nothing model the per-VP daemon wants
//     (one relaxed-atomic metrics increment is the only cross-thread
//     visible state).
//   * Edge-triggered (EPOLLET) read/write interest: callbacks must drain
//     until EAGAIN. Level-triggered wakeups per undrained byte would make
//     a 4k-peer collector spin.
//   * Timers live in a monotonic hashed timer wheel (fixed granularity,
//     256 slots, deadline-checked entries so arbitrarily far deadlines
//     work without cascading). tick() scheduling for the BGP daemons —
//     keepalives, hold timers, reconnect backoff — costs O(1) per timer
//     per wheel step, independent of the peer count.
//   * The collector runs two loops, ingest and control, each on its own
//     thread (DESIGN.md §14). The ONLY cross-thread entry points are
//     post() (task hand-off via an eventfd wakeup) and stop(); everything
//     else keeps the one-thread-owns-every-fd contract, which
//     in_loop_thread() lets callers assert.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gill::net {

/// Bitmask for fd interest, mapped onto EPOLLIN/EPOLLOUT internally so
/// callers do not need <sys/epoll.h>.
enum : std::uint32_t {
  kReadable = 1u << 0,
  kWritable = 1u << 1,
};

class EventLoop {
 public:
  /// `events` is a kReadable/kWritable mask. Error/hangup conditions are
  /// delivered as kReadable so the handler's drain loop observes them.
  using FdCallback = std::function<void(std::uint32_t events)>;
  using TimerCallback = std::function<void()>;
  using TimerId = std::uint64_t;

  /// `granularity_ms` is the wheel's tick size: the scheduling error bound
  /// for every timer (BGP timers are whole seconds; 10 ms is plenty).
  explicit EventLoop(std::uint32_t granularity_ms = 10);
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` with edge-triggered interest. Replaces any previous
  /// registration of the same fd. Returns false when epoll_ctl fails.
  bool add(int fd, std::uint32_t interest, FdCallback callback);
  /// Changes the interest mask of a registered fd. An interest of 0 keeps
  /// the registration but disarms both directions — the backpressure lever:
  /// with EPOLLIN off, unread socket bytes close the kernel receive window
  /// and the sender stalls (TcpTransport's watermark pause).
  bool modify(int fd, std::uint32_t interest);
  /// Deregisters `fd` (safe from inside its own callback; the fd is not
  /// closed). Unknown fds are ignored.
  void remove(int fd);
  bool watched(int fd) const { return handlers_.contains(fd); }
  std::size_t watched_count() const noexcept { return handlers_.size(); }

  /// One-shot timer: fires once, `delay_ms` from now (rounded up to the
  /// wheel granularity). The id stays valid until the timer fires or is
  /// cancelled.
  TimerId call_after(std::uint64_t delay_ms, TimerCallback callback);
  /// Recurring timer: fires every `interval_ms` until cancelled. This is
  /// what drives BgpDaemon::tick() for every session.
  TimerId call_every(std::uint64_t interval_ms, TimerCallback callback);
  /// Cancels a pending timer; unknown/expired ids are ignored.
  void cancel(TimerId id);
  std::size_t pending_timers() const noexcept { return timer_count_; }

  /// Waits for fd events for at most `max_wait_ms` (clamped down so due
  /// timers are never delayed past the wheel granularity), dispatches
  /// them, then advances the wheel. Returns the number of fd events
  /// dispatched. 0 max_wait polls.
  int run_once(int max_wait_ms);

  /// Runs until stop(). Blocks in epoll_wait between events.
  void run();
  /// Makes run() return after the current iteration. Callable from any
  /// callback, and — unlike every other method except post() — from any
  /// thread: the atomic store pairs with a wakeup write so a loop parked
  /// in epoll_wait notices immediately.
  void stop() noexcept {
    stopped_.store(true, std::memory_order_release);
    wake();
  }
  bool stopped() const noexcept {
    return stopped_.load(std::memory_order_acquire);
  }

  /// Enqueues `task` to run on the loop thread during its next iteration
  /// and wakes the loop (eventfd). THREAD-SAFE — this is the cross-thread
  /// hand-off primitive: the merge plane posts mirror harvests and filter
  /// installs to the ingest loop. Tasks run in post order, after fd
  /// dispatch, before timers.
  /// Returns false when the loop has no wakeup fd (construction failed).
  bool post(std::function<void()> task);
  /// Forces the next epoll_wait to return (no-op without a wakeup fd).
  void wake() noexcept;

  /// True when the calling thread is the one inside run()/run_once() —
  /// the owner allowed to touch fds and timers. Loops that were never run
  /// have no owner yet and answer true (single-threaded setup phase).
  bool in_loop_thread() const noexcept {
    const auto owner = owner_.load(std::memory_order_acquire);
    return owner == std::thread::id{} || owner == std::this_thread::get_id();
  }

  /// Monotonic milliseconds since the loop was constructed (CLOCK_MONOTONIC;
  /// immune to wall-clock steps).
  std::uint64_t now_ms() const;

 private:
  static constexpr std::size_t kWheelSlots = 256;

  struct Timer {
    TimerId id = 0;
    std::uint64_t deadline_ms = 0;
    std::uint64_t interval_ms = 0;  // 0 = one-shot
    TimerCallback callback;
  };

  TimerId schedule(std::uint64_t first_delay_ms, std::uint64_t interval_ms,
                   TimerCallback callback);
  void insert(Timer&& timer);
  void advance_wheel();
  void run_posted();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: post()/stop() from other threads
  std::uint64_t start_ns_ = 0;
  std::uint32_t granularity_ms_;
  std::atomic<bool> stopped_{false};
  std::atomic<std::thread::id> owner_{};  // thread inside run()/run_once()
  std::mutex post_mutex_;
  std::vector<std::function<void()>> posted_;
  // shared_ptr so a handler that removes itself (or another fd) mid-dispatch
  // cannot free a callback the dispatcher is still executing.
  std::map<int, std::shared_ptr<FdCallback>> handlers_;
  std::vector<std::vector<Timer>> wheel_{kWheelSlots};
  std::uint64_t next_timer_id_ = 1;
  std::uint64_t last_advance_ms_ = 0;  // wheel progress watermark
  std::size_t timer_count_ = 0;
  // Cancels issued from inside a timer callback target entries already
  // harvested out of the wheel; they are recorded here so the dispatch
  // loop skips/never re-arms them.
  bool dispatching_ = false;
  std::vector<TimerId> cancelled_in_dispatch_;
};

}  // namespace gill::net
