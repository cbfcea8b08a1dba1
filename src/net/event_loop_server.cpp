#include "net/event_loop_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "net/tracing.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/thread_annotations.h"
#include "util/lock_ranks.h"

namespace w5::net {

namespace {

// Deadlines reap real stalled sockets, so the reactor reads the wall
// clock directly rather than threading a Clock& through every transport.
util::Micros wall_now() {
  static const util::WallClock clock;
  return clock.now();
}

// Timer wheel: 1024 slots of 20 ms; deadlines fire at most one slot late.
constexpr util::Micros kTimerGranularityMicros = 20'000;
constexpr std::size_t kTimerSlots = 1024;

// epoll user-data keys below kFirstConnId name loop-level fds.
constexpr std::uint64_t kListenerKey = 0;
constexpr std::uint64_t kMailboxKey = 1;
constexpr std::uint64_t kFirstConnId = 2;

}  // namespace

// Cross-thread handoff into a loop: new connections from the accepting
// loop, finished responses from pool workers. Pool jobs hold the mailbox
// by shared_ptr, so a completion that outlives serve() posts into a
// closed mailbox and is dropped — never into freed memory.
struct EventLoopHttpServer::Mailbox {
  struct Item {
    bool is_completion = false;
    std::uint64_t conn_id = 0;
    HttpResponse response;            // is_completion
    std::unique_ptr<Connection> io;   // !is_completion (a new connection)
    int fd = -1;
    // Stage attribution (0 when off): the worker's handler stamps, and
    // the post time for the event-loop lag histogram.
    util::Micros handler_start = 0;
    util::Micros handler_done = 0;
    util::Micros posted_at = 0;
  };

  ~Mailbox() {
    if (event_fd >= 0) ::close(event_fd);
  }

  void post(Item item) {
    bool wake = false;
    {
      const util::MutexLock lock(mutex);
      if (open) {
        // Wakeup coalescing: only the post that makes the queue
        // non-empty writes the eventfd; items posted while a drain is
        // already owed piggyback on that wakeup.
        wake = items.empty();
        items.push_back(std::move(item));
      }
    }
    if (wake) {
      const std::uint64_t one = 1;
      (void)::write(event_fd, &one, sizeof(one));
    }
  }

  int event_fd = -1;
  util::Mutex mutex{util::lockrank::kEventLoopMailbox, "Mailbox::mutex"};
  bool open W5_GUARDED_BY(mutex) = true;
  std::vector<Item> items W5_GUARDED_BY(mutex);
};

// Per-connection I/O state around the session. Owned by exactly one
// loop; every field is touched only from that loop's thread (the
// thread-ownership rule).
struct EventLoopHttpServer::Conn {
  Conn(ParserLimits limits, const ServerOptions& options, ServerStats* stats,
       ConnStats* conn_stats)
      : session(limits, options, stats, conn_stats) {}

  std::uint64_t id = 0;
  std::unique_ptr<Connection> io;
  HttpSession session;
  bool read_ready = true;  // ET memo: an edge fired since the last EAGAIN
  // One armed deadline at a time; stale wheel entries are detected by
  // deadline mismatch (re-arm moves the deadline, disarm clears it).
  bool timer_armed = false;
  util::Micros timer_deadline = 0;
  std::size_t out_off = 0;  // bytes of session.head() + body() written
  // Stage attribution stamps (DESIGN.md §16), set only when the server
  // has an on_stage sink. All absolute wall micros; 0 = not reached.
  util::Micros t_request_start = 0;  // first byte of the current request
  util::Micros t_parse_done = 0;     // request fully parsed
  util::Micros t_handler_start = 0;  // handler began (worker stamp)
  util::Micros t_handler_done = 0;   // response back on the loop
  std::string trace_id;              // response X-W5-Trace echo, may be ""
};

struct EventLoopHttpServer::Loop {
  std::size_t index = 0;
  int epoll_fd = -1;
  TimerWheel wheel;
  std::shared_ptr<Mailbox> mailbox;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  // Connections with a pipelined continuation owed (surplus bytes or a
  // pending read edge after a response finished). Drained iteratively by
  // run_loop so a deep pipeline never nests a frame per request.
  std::vector<std::uint64_t> ready;
  std::thread thread;  // loops 1..n-1; loop 0 runs on the serve() caller
  std::atomic<bool> stop{false};

  Loop() : wheel(kTimerGranularityMicros, kTimerSlots) {}
  ~Loop() {
    if (epoll_fd >= 0) ::close(epoll_fd);
  }
};

EventLoopHttpServer::EventLoopHttpServer(
    ServerHandler handler, BoundedExecutor executor, ParserLimits limits,
    ServerOptions options, EventLoopOptions loop_options, ServerStats* stats,
    ConnStats* conn_stats)
    : handler_(std::move(handler)),
      executor_(std::move(executor)),
      limits_(limits),
      options_(options),
      loop_options_(loop_options),
      stats_(stats),
      conn_stats_(conn_stats),
      stage_enabled_(util::kTelemetryEnabled &&
                     static_cast<bool>(loop_options_.telemetry.on_stage)),
      next_conn_id_(kFirstConnId) {}

LoopStats* EventLoopHttpServer::loop_stats(const Loop& loop) const {
  auto* all = loop_options_.telemetry.loop_stats;
  if (all == nullptr || loop.index >= all->size()) return nullptr;
  return &(*all)[loop.index];
}

EventLoopHttpServer::~EventLoopHttpServer() = default;

std::size_t EventLoopHttpServer::serve(TcpListener& listener) {
  listener_ = &listener;
  accepted_.store(0, std::memory_order_relaxed);
  next_conn_id_ = kFirstConnId;
  next_loop_ = 0;

  if (!listener.set_nonblocking().ok() || listener.fd() < 0) {
    listener_ = nullptr;
    return 0;
  }

  const std::size_t n_loops = std::max<std::size_t>(1, loop_options_.io_threads);
  loops_.clear();
  loops_.reserve(n_loops);
  for (std::size_t i = 0; i < n_loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->index = i;
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->mailbox = std::make_shared<Mailbox>();
    loop->mailbox->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->mailbox->event_fd < 0) {
      util::log_error("event_loop: epoll/eventfd setup failed");
      loops_.clear();
      listener_ = nullptr;
      return 0;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;  // level-triggered: re-notified until drained
    ev.data.u64 = kMailboxKey;
    (void)::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->mailbox->event_fd,
                      &ev);
    loops_.push_back(std::move(loop));
  }

  // Loop 0 owns the listener (level-triggered: accept errors can return
  // to epoll without losing an edge). Registered under the listener's
  // close lock: a concurrent listener.close() either runs first (we skip
  // the registration and run_loop exits on the fd<0 check) or waits, so
  // the fd cannot be closed and reused mid-registration.
  (void)listener.with_fd([this](int fd) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerKey;
    (void)::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    return util::ok_status();
  });

  for (std::size_t i = 1; i < loops_.size(); ++i) {
    Loop* loop = loops_[i].get();
    loop->thread = std::thread([this, loop] { run_loop(*loop); });
  }
  run_loop(*loops_[0]);
  request_stop();
  for (std::size_t i = 1; i < loops_.size(); ++i) loops_[i]->thread.join();

  // Teardown: every loop is parked, so the serve thread may touch all of
  // them. Close mailboxes first so straggler completions are dropped.
  for (auto& loop : loops_) {
    {
      const util::MutexLock lock(loop->mailbox->mutex);
      loop->mailbox->open = false;
      loop->mailbox->items.clear();  // undelivered conns close via dtor
    }
    while (!loop->conns.empty()) destroy(*loop, *loop->conns.begin()->second);
  }
  const std::size_t total =
      static_cast<std::size_t>(accepted_.load(std::memory_order_relaxed));
  loops_.clear();
  listener_ = nullptr;
  return total;
}

void EventLoopHttpServer::run_loop(Loop& loop) {
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  const bool owns_listener = loop.index == 0;
  LoopStats* lstats = loop_stats(loop);
  util::Histogram* drift = loop_options_.telemetry.timer_drift_micros;
  util::Histogram* batch = loop_options_.telemetry.epoll_batch;
  while (!loop.stop.load(std::memory_order_acquire)) {
    util::Micros now = wall_now();
    loop.wheel.expire(now, [this, &loop, lstats, drift,
                            now](std::uint64_t key, util::Micros deadline) {
      // Timer-wheel drift: how late past its deadline an entry fired
      // (slot width + epoll latency; a stall here means a hogged loop).
      if (drift != nullptr)
        drift->observe(now > deadline ? now - deadline : 0);
      if (lstats != nullptr)
        lstats->timer_fires.fetch_add(1, std::memory_order_relaxed);
      on_timer(loop, key, deadline);
    });
    // listener.close() from another thread races the epoll registration;
    // the fd check (under a capped wait below) is the reliable signal.
    if (owns_listener && listener_->fd() < 0) break;

    now = wall_now();
    const util::Micros next = loop.wheel.next_deadline(now);
    int timeout_ms = -1;
    if (next >= 0) {
      // +1ms: land past the slot boundary instead of just short of it.
      timeout_ms = static_cast<int>(
          std::min<util::Micros>((std::max<util::Micros>(next - now, 0)) / 1000,
                                 60'000) +
          1);
    }
    if (owns_listener && (timeout_ms < 0 || timeout_ms > 100)) timeout_ms = 100;

    const int n = ::epoll_wait(loop.epoll_fd, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      util::log_error("event_loop: epoll_wait failed");
      break;
    }
    if (n > 0) {
      // Wake/batch shape: many events per wakeup = the loop is saturated
      // (healthy under load); 1-per-wakeup at high rates = syscall-bound.
      if (lstats != nullptr) {
        lstats->epoll_wakeups.fetch_add(1, std::memory_order_relaxed);
        lstats->epoll_events.fetch_add(static_cast<std::uint64_t>(n),
                                       std::memory_order_relaxed);
      }
      if (batch != nullptr) batch->observe(n);
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t key = events[i].data.u64;
      if (key == kListenerKey) {
        accept_ready(loop);
      } else if (key == kMailboxKey) {
        drain_mailbox(loop);
      } else {
        handle_event(loop, key, events[i].events);
      }
    }
    // Deferred pipelined continuations (pump_write). Draining may defer
    // more — loop until quiet so nothing waits on the next epoll wakeup.
    while (!loop.ready.empty()) {
      std::vector<std::uint64_t> ready;
      ready.swap(loop.ready);
      for (const std::uint64_t id : ready) {
        auto it = loop.conns.find(id);
        if (it == loop.conns.end()) continue;  // died later in the batch
        Conn& conn = *it->second;
        if ((conn.session.has_pending() || conn.read_ready) &&
            conn.session.reading())
          pump_read(loop, conn);
      }
    }
  }
}

void EventLoopHttpServer::request_stop() {
  for (auto& loop : loops_) {
    loop->stop.store(true, std::memory_order_release);
    const std::uint64_t one = 1;
    (void)::write(loop->mailbox->event_fd, &one, sizeof(one));
  }
}

void EventLoopHttpServer::accept_ready(Loop& loop) {
  while (true) {
    auto accepted = listener_->accept();
    if (!accepted.ok()) {
      // would_block: drained the backlog. Closed or transient error:
      // return to epoll — level-triggered registration re-fires if more
      // connections are pending, and the fd<0 check handles shutdown.
      return;
    }
    std::unique_ptr<Connection> io = std::move(accepted).value();
    // The raw fd (for epoll) is grabbed before decoration; all I/O goes
    // through the possibly-decorated Connection.
    auto* tcp = static_cast<TcpConnection*>(io.get());
    const int fd = tcp->fd();
    if (!tcp->set_nonblocking().ok()) {
      io->close();
      continue;
    }
    if (loop_options_.decorate) io = loop_options_.decorate(std::move(io));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t id = next_conn_id_++;
    Loop& target = *loops_[next_loop_];
    next_loop_ = (next_loop_ + 1) % loops_.size();
    if (&target == &loop) {
      add_conn(loop, std::move(io), fd, id);
    } else {
      Mailbox::Item item;
      item.io = std::move(io);
      item.fd = fd;
      item.conn_id = id;
      if (loop_options_.telemetry.loop_lag_micros != nullptr)
        item.posted_at = wall_now();
      target.mailbox->post(std::move(item));
    }
  }
}

void EventLoopHttpServer::add_conn(Loop& loop, std::unique_ptr<Connection> io,
                                   int fd, std::uint64_t id) {
  auto owned = std::make_unique<Conn>(limits_, options_, stats_, conn_stats_);
  Conn& conn = *owned;
  conn.id = id;
  conn.io = std::move(io);

  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
  ev.data.u64 = id;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    conn.io->close();
    return;
  }
  loop.conns.emplace(id, std::move(owned));
  if (LoopStats* lstats = loop_stats(loop); lstats != nullptr)
    lstats->connections.fetch_add(1, std::memory_order_relaxed);
  (void)apply(loop, conn, conn.session.start());
  // Bytes may have arrived before registration; with ET that edge is
  // already behind us, so probe the socket once (read_ready starts true).
  pump_read(loop, conn);
}

void EventLoopHttpServer::drain_mailbox(Loop& loop) {
  std::uint64_t drained = 0;
  (void)::read(loop.mailbox->event_fd, &drained, sizeof(drained));
  std::vector<Mailbox::Item> items;
  {
    const util::MutexLock lock(loop.mailbox->mutex);
    items.swap(loop.mailbox->items);
  }
  LoopStats* lstats = loop_stats(loop);
  if (lstats != nullptr && !items.empty())
    lstats->mailbox_items.fetch_add(items.size(), std::memory_order_relaxed);
  // Event-loop lag: how long items sat in the mailbox before this drain
  // ran — the queued-stage delay a cross-thread completion experiences.
  if (util::Histogram* lag = loop_options_.telemetry.loop_lag_micros;
      lag != nullptr && !items.empty()) {
    const util::Micros now = wall_now();
    for (const auto& item : items)
      if (item.posted_at > 0)
        lag->observe(now > item.posted_at ? now - item.posted_at : 0);
  }
  for (auto& item : items) {
    if (item.is_completion) {
      complete(loop, item.conn_id, std::move(item.response),
               item.handler_start, item.handler_done);
    } else {
      add_conn(loop, std::move(item.io), item.fd, item.conn_id);
    }
  }
}

void EventLoopHttpServer::complete(Loop& loop, std::uint64_t id,
                                   HttpResponse response,
                                   util::Micros handler_start,
                                   util::Micros handler_done) {
  auto it = loop.conns.find(id);
  // The connection may have died (reset, write timeout) while the
  // handler ran; its completion is dropped harmlessly.
  if (it == loop.conns.end()) return;
  Conn& conn = *it->second;
  if (conn.session.state() != HttpSession::State::kDispatched) return;
  conn.t_handler_start = handler_start;
  conn.t_handler_done = handler_done;
  if (stage_enabled_)
    conn.trace_id = response.headers.get(kTraceHeader).value_or("");
  (void)apply(loop, conn, conn.session.respond(std::move(response)));
}

void EventLoopHttpServer::handle_event(Loop& loop, std::uint64_t id,
                                       std::uint32_t events) {
  auto it = loop.conns.find(id);
  if (it == loop.conns.end()) return;

  if ((events & (EPOLLIN | EPOLLRDHUP)) != 0) {
    Conn& conn = *it->second;
    conn.read_ready = true;
    if (conn.session.reading()) {
      pump_read(loop, conn);
      it = loop.conns.find(id);  // pump may have destroyed the connection
      if (it == loop.conns.end()) return;
    }
  }
  if ((events & EPOLLOUT) != 0) {
    Conn& conn = *it->second;
    if (conn.session.state() == HttpSession::State::kWriting) {
      pump_write(loop, conn);
      it = loop.conns.find(id);
      if (it == loop.conns.end()) return;
    }
  }
  if ((events & (EPOLLHUP | EPOLLERR)) != 0)
    (void)apply(loop, *it->second, it->second->session.on_reset());
}

void EventLoopHttpServer::pump_read(Loop& loop, Conn& conn) {
  char buf[16 * 1024];
  const auto stamp_request_start = [this, &conn] {
    if (stage_enabled_ && conn.session.state() == HttpSession::State::kIdle)
      conn.t_request_start = wall_now();
  };
  while (conn.session.reading()) {
    // Buffered pipelined bytes first — they precede anything in the socket.
    if (conn.session.has_pending()) {
      stamp_request_start();
      if (!apply(loop, conn, conn.session.feed())) return;
      continue;
    }
    if (!conn.read_ready) return;  // ET: wait for the next edge
    auto n = conn.io->read(buf, sizeof(buf));
    HttpSession::Step step;
    if (n.ok() && n.value() > 0) {
      stamp_request_start();
      step = conn.session.feed(std::string_view(buf, n.value()));
    } else if (n.ok()) {
      step = conn.session.on_eof();
    } else if (n.error().code == "net.would_block") {
      conn.read_ready = false;
      return;
    } else if (n.error().code == "net.timeout") {
      // An injected drop (FaultyConnection): nothing further arrives, so
      // the session reaps as if its deadline fired.
      step = conn.session.on_timeout();
    } else {
      step = conn.session.on_reset();
    }
    if (!apply(loop, conn, step)) return;
  }
}

bool EventLoopHttpServer::apply(Loop& loop, Conn& conn,
                                const HttpSession::Step& step) {
  if (step.deadline && *step.deadline > 0) {
    arm_timer(loop, conn, *step.deadline);
  } else if (step.deadline) {
    conn.timer_armed = false;  // O(1): the wheel entry goes stale
  }
  const std::uint64_t id = conn.id;
  switch (step.action) {
    case HttpSession::Action::kRead:
      return true;
    case HttpSession::Action::kDispatch:
      dispatch(loop, conn);
      break;
    case HttpSession::Action::kWrite:
      conn.out_off = 0;
      pump_write(loop, conn);
      break;
    case HttpSession::Action::kClose: {
      // An early exit (408, 400 truncated) is written best-effort in one
      // call: a client slow enough to be reaped, or already gone, is not
      // waited on.
      const std::string_view iov[2] = {conn.session.head(),
                                       conn.session.body()};
      if (!iov[0].empty()) (void)conn.io->writev_some(iov, 2);
      destroy(loop, conn);
      return false;
    }
  }
  // dispatch / pump_write may have finished the connection synchronously
  // (inline handler, close-after response written in full).
  return loop.conns.find(id) != loop.conns.end();
}

void EventLoopHttpServer::dispatch(Loop& loop, Conn& conn) {
  if (stage_enabled_) conn.t_parse_done = wall_now();

  // The job captures the mailbox (not the loop): if the connection dies
  // or serve() returns before the handler finishes, the completion posts
  // into a closed/ownerless mailbox and is dropped. When the executor
  // runs the job synchronously (inline dispatch), the thread-id check
  // routes the completion straight back in — a matching id proves we are
  // still on the owning loop thread, inside run_loop, so `loop` is alive
  // and the mailbox + eventfd round trip would be pure overhead.
  auto mailbox = loop.mailbox;
  Loop* owner = &loop;
  const std::thread::id owner_tid = std::this_thread::get_id();
  const std::uint64_t id = conn.id;
  // shared_ptr: std::function requires a copyable closure.
  auto shared_request =
      std::make_shared<HttpRequest>(conn.session.take_request());
  const bool admitted =
      executor_([this, mailbox, owner, owner_tid, id, shared_request] {
        const util::Micros handler_start = stage_enabled_ ? wall_now() : 0;
        HttpResponse response = handler_(*shared_request);
        const util::Micros handler_done = stage_enabled_ ? wall_now() : 0;
        if (std::this_thread::get_id() == owner_tid) {
          complete(*owner, id, std::move(response), handler_start,
                   handler_done);
          return;
        }
        Mailbox::Item item;
        item.is_completion = true;
        item.conn_id = id;
        item.response = std::move(response);
        item.handler_start = handler_start;
        item.handler_done = handler_done;
        if (loop_options_.telemetry.loop_lag_micros != nullptr)
          item.posted_at = handler_done > 0 ? handler_done : wall_now();
        mailbox->post(std::move(item));
      });
  if (!admitted) {
    // Load shed: headers are parsed on the (cheap) I/O loop, so the
    // reactor sheds at dispatch.
    (void)apply(loop, conn, conn.session.refuse(shared_request->headers));
  }
}

void EventLoopHttpServer::pump_write(Loop& loop, Conn& conn) {
  const std::string_view head = conn.session.head();
  const std::string_view body = conn.session.body();
  const std::size_t total = head.size() + body.size();
  while (conn.out_off < total) {
    std::string_view iov[2];
    std::size_t iov_count = 0;
    if (conn.out_off < head.size()) {
      iov[iov_count++] = head.substr(conn.out_off);
      if (!body.empty()) iov[iov_count++] = body;
    } else {
      iov[iov_count++] = body.substr(conn.out_off - head.size());
    }
    auto n = conn.io->writev_some(iov, iov_count);
    if (!n.ok()) {
      (void)apply(loop, conn, conn.session.on_reset());
      return;
    }
    if (n.value() == 0) return;  // kernel buffer full; EPOLLOUT edge resumes
    conn.out_off += n.value();
  }

  // Response fully written.
  if (conn.session.answering()) {
    if (LoopStats* lstats = loop_stats(loop); lstats != nullptr)
      lstats->requests.fetch_add(1, std::memory_order_relaxed);
    if (stage_enabled_) report_stages(loop, conn);
  }
  if (!apply(loop, conn, conn.session.written())) return;
  // A pipelined request may already be buffered (or readable). Deferred
  // to run_loop's drain rather than pumped recursively: with inline
  // dispatch a deep pipeline would otherwise nest a full
  // read→dispatch→write frame (16 KiB read buffer included) per request.
  if (conn.session.has_pending() || conn.read_ready)
    loop.ready.push_back(conn.id);
}

void EventLoopHttpServer::on_timer(Loop& loop, std::uint64_t id,
                                   util::Micros deadline) {
  auto it = loop.conns.find(id);
  if (it == loop.conns.end()) return;
  Conn& conn = *it->second;
  // Stale entry: the deadline was re-armed (moved) or disarmed since this
  // wheel entry was scheduled.
  if (!conn.timer_armed || conn.timer_deadline != deadline) return;
  conn.timer_armed = false;
  (void)apply(loop, conn, conn.session.on_timeout());
}

void EventLoopHttpServer::arm_timer(Loop& loop, Conn& conn,
                                    util::Micros delay) {
  const util::Micros now = wall_now();
  conn.timer_armed = true;
  conn.timer_deadline = now + delay;
  loop.wheel.schedule(now, conn.timer_deadline, conn.id);
}

void EventLoopHttpServer::report_stages(Loop& loop, Conn& conn) {
  if (conn.t_request_start == 0) {
    conn.trace_id.clear();
    return;
  }
  StageSample sample;
  sample.trace_id = std::move(conn.trace_id);
  sample.loop_index = loop.index;
  sample.request_start = conn.t_request_start;
  sample.parse_done = conn.t_parse_done;
  sample.handler_start = conn.t_handler_start;
  sample.handler_done = conn.t_handler_done;
  sample.write_done = wall_now();
  // Inline dispatch runs the handler synchronously on this loop; a
  // missing worker stamp collapses the dispatch stage to zero instead of
  // reporting garbage.
  if (sample.handler_start == 0) sample.handler_start = sample.parse_done;
  if (sample.handler_done < sample.handler_start)
    sample.handler_done = sample.handler_start;
  loop_options_.telemetry.on_stage(sample);
  conn.trace_id.clear();
  conn.t_request_start = 0;
  conn.t_parse_done = 0;
  conn.t_handler_start = 0;
  conn.t_handler_done = 0;
}

void EventLoopHttpServer::destroy(Loop& loop, Conn& conn) {
  conn.io->close();  // closing the fd also drops it from the epoll set
  if (LoopStats* lstats = loop_stats(loop); lstats != nullptr)
    lstats->connections.fetch_sub(1, std::memory_order_relaxed);
  loop.conns.erase(conn.id);  // frees `conn`; its session unwinds the gauges
}

}  // namespace w5::net
