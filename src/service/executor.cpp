#include "service/executor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/timer.h"
#include "service/json.h"
#include "service/wire.h"

#ifdef __unix__
#include <poll.h>
#include <unistd.h>
#endif

namespace s35::service {

#ifdef __unix__

namespace {

bool terminal(JobState s) { return s != JobState::kQueued && s != JobState::kRunning; }

// One connection. The fd doubles as its identity in the outstanding-jobs
// map (unique while open).
struct Conn {
  int fd = -1;
  std::string acc;        // partial wire frames
  bool draining = false;  // kDrain received; kDrained owed at outstanding==0
  int outstanding = 0;    // jobs submitted here and not yet reported
};

// The single pending kPlanPull. The JobService worker resolves plans one
// job at a time, so one slot is the whole protocol state.
struct PullState {
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t want = 0;  // PlanKey::hash() awaited; 0 = none
  bool answered = false;
  bool miss = false;
  CachedPlan plan;
};

// Per-job injected process faults from the submit frame, as 0-based pass
// indices of that job's run; `passes` counts the hook calls so far.
struct JobFaults {
  std::int64_t kill_pass = -1;
  std::int64_t stall_pass = -1;
  int stall_ms = 0;
  std::int64_t sdc_pass = -1;
  std::int64_t passes = 0;
};

JobFaults faults_from_json(const std::string& s) {
  JobFaults f;
  std::int64_t v = 0;
  if (json::get_int(s, "fk", &v)) f.kill_pass = v;
  if (json::get_int(s, "fs", &v)) f.stall_pass = v;
  if (json::get_int(s, "fsm", &v)) f.stall_ms = static_cast<int>(v);
  if (json::get_int(s, "fe", &v)) f.sdc_pass = v;
  return f;
}

// listen_fd >= 0 serves a listener; otherwise `conn_fd` is the one
// connection, and the loop ends with it.
int run(int listen_fd, int (*accept_conn)(int), int conn_fd, const ExecutorOptions& opts,
        const std::atomic<bool>* stop) {
  std::signal(SIGPIPE, SIG_IGN);
  const bool listener = listen_fd >= 0;
  const int beat_ms = std::max(5, opts.beat_ms);
  const int window = std::max(1, opts.window);

  // The frame loop and the service hooks (which run on the JobService
  // worker thread) share the connection fds for writing.
  std::mutex write_mu;
  std::atomic<int> router_fd{-1};  // where pulls/publishes go; oldest conn
  std::atomic<std::uint64_t> progress{0};
  PullState pull;
  std::mutex faults_mu;
  std::unordered_map<std::uint64_t, JobFaults> faults;  // by service job id

  ServiceOptions sopts = opts.service;
  sopts.pass_hook = [&](std::uint64_t job, const JobSpec&, int) -> fault::Status {
    // Abrupt death, no flushing or unwinding — what a crash or OOM kill
    // looks like from the parent. The pass checkpoint is already durable
    // (the hook runs after the save), so the parent fails the job over.
    const std::uint64_t global = progress.load(std::memory_order_relaxed);
    if (opts.kill_at_pass >= 0 && global == static_cast<std::uint64_t>(opts.kill_at_pass))
      ::raise(SIGKILL);
    JobFaults f;
    {
      std::lock_guard<std::mutex> lock(faults_mu);
      if (const auto it = faults.find(job); it != faults.end()) {
        f = it->second;
        ++it->second.passes;
      }
    }
    if (f.passes == f.kill_pass) ::raise(SIGKILL);
    // Hard hang: progress freezes while this loop keeps beating — only
    // progress-staleness detection catches it.
    if (f.passes == f.stall_pass && f.stall_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(f.stall_ms));
    progress.fetch_add(1, std::memory_order_relaxed);
    if (f.passes == f.sdc_pass)
      return {fault::ErrorCode::kSdcDetected,
              "injected unrecoverable SDC (re-execution budget exhausted)"};
    return {};
  };
  if (listener) {
    sopts.plan_fetch = [&](const PlanKey& key) -> std::optional<CachedPlan> {
      const int fd = router_fd.load(std::memory_order_acquire);
      if (fd < 0) return std::nullopt;
      {
        std::lock_guard<std::mutex> lock(pull.mu);
        pull.want = key.hash();
        pull.answered = false;
        pull.miss = false;
      }
      {
        std::lock_guard<std::mutex> lock(write_mu);
        // Re-check under write_mu: drop_conn clears router_fd and closes the
        // fd under this lock, so a controller still current here cannot be
        // closed (or its number recycled) mid-write.
        if (router_fd.load(std::memory_order_acquire) != fd) return std::nullopt;
        if (!wire::write_frame(fd, wire::FrameType::kPlanPull,
                               wire::plan_key_to_json(key)))
          return std::nullopt;
      }
      std::unique_lock<std::mutex> lock(pull.mu);
      pull.cv.wait_for(lock, std::chrono::milliseconds(opts.pull_timeout_ms),
                       [&] { return pull.answered; });
      pull.want = 0;
      if (!pull.answered || pull.miss) return std::nullopt;
      return pull.plan;
    };
    sopts.plan_publish = [&](const PlanKey& key, const CachedPlan& p) {
      const int fd = router_fd.load(std::memory_order_acquire);
      if (fd < 0) return;
      std::lock_guard<std::mutex> lock(write_mu);
      if (router_fd.load(std::memory_order_acquire) != fd) return;
      wire::write_frame(fd, wire::FrameType::kPlanPush,
                        wire::plan_entry_to_json(key, p, 0));
    };
  }

  JobService service(sopts);

  const std::string hello = "{\"node\":\"" + json::escape(opts.name) +
                            "\",\"jobs\":" + std::to_string(window) + "}";
  std::vector<Conn> conns;
  // outer (parent) job id -> {inner service id, origin connection fd}
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, int>> jobs;
  std::int64_t last_beat_ns = 0;
  std::vector<pollfd> pfds;
  bool drained = false;  // the one connection drained (exit 0)

  const auto greet = [&](int fd) {
    bool ok = false;
    {
      std::lock_guard<std::mutex> lock(write_mu);
      ok = wire::write_frame(fd, wire::FrameType::kHello, hello);
    }
    if (!ok) {
      ::close(fd);
      return;
    }
    Conn c;
    c.fd = fd;
    conns.push_back(std::move(c));
  };
  const auto send = [&](int fd, wire::FrameType type, const std::string& payload) {
    std::lock_guard<std::mutex> lock(write_mu);
    return wire::write_frame(fd, type, payload);
  };
  // Never call while holding write_mu (std::mutex is non-recursive).
  const auto drop_conn = [&](Conn& c) {
    if (c.fd < 0) return;
    // The peer is gone; its jobs keep running (they may finish before a
    // reconnect) but their results have no recipient anymore.
    for (auto it = jobs.begin(); it != jobs.end();) {
      if (it->second.second != c.fd) {
        ++it;
        continue;
      }
      std::lock_guard<std::mutex> lock(faults_mu);
      faults.erase(it->second.first);
      it = jobs.erase(it);
    }
    // Close under write_mu, clearing router_fd first: the plan hooks write
    // to router_fd under this mutex, and a close racing such a write could
    // recycle the fd number into a newly accepted connection, landing the
    // frame on the wrong peer.
    std::lock_guard<std::mutex> lock(write_mu);
    if (router_fd.load(std::memory_order_acquire) == c.fd)
      router_fd.store(-1, std::memory_order_release);
    ::close(c.fd);
    c.fd = -1;
  };

  const auto handle_plan_push = [&](const std::string& payload) {
    PlanKey key;
    CachedPlan plan;
    std::uint64_t ver = 0;
    bool miss = false;
    json::get_bool(payload, "miss", &miss);
    if (miss) {
      if (!wire::plan_key_from_json(payload, &key)) return;
    } else {
      if (!wire::plan_entry_from_json(payload, &key, &plan, &ver)) return;
      service.plan_cache().insert(key, plan);
    }
    std::lock_guard<std::mutex> lock(pull.mu);
    if (pull.want != 0 && pull.want == key.hash() && !pull.answered) {
      pull.answered = true;
      pull.miss = miss;
      pull.plan = plan;
      pull.cv.notify_all();
    }
  };

  const auto handle_submit = [&](Conn& c, const std::string& payload) {
    JobSpec spec;
    std::uint64_t outer = 0;
    JobResult r;
    r.error = fault::ErrorCode::kMismatch;
    if (!wire::spec_from_json(payload, &outer, &spec)) {
      r.message = "malformed submit frame";
    } else if (c.outstanding >= window) {
      r.message = "executor window exceeded";
    } else {
      // Register the faults before the job can reach its first pass hook.
      std::lock_guard<std::mutex> lock(faults_mu);
      const auto id = service.submit(spec);
      if (id.ok()) {
        faults[id.value()] = faults_from_json(payload);
        jobs[outer] = {id.value(), c.fd};
        ++c.outstanding;
        return;
      }
      r.error = id.status().code();
      r.message = id.status().message();
    }
    send(c.fd, wire::FrameType::kResult,
         wire::result_to_json(outer, JobState::kFailed, r));
  };

  if (!listener) greet(conn_fd);
  while ((stop == nullptr || !stop->load(std::memory_order_acquire)) &&
         (listener || !conns.empty())) {
    pfds.clear();
    if (listener) pfds.push_back({listen_fd, POLLIN, 0});
    for (const Conn& c : conns)
      if (c.fd >= 0) pfds.push_back({c.fd, POLLIN, 0});
    // Terminals ship at the next wake-up, so this bounds their added
    // latency: at most 20 ms, at least twice per beat.
    ::poll(pfds.data(), pfds.size(), std::clamp(beat_ms / 2, 5, 20));

    // Accept everything pending; greet each connection immediately.
    if (listener)
      for (int fd; (fd = accept_conn(listen_fd)) >= 0;) greet(fd);
    // The oldest live connection is the controller for pulls/publishes.
    {
      int ctl = -1;
      for (const Conn& c : conns)
        if (c.fd >= 0) {
          ctl = c.fd;
          break;
        }
      router_fd.store(ctl, std::memory_order_release);
    }

    for (Conn& c : conns) {
      while (c.fd >= 0) {
        wire::Frame f;
        const int got = wire::read_frame(c.fd, &c.acc, &f, 0);
        if (got == 0) break;
        if (got < 0) {
          drop_conn(c);
          break;
        }
        switch (f.type) {
          case wire::FrameType::kSubmit:
            handle_submit(c, f.payload);
            break;
          case wire::FrameType::kCancel: {
            std::int64_t outer = 0;
            if (json::get_int(f.payload, "job", &outer)) {
              const auto it = jobs.find(static_cast<std::uint64_t>(outer));
              if (it != jobs.end()) service.cancel(it->second.first);
            }
            break;
          }
          case wire::FrameType::kPlanPush:
            handle_plan_push(f.payload);
            break;
          case wire::FrameType::kDrain:
            c.draining = true;
            break;
          default:
            break;
        }
      }
    }

    // Ship terminals exactly once to their submitting connection. A failed
    // write only records the dead fd; the drop happens after the loop —
    // drop_conn erases this map's entries for that fd, which would
    // invalidate the live iterator.
    std::vector<int> dead_fds;
    for (auto it = jobs.begin(); it != jobs.end();) {
      const auto info = service.info(it->second.first);
      if (!info || !terminal(info->state)) {
        ++it;
        continue;
      }
      const int fd = it->second.second;
      const bool dead = std::find(dead_fds.begin(), dead_fds.end(), fd) != dead_fds.end();
      if (!dead && !send(fd, wire::FrameType::kResult,
                         wire::result_to_json(it->first, info->state, info->result)))
        dead_fds.push_back(fd);
      for (Conn& c : conns)
        if (c.fd == fd) --c.outstanding;
      {
        std::lock_guard<std::mutex> lock(faults_mu);
        faults.erase(it->second.first);
      }
      it = jobs.erase(it);
    }
    for (const int fd : dead_fds)
      for (Conn& c : conns)
        if (c.fd == fd) drop_conn(c);

    // kDrained once a draining connection has nothing left in flight. A
    // listener keeps serving; a worker's one connection is then done.
    for (Conn& c : conns) {
      if (c.fd < 0 || !c.draining || c.outstanding > 0) continue;
      c.draining = false;
      const bool ok = send(c.fd, wire::FrameType::kDrained, "{}");
      drained = ok && !listener;
      if (!ok || drained) drop_conn(c);
    }

    const std::int64_t now = steady_now_ns();
    if (now - last_beat_ns >= static_cast<std::int64_t>(beat_ms) * 1'000'000) {
      last_beat_ns = now;
      const std::string beat =
          "{\"job\":0,\"progress\":" +
          std::to_string(progress.load(std::memory_order_relaxed)) +
          ",\"plan_hits\":" + std::to_string(service.plan_cache().hits()) +
          ",\"plan_misses\":" + std::to_string(service.plan_cache().misses()) + "}";
      for (Conn& c : conns)
        if (c.fd >= 0 && !send(c.fd, wire::FrameType::kBeat, beat)) drop_conn(c);
    }

    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const Conn& c) { return c.fd < 0; }),
                conns.end());
  }

  // Typed goodbye: every live connection — and every connection still in
  // the accept backlog — gets an unavailable rejection before close, so a
  // router mid-handshake sees a reason, never a bare EOF.
  router_fd.store(-1, std::memory_order_release);
  const std::string bye =
      "{\"error\":\"unavailable\",\"message\":\"node shutting down\"}";
  {
    std::lock_guard<std::mutex> lock(write_mu);
    for (const Conn& c : conns) {
      if (c.fd < 0) continue;
      wire::write_frame(c.fd, wire::FrameType::kReject, bye);
      ::close(c.fd);
    }
    if (listener) {
      for (int fd; (fd = accept_conn(listen_fd)) >= 0;) {
        wire::write_frame(fd, wire::FrameType::kReject, bye);
        ::close(fd);
      }
      ::close(listen_fd);
    }
  }
  service.shutdown();  // persists the local plan-cache shard when configured
  return listener || drained ? 0 : 1;
}

}  // namespace

int serve_listener(int listen_fd, int (*accept_conn)(int), const ExecutorOptions& opts,
                   const std::atomic<bool>* stop) {
  return run(listen_fd, accept_conn, -1, opts, stop);
}

int serve_connection(int fd, const ExecutorOptions& opts) {
  return run(-1, nullptr, fd, opts, nullptr);
}

#else  // !__unix__

int serve_listener(int, int (*)(int), const ExecutorOptions&, const std::atomic<bool>*) {
  std::fprintf(stderr, "s35-serve: the frame executor requires POSIX\n");
  return 1;
}
int serve_connection(int, const ExecutorOptions&) {
  std::fprintf(stderr, "s35-serve: the frame executor requires POSIX\n");
  return 1;
}

#endif

}  // namespace s35::service
