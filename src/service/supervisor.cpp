#include "service/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/env.h"
#include "common/timer.h"
#include "service/executor.h"
#include "service/json.h"
#include "service/wire.h"

#ifdef __unix__
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <cerrno>
#endif

namespace s35::service {

namespace {

JobTableOptions table_options(const SupervisorOptions& o) {
  JobTableOptions t;
  t.max_points = o.max_points;
  t.queue_capacity = o.queue_capacity;
  t.tenancy = o.tenancy;
  t.checkpoint_dir = o.checkpoint_dir;
  t.checkpoint_every = o.checkpoint_every;
  t.max_attempts = o.max_job_attempts;
  return t;
}

}  // namespace

SupervisorOptions SupervisorOptions::from_env() {
  SupervisorOptions o;
  o.service = ServiceOptions::from_env();
  o.workers = static_cast<int>(env_int("S35_SERVE_WORKERS", o.workers));
  o.beat_ms = static_cast<int>(env_int("S35_SERVE_BEAT_MS", o.beat_ms));
  o.hang_ms = static_cast<int>(env_int("S35_SERVE_HANG_MS", o.hang_ms));
  o.max_restarts =
      static_cast<int>(env_int("S35_SERVE_MAX_RESTARTS", o.max_restarts));
  o.checkpoint_dir = env_string("S35_SERVE_CKPT_DIR", o.checkpoint_dir);
  o.checkpoint_every =
      static_cast<int>(env_int("S35_SERVE_CKPT_EVERY", o.checkpoint_every));
  o.queue_capacity = o.service.queue_capacity;
  o.max_points = o.service.max_points;
  // Tenancy is enforced at the supervisor's admission edge, not per worker:
  // the per-worker template parsed the env knobs, this plane owns them.
  o.tenancy = o.service.tenancy;
  o.service.tenancy = TenancyOptions{};
  return o;
}

#ifdef __unix__

Supervisor::Supervisor(SupervisorOptions options)
    : opts_(std::move(options)), table_(table_options(opts_)) {
  if (opts_.workers < 1) opts_.workers = 1;
  if (opts_.beat_ms < 5) opts_.beat_ms = 5;
  // Workers inherit the per-worker service template; each gets its own
  // PlanCache shard over the shared on-disk file (plan_cache.cpp flocks
  // around save/load, so shards never interleave partial writes).
  if (::pipe(wake_fds_) != 0) {
    std::perror("s35-serve: wake pipe");
    wake_fds_[0] = wake_fds_[1] = -1;
  } else {
    // Both ends nonblocking: the monitor drains the pipe until EAGAIN, and
    // a full pipe must never stall a submitter's wake().
    for (const int fd : wake_fds_)
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  }
  slots_.resize(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    slots_[static_cast<std::size_t>(i)].index = i;
    spawn(slots_[static_cast<std::size_t>(i)]);
  }
  monitor_ = std::thread(&Supervisor::monitor_loop, this);
}

Supervisor::~Supervisor() { shutdown(); }

bool Supervisor::spawn(WorkerSlot& w) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    std::perror("s35-serve: socketpair");
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("s35-serve: fork");
    ::close(sv[0]);
    ::close(sv[1]);
    return false;
  }
  if (pid == 0) {
    // Child: drop every supervisor-side descriptor so a sibling's death is
    // visible as EOF to the supervisor alone, then become a worker. _Exit
    // skips atexit handlers — this process shares them with the parent.
    ::close(sv[0]);
    for (const WorkerSlot& other : slots_)
      if (other.fd >= 0) ::close(other.fd);
    if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
    if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
    ::signal(SIGTERM, SIG_DFL);
    ::signal(SIGINT, SIG_DFL);
    ExecutorOptions eo;
    eo.name = "worker-" + std::to_string(w.index);
    eo.beat_ms = opts_.beat_ms;
    eo.window = 1;
    eo.service = opts_.service;
    std::_Exit(serve_connection(sv[1], eo));
  }
  ::close(sv[1]);
  const std::int64_t now = steady_now_ns();
  w.pid = pid;
  w.fd = sv[0];
  w.acc.clear();
  w.live = true;
  w.drained = false;
  w.job = 0;
  w.progress = 0;
  w.progress_ns = now;
  w.beat_ns = now;
  return true;
}

void Supervisor::wake() {
  if (wake_fds_[1] >= 0) {
    const char b = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &b, 1);
  }
}

fault::Expected<std::uint64_t> Supervisor::submit(const JobSpec& spec) {
  const auto id = table_.submit(spec);
  if (id.ok()) wake();
  return id;
}

bool Supervisor::cancel(std::uint64_t id) {
  if (!table_.cancel(id)) return false;
  wake();  // the monitor forwards a running job's cancel to its worker
  return true;
}

ServiceStats Supervisor::stats() const {
  ServiceStats out = table_.stats();
  out.threads = opts_.service.threads;
  out.workers = opts_.workers;
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t now = steady_now_ns();
  for (const WorkerSlot& w : slots_) {
    if (!w.live) continue;
    ++out.workers_live;
    out.max_heartbeat_age_ms =
        std::max(out.max_heartbeat_age_ms, (now - w.beat_ns) / 1'000'000);
  }
  return out;
}

void Supervisor::on_result(WorkerSlot& w, const std::string& payload) {
  std::uint64_t id = 0;
  JobState state = JobState::kFailed;
  JobResult r;
  if (!wire::result_from_json(payload, &id, &state, &r)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (w.job != id) return;  // stale frame from a previous assignment
    w.job = 0;
  }
  // Integrity escalation: the worker's in-process ladder (audits, ring
  // sentinels, re-execution) gave up. The worker's address space is not
  // trusted anymore — recycle the process and fail the job over, exactly
  // like a crash.
  if (state == JobState::kFailed && r.error == fault::ErrorCode::kSdcDetected) {
    table_.count(&ServiceStats::sdc_escalations);
    table_.failover(id, "SDC escalation: " + r.message);
    if (w.pid > 0) ::kill(static_cast<pid_t>(w.pid), SIGKILL);
    return;
  }
  table_.finish(id, state, r);
}

void Supervisor::handle_frame(WorkerSlot& w, std::uint32_t type,
                              const std::string& payload) {
  switch (static_cast<wire::FrameType>(type)) {
    case wire::FrameType::kBeat: {
      std::int64_t p = 0;
      const std::int64_t now = steady_now_ns();
      std::lock_guard<std::mutex> lock(mu_);
      w.beat_ns = now;
      if (json::get_int(payload, "progress", &p) &&
          static_cast<std::uint64_t>(p) != w.progress) {
        w.progress = static_cast<std::uint64_t>(p);
        w.progress_ns = now;
      }
      break;
    }
    case wire::FrameType::kResult:
      on_result(w, payload);
      break;
    case wire::FrameType::kDrained: {
      std::lock_guard<std::mutex> lock(mu_);
      w.drained = true;
      break;
    }
    default:
      break;
  }
}

void Supervisor::worker_down(WorkerSlot& w, bool expected) {
  // Deliver-before-declare: drain every frame the worker managed to write
  // before dying. A completed result in the pipe means the job is done —
  // failing it over would run it twice.
  if (w.fd >= 0) {
    std::vector<wire::Frame> frames;
    wire::drain_frames(w.fd, &w.acc, &frames);
    for (const wire::Frame& f : frames)
      handle_frame(w, static_cast<std::uint32_t>(f.type), f.payload);
    ::close(w.fd);
  }
  std::uint64_t lost = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    w.fd = -1;
    w.live = false;
    w.pid = -1;
    lost = w.job;
    w.job = 0;
    if (!expected) {
      ++w.restarts;
      ++w.incarnation;
      if (w.restarts > static_cast<std::uint64_t>(opts_.max_restarts)) {
        w.abandoned = true;
        std::fprintf(stderr,
                     "s35-serve: worker %d abandoned after %llu restarts\n",
                     w.index, static_cast<unsigned long long>(w.restarts - 1));
      } else {
        const auto delay = fault::backoff_delay_jittered(
            opts_.backoff, static_cast<int>(w.restarts - 1),
            static_cast<std::uint64_t>(w.index));
        w.restart_at_ns =
            steady_now_ns() +
            std::chrono::duration_cast<std::chrono::nanoseconds>(delay).count();
      }
    }
  }
  if (!expected) table_.count(&ServiceStats::worker_deaths);
  if (lost == 0) return;
  // Crashes and hang kills feed the poison breaker. SDC escalations do not
  // land here — the result frame already cleared w.job before the recycle.
  if (!expected) table_.note_poison(lost);
  table_.failover(lost, "worker process lost");
}

void Supervisor::dispatch() {
  for (WorkerSlot& w : slots_) {
    if (!w.live || w.job != 0) continue;
    std::optional<JobTable::Job> job;
    while (!job) {
      const auto claimed = table_.next(w.affinity);
      if (!claimed) return;  // nothing queued
      job = table_.start(claimed->id, w.index);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      w.job = job->id;
      w.affinity = job->spec.shape_key();
      w.progress_ns = steady_now_ns();
    }

    // Injected process faults ride the submit frame — but only to the
    // targeted worker's first incarnation. A restarted worker gets a clean
    // plan, so an absorbed fault can never refire.
    std::string payload = wire::spec_to_json(job->id, job->spec);
    if (opts_.faults != nullptr && w.incarnation == 0) {
      fault::FaultPlan& fp = *opts_.faults;
      std::string extra;
      if (fp.kill_worker == w.index && fp.kill_worker_pass >= 0 &&
          fp.worker_kill_fires(w.index,
                               static_cast<std::uint64_t>(fp.kill_worker_pass)))
        extra += ",\"fk\":" + std::to_string(fp.kill_worker_pass);
      if (fp.stall_worker == w.index && fp.stall_worker_pass >= 0 &&
          fp.worker_stall_fires(w.index,
                                static_cast<std::uint64_t>(fp.stall_worker_pass)))
        extra += ",\"fs\":" + std::to_string(fp.stall_worker_pass) +
                 ",\"fsm\":" + std::to_string(fp.stall_worker_ms);
      if (fp.sdc_worker == w.index && fp.sdc_worker_pass >= 0 &&
          fp.worker_sdc_fires(w.index,
                              static_cast<std::uint64_t>(fp.sdc_worker_pass)))
        extra += ",\"fe\":" + std::to_string(fp.sdc_worker_pass);
      if (!extra.empty()) payload.insert(payload.size() - 1, extra);
    }

    if (!wire::write_frame(w.fd, wire::FrameType::kSubmit, payload)) {
      // Pipe already broken: undo the assignment; the reaper will see the
      // death, and the job is first in line for the next live worker.
      table_.requeue(job->id);
      std::lock_guard<std::mutex> lock(mu_);
      w.job = 0;
    }
  }
}

void Supervisor::monitor_loop() {
  std::vector<pollfd> pfds;
  std::vector<int> slot_of;  // pfds index -> slot index (-1 = wake pipe)

  while (true) {
    const bool stopping = stopping_.load(std::memory_order_acquire);

    pfds.clear();
    slot_of.clear();
    if (wake_fds_[0] >= 0) {
      pfds.push_back({wake_fds_[0], POLLIN, 0});
      slot_of.push_back(-1);
    }
    for (const WorkerSlot& w : slots_)
      if (w.live && w.fd >= 0) {
        pfds.push_back({w.fd, POLLIN, 0});
        slot_of.push_back(w.index);
      }

    const int timeout = std::max(5, opts_.beat_ms / 2);
    ::poll(pfds.data(), pfds.size(), timeout);

    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (slot_of[i] < 0) {
        char buf[64];
        while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      WorkerSlot& w = slots_[static_cast<std::size_t>(slot_of[i])];
      for (;;) {
        wire::Frame f;
        const int got = wire::read_frame(w.fd, &w.acc, &f, 0);
        if (got == 1) {
          handle_frame(w, static_cast<std::uint32_t>(f.type), f.payload);
          continue;
        }
        if (got < 0 && w.pid > 0) {
          // EOF or protocol violation: the process is gone or garbling its
          // pipe. SIGKILL makes the state unambiguous; waitpid finishes it.
          ::kill(static_cast<pid_t>(w.pid), SIGKILL);
        }
        break;
      }
    }

    // Reap. WNOHANG: this thread must keep polling pipes and heartbeats.
    for (;;) {
      int status = 0;
      const pid_t pid = ::waitpid(-1, &status, WNOHANG);
      if (pid <= 0) break;
      for (WorkerSlot& w : slots_)
        if (w.pid == static_cast<long>(pid)) {
          const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
          worker_down(w, clean && (w.drained || stopping));
          break;
        }
    }

    // Hang detection: progress staleness, not beat arrival. An injected
    // stall (or a livelocked team) beats happily while progress freezes.
    if (opts_.hang_ms > 0) {
      const std::int64_t now = steady_now_ns();
      for (WorkerSlot& w : slots_) {
        bool hung = false;
        {
          std::lock_guard<std::mutex> lock(mu_);
          hung = w.live && w.job != 0 &&
                 (now - w.progress_ns) / 1'000'000 > opts_.hang_ms;
        }
        if (hung) table_.count(&ServiceStats::hang_kills);
        if (hung && w.pid > 0) {
          std::fprintf(stderr,
                       "s35-serve: worker %d hung (progress stale %d ms), "
                       "killing pid %ld\n",
                       w.index, opts_.hang_ms, w.pid);
          ::kill(static_cast<pid_t>(w.pid), SIGKILL);
        }
      }
    }

    // Restart due workers (capped + jittered backoff, first-class counter).
    if (!stopping) {
      const std::int64_t now = steady_now_ns();
      for (WorkerSlot& w : slots_) {
        bool due = false;
        {
          std::lock_guard<std::mutex> lock(mu_);
          due = !w.live && !w.abandoned && w.restart_at_ns > 0 &&
                now >= w.restart_at_ns;
          if (due) w.restart_at_ns = 0;
        }
        if (due && spawn(w)) table_.count(&ServiceStats::restarts);
      }
    }

    // Forward cancels of running jobs (queued ones ended at cancel()).
    for (const auto& [id, slot] : table_.take_cancels()) {
      const WorkerSlot& w = slots_[static_cast<std::size_t>(slot)];
      if (w.live && w.fd >= 0)
        wire::write_frame(w.fd, wire::FrameType::kCancel,
                          "{\"job\":" + std::to_string(id) + "}");
    }

    if (!stopping) {
      table_.shed_expired();
      dispatch();
    }

    // No execution capacity left? Fail what remains instead of hanging
    // clients forever.
    {
      bool any_capacity = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (const WorkerSlot& w : slots_)
          if (w.live || (!w.abandoned && w.restart_at_ns > 0)) any_capacity = true;
      }
      if (!any_capacity && table_.active() > 0)
        table_.fail_active("no live workers remain (all abandoned)");
    }

    if (stopping) {
      // Graceful exit: every job is already terminal (shutdown drained
      // first). Ask live workers to drain + exit, give them a beat, then
      // make sure with SIGKILL, and reap everything.
      for (WorkerSlot& w : slots_)
        if (w.live && w.fd >= 0) wire::write_frame(w.fd, wire::FrameType::kDrain, "{}");
      const std::int64_t deadline = steady_now_ns() + 3'000'000'000ll;  // 3 s
      while (steady_now_ns() < deadline) {
        bool any_live = false;
        for (WorkerSlot& w : slots_) {
          if (!w.live) continue;
          any_live = true;
          wire::Frame f;
          while (wire::read_frame(w.fd, &w.acc, &f, 0) == 1)
            handle_frame(w, static_cast<std::uint32_t>(f.type), f.payload);
          int status = 0;
          const pid_t pid = ::waitpid(static_cast<pid_t>(w.pid), &status, WNOHANG);
          if (pid == static_cast<pid_t>(w.pid)) worker_down(w, true);
        }
        if (!any_live) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      for (WorkerSlot& w : slots_) {
        if (w.pid > 0) {
          ::kill(static_cast<pid_t>(w.pid), SIGKILL);
          int status = 0;
          ::waitpid(static_cast<pid_t>(w.pid), &status, 0);
          worker_down(w, true);
        }
      }
      return;
    }
  }
}

void Supervisor::shutdown() {
  if (!table_.close()) return;  // stops admission; queued jobs stay dispatchable
  wake();
  // Graceful drain: every accepted job runs to a terminal state while the
  // monitor keeps dispatching, failing over, and restarting workers.
  table_.drain(-1);
  stopping_.store(true, std::memory_order_release);
  wake();
  if (monitor_.joinable()) monitor_.join();
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
  wake_fds_[0] = wake_fds_[1] = -1;
}

#else  // !__unix__

Supervisor::Supervisor(SupervisorOptions options)
    : opts_(std::move(options)), table_(table_options(opts_)) {
  std::fprintf(stderr, "s35-serve: worker supervision requires POSIX\n");
}
Supervisor::~Supervisor() = default;
fault::Expected<std::uint64_t> Supervisor::submit(const JobSpec&) {
  return fault::Status(fault::ErrorCode::kUnavailable, "supervision requires POSIX");
}
bool Supervisor::cancel(std::uint64_t) { return false; }
ServiceStats Supervisor::stats() const { return {}; }
void Supervisor::shutdown() {}
void Supervisor::monitor_loop() {}
bool Supervisor::spawn(WorkerSlot&) { return false; }
void Supervisor::handle_frame(WorkerSlot&, std::uint32_t, const std::string&) {}
void Supervisor::on_result(WorkerSlot&, const std::string&) {}
void Supervisor::worker_down(WorkerSlot&, bool) {}
void Supervisor::dispatch() {}
void Supervisor::wake() {}

#endif

}  // namespace s35::service
