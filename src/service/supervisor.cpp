#include "service/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/env.h"
#include "common/timer.h"
#include "service/executor.h"
#include "service/wire.h"

#ifdef __unix__
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace s35::service {

namespace {

// How long drained workers get to exit at shutdown before SIGKILL.
constexpr int kWorkerStopMs = 3000;

MonitorConfig monitor_config(const SupervisorOptions& o) {
  MonitorConfig c;
  c.tag = "s35-serve";
  c.lost = "worker process lost";
  c.none_left = "no live workers remain (all abandoned)";
  c.beat_ms = std::max(5, o.beat_ms);
  c.hang_ms = o.hang_ms;
  c.max_restarts = o.max_restarts;
  c.backoff = o.backoff;
  c.stop_ms = kWorkerStopMs;
  c.threads = o.service.threads;
  return c;
}

std::vector<std::string> worker_names(int workers) {
  std::vector<std::string> names;
  for (int i = 0; i < std::max(1, workers); ++i)
    names.push_back("worker " + std::to_string(i));
  return names;
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

Supervisor::Supervisor(SupervisorOptions options)
    : Monitor(table_options(options), monitor_config(options),
              worker_names(options.workers)),
      opts_(std::move(options)),
      procs_(peers_.size()) {
  // Workers inherit the per-worker service template; each gets its own
  // PlanCache shard over the shared on-disk file (plan_cache.cpp flocks
  // around save/load, so shards never interleave partial writes).
  opts_.workers = static_cast<int>(peers_.size());
  opts_.beat_ms = cfg_.beat_ms;
  start_monitor();
}

Supervisor::~Supervisor() { shutdown(); }

void Supervisor::dispatch() {
  for (Peer& p : peers_) {
    if (!p.live || !p.jobs.empty()) continue;
    Process& proc = procs_[static_cast<std::size_t>(p.index)];
    std::optional<JobTable::Job> job;
    while (!job) {
      const auto claimed = table_.next(proc.affinity);
      if (!claimed) return;  // nothing queued
      job = table_.start(claimed->id, p.index);
    }
    proc.affinity = job->spec.shape_key();
    assign(p, job->id, submit_payload(p, *job));
  }
}

// Injected process faults ride the submit frame — but only to the targeted
// worker's first incarnation. A restarted worker gets a clean plan, so an
// absorbed fault can never refire.
std::string Supervisor::submit_payload(const Peer& p, const JobTable::Job& job) const {
  std::string payload = wire::spec_to_json(job.id, job.spec);
  if (opts_.faults == nullptr || procs_[static_cast<std::size_t>(p.index)].spawns != 1)
    return payload;
  fault::FaultPlan& fp = *opts_.faults;
  const int w = p.index;
  std::string extra;
  if (fp.kill_worker == w && fp.kill_worker_pass >= 0 &&
      fp.worker_kill_fires(w, static_cast<std::uint64_t>(fp.kill_worker_pass)))
    extra += ",\"fk\":" + std::to_string(fp.kill_worker_pass);
  if (fp.stall_worker == w && fp.stall_worker_pass >= 0 &&
      fp.worker_stall_fires(w, static_cast<std::uint64_t>(fp.stall_worker_pass)))
    extra += ",\"fs\":" + std::to_string(fp.stall_worker_pass) +
             ",\"fsm\":" + std::to_string(fp.stall_worker_ms);
  if (fp.sdc_worker == w && fp.sdc_worker_pass >= 0 &&
      fp.worker_sdc_fires(w, static_cast<std::uint64_t>(fp.sdc_worker_pass)))
    extra += ",\"fe\":" + std::to_string(fp.sdc_worker_pass);
  if (!extra.empty()) payload.insert(payload.size() - 1, extra);
  return payload;
}

#ifdef __unix__

bool Supervisor::start_peer(Peer& p) {
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
    close_fds();
    ::signal(SIGTERM, SIG_DFL);
    ::signal(SIGINT, SIG_DFL);
    ExecutorOptions eo;
    eo.name = "worker-" + std::to_string(p.index);
    eo.beat_ms = cfg_.beat_ms;
    eo.window = 1;
    eo.service = opts_.service;
    std::_Exit(serve_connection(sv[1], eo));
  }
  ::close(sv[1]);
  Process& proc = procs_[static_cast<std::size_t>(p.index)];
  proc.pid = pid;
  ++proc.spawns;
  p.fd = sv[0];
  bring_up(p, 1);
  return true;
}

void Supervisor::detach(Peer& p, bool recycle) {
  // A pid is only ever signalled before it is reaped, so it cannot have
  // been reused.
  const long pid = procs_[static_cast<std::size_t>(p.index)].pid;
  if (recycle && pid > 0) ::kill(static_cast<pid_t>(pid), SIGKILL);
}

void Supervisor::reap() {
  // WNOHANG: the monitor thread must keep polling pipes and heartbeats.
  for (;;) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid <= 0) return;
    for (std::size_t i = 0; i < procs_.size(); ++i) {
      if (procs_[i].pid != static_cast<long>(pid)) continue;
      procs_[i].pid = -1;  // reaped first: no hook may signal it from here on
      const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      peer_down(peers_[i], clean && stopping() ? Down::kDeparted : Down::kLost);
      break;
    }
  }
}

void Supervisor::halt(std::int64_t deadline_ns) {
  // Drained workers exit on their own, persisting their plan-cache shard;
  // give them until the deadline, then make sure.
  const auto running = [this] {
    return std::any_of(procs_.begin(), procs_.end(),
                       [](const Process& p) { return p.pid > 0; });
  };
  while (running() && steady_now_ns() < deadline_ns) {
    reap();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (Process& proc : procs_) {
    if (proc.pid <= 0) continue;
    ::kill(static_cast<pid_t>(proc.pid), SIGKILL);
    ::waitpid(static_cast<pid_t>(proc.pid), nullptr, 0);
    proc.pid = -1;
  }
}

#else  // !__unix__

bool Supervisor::start_peer(Peer&) { return false; }
void Supervisor::detach(Peer&, bool) {}
void Supervisor::reap() {}
void Supervisor::halt(std::int64_t) {}

#endif

}  // namespace s35::service
