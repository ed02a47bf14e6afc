// Monitor: the supervision skeleton under both remote planes.
//
// The Supervisor (supervisor.h) forks worker processes; the Router
// (cluster/router.h) dials TCP nodes. Both multiplex client jobs over their
// peers through the wire frames (wire.h), on the JobTable (job_table.h) the
// in-process backend uses too. Everything but the transport lives here: one
// monitor thread that is dispatcher, heartbeat examiner and reaper at once,
// over one record per peer. A supervised worker is a peer with a window of
// one job.
//
//   death        a peer is down when its transport says so: EOF, a protocol
//                violation, a reaped process, a dial that never said hello.
//                The peer is marked down first (no fd, not live, its jobs
//                taken). Then comes deliver-before-declare: the connection is
//                drained, and a result written microseconds before the death
//                is still a result — it settles its own job, nothing else.
//                Only the jobs left over fail over.
//   hang         beats carry the peer's pass-progress counter. A live peer
//                with jobs in flight whose progress is stale past hang_ms is
//                recycled and counted as lost. Frame arrival alone proves
//                nothing: a stalled executor keeps beating while its job is
//                frozen.
//   escalation   a kSdcDetected result means the peer's in-process integrity
//                ladder gave up, so its address space is not trusted anymore.
//                The job fails over and the peer is recycled; that is not a
//                death.
//   exactly-once terminal state is recorded once per job id (the table's
//                first wins); a result for a job the peer no longer holds is
//                dropped, and a job is re-dispatched only once the peer that
//                held it is down.
//   poison       an unexpected loss with exactly one job in flight is
//                attributed to that job (the poison breaker); with several the
//                signal is ambiguous, and no tenant is indicted.
//   backoff      a down peer is restarted on capped+jittered backoff
//                (fault::retry). Each unexpected loss and each failed start
//                counts toward max_restarts; past it the peer is abandoned.
//                With every peer abandoned, active jobs fail instead of
//                hanging their clients.
//   stop         shutdown() stops admission, runs every accepted job to a
//                terminal state, sends kDrain to the live peers and waits up to
//                the plane's stop deadline for them before halting.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/retry.h"
#include "fault/status.h"
#include "service/backend.h"
#include "service/job.h"
#include "service/job_table.h"
#include "service/wire.h"

namespace s35::service {

// What a plane tells the skeleton about itself.
struct MonitorConfig {
  const char* tag = "";        // log prefix, e.g. "s35-serve"
  const char* lost = "";       // failover reason when a peer is lost
  const char* none_left = "";  // failure once every peer is abandoned
  int beat_ms = 50;            // expected heartbeat period (>= 5)
  int hang_ms = 5000;          // progress-staleness threshold; 0 = off
  int max_restarts = 3;        // losses + failed starts before abandonment
  fault::RetryPolicy backoff;  // restart schedule
  int stop_ms = 1000;          // graceful-stop deadline
  int threads = 0;             // reported as ServiceStats::threads
};

// The JobTable fields both planes' option structs carry under the same names.
template <class Options>
JobTableOptions table_options(const Options& o) {
  JobTableOptions t;
  t.max_points = o.max_points;
  t.queue_capacity = o.queue_capacity;
  t.tenancy = o.tenancy;
  t.checkpoint_dir = o.checkpoint_dir;
  t.checkpoint_every = o.checkpoint_every;
  t.max_attempts = o.max_job_attempts;
  if constexpr (requires { o.terminal_retention; }) t.retention = o.terminal_retention;
  return t;
}

class Monitor : public JobBackend {
 public:
  ~Monitor() override;

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  fault::Expected<std::uint64_t> submit(const JobSpec& spec) override;
  bool cancel(std::uint64_t id) override;
  std::optional<JobInfo> info(std::uint64_t id) const override { return table_.info(id); }
  std::optional<JobInfo> wait(std::uint64_t id, std::int64_t timeout_ms = -1) override {
    return table_.wait(id, timeout_ms);
  }
  bool drain(std::int64_t timeout_ms = -1) override { return table_.drain(timeout_ms); }
  // Supervision fields count peers: workers = configured peers, worker_deaths
  // = losses of live peers, restarts = peers brought back up.
  ServiceStats stats() const override;

  // Graceful drain: stops admission, finishes every accepted job (failing
  // over across peer losses throughout), drains the peers and halts. Every
  // derived destructor calls it first. Idempotent.
  void shutdown() override;

 protected:
  struct Peer {
    int index = 0;
    std::string name;             // "worker 0", "node host:port"
    int fd = -1;                  // >= 0 from start until down
    std::string acc;              // partial wire frames
    bool live = false;            // serving: dispatch may assign jobs
    bool abandoned = false;
    bool departing = false;       // announced an orderly exit
    int window = 1;               // max jobs in flight
    std::uint64_t losses = 0;     // unexpected losses + failed starts
    std::uint64_t ups = 0;        // times brought up
    std::vector<std::uint64_t> jobs;  // outer ids in flight
    std::uint64_t progress = 0;       // last beat's pass counter
    std::int64_t progress_ns = 0;     // when progress last advanced
    std::int64_t beat_ns = 0;         // when any beat last arrived
    std::int64_t start_ns = 0;        // when the current fd was opened
    std::int64_t restart_at_ns = 0;   // backoff deadline while down
  };

  // How a peer went down. Only a loss counts toward deaths, abandonment and
  // the poison breaker; a departure is the only one that spares the process.
  enum class Down {
    kLost,      // EOF, hang, failed handshake, crash
    kRecycled,  // the monitor retires a peer it no longer trusts
    kDeparted,  // orderly exit (drained, shutting down)
  };

  Monitor(JobTableOptions table, MonitorConfig config, std::vector<std::string> names);
  // The derived constructor's last statement: every hook is callable now.
  void start_monitor();

  // ---- transport hooks, all called on the monitor thread ----
  // Opens p's transport and sets p.fd; calls bring_up() if p serves at once.
  // False when the start failed.
  virtual bool start_peer(Peer& p) = 0;
  // Frame types other than beat, result and drained.
  virtual void on_frame(Peer&, wire::FrameType, const std::string&) {}
  // p just went down; `recycle` unless it departed in order.
  virtual void detach(Peer&, bool /*recycle*/) {}
  // Loss evidence only the transport sees; once per round and while stopping.
  virtual void reap() {}
  // Hands claimed jobs to live peers through assign().
  virtual void dispatch() = 0;
  // Last step of the graceful stop: every peer is down. Runs until at most
  // deadline_ns, then forces what is left.
  virtual void halt(std::int64_t /*deadline_ns*/) {}

  // ---- helpers for the hooks ----
  void bring_up(Peer& p, int window);
  // Sends job `id` to p. A broken transport requeues the job after this
  // dispatch round, so the round cannot claim it again.
  void assign(Peer& p, std::uint64_t id, const std::string& payload);
  // Idempotent: a peer that is already down stays down.
  void peer_down(Peer& p, Down how);
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }
  // Closes every descriptor the monitor holds, for a forked child.
  void close_fds() const;

  JobTable table_;
  const MonitorConfig cfg_;
  std::vector<Peer> peers_;  // fixed size; the monitor thread owns the fields
  mutable std::mutex mu_;    // guards live and beat_ns, which stats() reads

 private:
  void monitor_loop();
  void pump(Peer& p);
  void handle_frame(Peer& p, const wire::Frame& f);
  // Settles a result frame against `jobs`; true on an SDC escalation.
  bool settle(std::vector<std::uint64_t>& jobs, const std::string& payload);
  void schedule_restart(Peer& p);
  void stop_peers();
  void wake();

  int wake_fds_[2] = {-1, -1};
  std::vector<std::uint64_t> broken_;  // assigned jobs whose submit failed
  std::atomic<bool> stopping_{false};
  std::thread monitor_;
};

}  // namespace s35::service
