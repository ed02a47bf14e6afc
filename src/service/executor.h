// Frame executor: one warm JobService behind the wire.h frame protocol.
//
// Both remote planes run their jobs through this one loop; only the
// transport differs:
//
//   * a supervised worker (supervisor.h) serves the one socketpair
//     connection its supervisor created before forking, with a window of
//     one job, and returns when that connection drains or closes;
//   * a cluster node (cluster/node.h) serves every router that connects to
//     its TCP listener, and outlives any one of them.
//
// Per connection the executor:
//   * sends kHello {"node":name,"jobs":window} first;
//   * accepts kSubmit (trusted wire spec, checkpoint fields included) up to
//     `window` concurrent jobs, kCancel, and kDrain (finish that
//     connection's jobs, then reply kDrained);
//   * ships each terminal exactly once as kResult to the submitting
//     connection, and beats every beat_ms with the pass-progress counter
//     plus the local plan-cache counters.
//
// Jobs run on the JobService's own thread, so this loop keeps beating while
// a job runs. Liveness is *progress*, not frame arrival: the pass hook bumps
// the counter at every blocked-pass boundary, so an executor that is alive
// but frozen mid-job looks dead to its parent — which is the point.
//
// Injected process faults: a submit frame may carry per-job "fk"/"fs"/"fe"
// fields (kill/stall/SDC at that job's pass p, 0-based); kill_at_pass
// SIGKILLs at a process-wide pass count. Both fire in the pass hook, after
// that pass's failover checkpoint is durable.
//
// Plan replication (listeners only — a supervisor keeps no plan cache): a
// local plan-cache miss becomes a kPlanPull to the oldest connection
// (bounded wait — an absent or slow router degrades to a local re-tune),
// and each locally tuned plan goes back as kPlanPush ver=0 for router-side
// stamping and broadcast.
//
// Stopping a listener is typed, not abrupt: every live connection — and
// every connection still in the accept backlog — receives a kReject
// {"error":"unavailable"} frame before close.
#pragma once

#include <atomic>
#include <string>

#include "service/service.h"

namespace s35::service {

struct ExecutorOptions {
  std::string name;  // advertised identity, e.g. "127.0.0.1:7401"
  int beat_ms = 50;  // heartbeat period toward every connection
  int window = 2;    // concurrent jobs advertised in the hello
  // How long plan_fetch waits for the router's kPlanPush answer before
  // falling back to a local tune.
  int pull_timeout_ms = 250;
  // Deterministic fault injection (tests/CI): SIGKILL this process when the
  // process-wide pass counter reaches this value; -1 = never.
  long kill_at_pass = -1;
  ServiceOptions service;
};

// Serves connections accepted from listen_fd by `accept_conn` (a connected
// blocking fd, or -1 when none is pending) until *stop is set. Owns and
// closes listen_fd. Returns the process exit code.
int serve_listener(int listen_fd, int (*accept_conn)(int), const ExecutorOptions& opts,
                   const std::atomic<bool>* stop);

// Serves the one already-connected `fd` until it drains (returns 0) or
// closes (returns 1). Owns and closes fd.
int serve_connection(int fd, const ExecutorOptions& opts);

}  // namespace s35::service
