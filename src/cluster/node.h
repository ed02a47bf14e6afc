// Cluster node: the frame executor (service/executor.h) behind a TCP
// listener.
//
// A node is the remote twin of a supervised worker: the same executor loop
// over the same wire frames, but over accepted TCP connections instead of
// an inherited socketpair, and with a dispatch window instead of one job at
// a time. From the shard router's side a node SIGKILL looks exactly like a
// worker SIGKILL one level up: the connection EOFs, buffered result frames
// are drained first, and the in-flight jobs fail over to the ring
// successor.
//
// Unlike a worker, a node outlives any one router: kDrain finishes that
// connection's jobs and replies kDrained, and the node keeps serving. A
// node replicates plans with its oldest connection (executor.h), and
// stopping it sends every connection a typed kReject before close.
#pragma once

#include <atomic>

#include "cluster/tcp.h"
#include "service/executor.h"

namespace s35::cluster {

using NodeOptions = service::ExecutorOptions;

// Serves frames on an already-bound listening fd (cluster::tcp_listen) until
// *stop is set. Owns and closes listen_fd. Returns the process exit code.
inline int serve_node(int listen_fd, const NodeOptions& opts,
                      const std::atomic<bool>* stop) {
  return service::serve_listener(listen_fd, &tcp_accept, opts, stop);
}

}  // namespace s35::cluster
