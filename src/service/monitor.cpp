#include "service/monitor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/timer.h"
#include "service/json.h"

#ifdef __unix__
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>
#endif

namespace s35::service {

#ifdef __unix__

Monitor::Monitor(JobTableOptions table, MonitorConfig config,
                 std::vector<std::string> names)
    : table_(std::move(table)), cfg_(std::move(config)), peers_(names.size()) {
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    peers_[i].index = static_cast<int>(i);
    peers_[i].name = std::move(names[i]);
  }
  if (::pipe(wake_fds_) != 0) {
    std::fprintf(stderr, "%s: wake pipe failed\n", cfg_.tag);
    wake_fds_[0] = wake_fds_[1] = -1;
  } else {
    // Both ends nonblocking: the monitor drains the pipe until EAGAIN, and
    // a full pipe must never stall a submitter's wake().
    for (const int fd : wake_fds_)
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  }
}

Monitor::~Monitor() {
  for (const int fd : wake_fds_)
    if (fd >= 0) ::close(fd);
}

void Monitor::start_monitor() { monitor_ = std::thread(&Monitor::monitor_loop, this); }

void Monitor::wake() {
  if (wake_fds_[1] >= 0) {
    const char b = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &b, 1);
  }
}

void Monitor::close_fds() const {
  for (const Peer& p : peers_)
    if (p.fd >= 0) ::close(p.fd);
  for (const int fd : wake_fds_)
    if (fd >= 0) ::close(fd);
}

fault::Expected<std::uint64_t> Monitor::submit(const JobSpec& spec) {
  const auto id = table_.submit(spec);
  if (id.ok()) wake();
  return id;
}

bool Monitor::cancel(std::uint64_t id) {
  if (!table_.cancel(id)) return false;
  wake();  // the monitor forwards a running job's cancel to its peer
  return true;
}

ServiceStats Monitor::stats() const {
  ServiceStats out = table_.stats();
  out.threads = cfg_.threads;
  out.workers = static_cast<int>(peers_.size());
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t now = steady_now_ns();
  for (const Peer& p : peers_) {
    if (!p.live) continue;
    ++out.workers_live;
    out.max_heartbeat_age_ms =
        std::max(out.max_heartbeat_age_ms, (now - p.beat_ns) / 1'000'000);
  }
  return out;
}

void Monitor::bring_up(Peer& p, int window) {
  const std::int64_t now = steady_now_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    p.live = true;
    p.beat_ns = now;
  }
  p.window = std::max(1, window);
  p.progress_ns = now;
  if (p.ups++ > 0) table_.count(&ServiceStats::restarts);
}

void Monitor::assign(Peer& p, std::uint64_t id, const std::string& payload) {
  p.jobs.push_back(id);
  if (p.jobs.size() == 1) p.progress_ns = steady_now_ns();  // the hang clock starts
  if (!wire::write_frame(p.fd, wire::FrameType::kSubmit, payload)) {
    // The read path will see the loss; the job is first in line again.
    p.jobs.pop_back();
    broken_.push_back(id);
  }
}

bool Monitor::settle(std::vector<std::uint64_t>& jobs, const std::string& payload) {
  std::uint64_t id = 0;
  JobState state = JobState::kFailed;
  JobResult r;
  if (!wire::result_from_json(payload, &id, &state, &r)) return false;
  const auto it = std::find(jobs.begin(), jobs.end(), id);
  if (it == jobs.end()) return false;  // stale frame from a previous assignment
  jobs.erase(it);
  if (state == JobState::kFailed && r.error == fault::ErrorCode::kSdcDetected) {
    table_.count(&ServiceStats::sdc_escalations);
    table_.failover(id, "SDC escalation: " + r.message);
    return true;
  }
  table_.finish(id, state, r);
  return false;
}

void Monitor::handle_frame(Peer& p, const wire::Frame& f) {
  switch (f.type) {
    case wire::FrameType::kBeat: {
      std::int64_t progress = 0;
      const std::int64_t now = steady_now_ns();
      if (json::get_int(f.payload, "progress", &progress) &&
          static_cast<std::uint64_t>(progress) != p.progress) {
        p.progress = static_cast<std::uint64_t>(progress);
        p.progress_ns = now;
      }
      std::lock_guard<std::mutex> lock(mu_);
      p.beat_ns = now;
      break;
    }
    case wire::FrameType::kResult:
      if (settle(p.jobs, f.payload)) peer_down(p, Down::kRecycled);
      break;
    case wire::FrameType::kDrained:  // our work is done there
      peer_down(p, Down::kDeparted);
      break;
    default:
      on_frame(p, f.type, f.payload);
      break;
  }
}

void Monitor::pump(Peer& p) {
  while (p.fd >= 0) {
    wire::Frame f;
    const int got = wire::read_frame(p.fd, &p.acc, &f, 0);
    if (got == 1) {
      handle_frame(p, f);
      continue;
    }
    if (got < 0)  // EOF or a garbled stream
      peer_down(p, p.departing || stopping() ? Down::kDeparted : Down::kLost);
    break;
  }
}

void Monitor::peer_down(Peer& p, Down how) {
  if (p.fd < 0) return;
  // Down first, deliver second: a drained SDC result then fails over only
  // its own job, and no hook acts on a transport the peer no longer has.
  const int fd = p.fd;
  bool died = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    died = p.live && how == Down::kLost;
    p.live = false;
  }
  p.fd = -1;
  std::vector<std::uint64_t> lost;
  lost.swap(p.jobs);
  detach(p, how != Down::kDeparted);

  // Deliver-before-declare: a completed result in the connection means the
  // job is done — failing it over would run it twice.
  std::vector<wire::Frame> frames;
  wire::drain_frames(fd, &p.acc, &frames);
  ::close(fd);
  p.acc.clear();
  for (const wire::Frame& f : frames)
    if (f.type == wire::FrameType::kResult) settle(lost, f.payload);

  if (how == Down::kLost) ++p.losses;
  schedule_restart(p);
  if (died) table_.count(&ServiceStats::worker_deaths);
  if (how == Down::kLost && lost.size() == 1) table_.note_poison(lost.front());
  for (const std::uint64_t id : lost) table_.failover(id, cfg_.lost);
}

void Monitor::schedule_restart(Peer& p) {
  if (p.losses > static_cast<std::uint64_t>(cfg_.max_restarts)) {
    p.abandoned = true;
    std::fprintf(stderr, "%s: %s abandoned after %llu losses\n", cfg_.tag,
                 p.name.c_str(), static_cast<unsigned long long>(p.losses));
    return;
  }
  const auto delay = fault::backoff_delay_jittered(
      cfg_.backoff, static_cast<int>(std::max<std::uint64_t>(p.losses, 1) - 1),
      static_cast<std::uint64_t>(p.index));
  p.restart_at_ns = steady_now_ns() +
                    std::chrono::duration_cast<std::chrono::nanoseconds>(delay).count();
}

void Monitor::monitor_loop() {
  std::vector<pollfd> pfds;
  std::vector<Peer*> polled;  // pfds[i + 1] belongs to polled[i]

  while (true) {
    const bool stop = stopping();

    // Start peers that are due: the first start and every restart.
    for (Peer& p : peers_) {
      if (stop || p.fd >= 0 || p.abandoned || steady_now_ns() < p.restart_at_ns) continue;
      p.departing = false;
      if (start_peer(p)) {
        p.start_ns = steady_now_ns();
      } else {  // counts like a loss, on the same schedule
        ++p.losses;
        schedule_restart(p);
      }
    }

    pfds.assign(1, pollfd{wake_fds_[0], POLLIN, 0});
    polled.clear();
    for (Peer& p : peers_)
      if (p.fd >= 0) {
        pfds.push_back({p.fd, POLLIN, 0});
        polled.push_back(&p);
      }
    ::poll(pfds.data(), pfds.size(), std::max(5, cfg_.beat_ms / 2));
    if (pfds[0].revents != 0) {
      char buf[64];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    for (std::size_t i = 0; i < polled.size(); ++i)
      if ((pfds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) pump(*polled[i]);

    reap();

    // Hang detection: progress staleness, not beat arrival.
    const std::int64_t now = steady_now_ns();
    for (Peer& p : peers_) {
      if (cfg_.hang_ms <= 0 || !p.live || p.jobs.empty() ||
          (now - p.progress_ns) / 1'000'000 <= cfg_.hang_ms)
        continue;
      table_.count(&ServiceStats::hang_kills);
      std::fprintf(stderr, "%s: %s hung (progress stale %d ms), recycling\n", cfg_.tag,
                   p.name.c_str(), cfg_.hang_ms);
      peer_down(p, Down::kLost);
    }

    // Forward cancels of running jobs (queued ones ended at cancel()).
    for (const auto& [id, where] : table_.take_cancels()) {
      const Peer& p = peers_[static_cast<std::size_t>(where)];
      if (p.live)
        wire::write_frame(p.fd, wire::FrameType::kCancel,
                          "{\"job\":" + std::to_string(id) + "}");
    }

    if (!stop) {
      table_.shed_expired();
      dispatch();
      for (const std::uint64_t id : broken_) table_.requeue(id);
      broken_.clear();
    }

    // No capacity left? Fail what remains instead of hanging clients forever.
    const auto abandoned = [](const Peer& p) { return p.abandoned; };
    if (table_.active() > 0 && std::all_of(peers_.begin(), peers_.end(), abandoned))
      table_.fail_active(cfg_.none_left);

    if (stop) {
      stop_peers();
      return;
    }
  }
}

void Monitor::stop_peers() {
  // Every job is terminal already (shutdown drained first). Ask the live
  // peers to drain, give them until the deadline, then halt the rest.
  for (const Peer& p : peers_)
    if (p.live) wire::write_frame(p.fd, wire::FrameType::kDrain, "{}");
  const std::int64_t deadline =
      steady_now_ns() + static_cast<std::int64_t>(cfg_.stop_ms) * 1'000'000;
  while (steady_now_ns() < deadline) {
    bool pending = false;
    for (Peer& p : peers_) {
      pump(p);
      pending = pending || p.live;
    }
    reap();
    if (!pending) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (Peer& p : peers_) peer_down(p, Down::kDeparted);
  halt(deadline);
}

void Monitor::shutdown() {
  if (!table_.close()) return;  // stops admission; queued jobs stay dispatchable
  wake();
  // Graceful drain: every accepted job runs to a terminal state while the
  // monitor keeps dispatching, failing over and restarting peers.
  table_.drain(-1);
  stopping_.store(true, std::memory_order_release);
  wake();
  if (monitor_.joinable()) monitor_.join();
}

#else  // !__unix__

// Without POSIX there is no transport: the table refuses every submit.
Monitor::Monitor(JobTableOptions table, MonitorConfig config, std::vector<std::string>)
    : table_(std::move(table)), cfg_(std::move(config)) {
  std::fprintf(stderr, "%s: requires POSIX\n", cfg_.tag);
  table_.close();
}
Monitor::~Monitor() = default;
void Monitor::start_monitor() {}
fault::Expected<std::uint64_t> Monitor::submit(const JobSpec& spec) {
  return table_.submit(spec);
}
bool Monitor::cancel(std::uint64_t id) { return table_.cancel(id); }
ServiceStats Monitor::stats() const { return table_.stats(); }
void Monitor::shutdown() {}
void Monitor::bring_up(Peer&, int) {}
void Monitor::assign(Peer&, std::uint64_t, const std::string&) {}
void Monitor::peer_down(Peer&, Down) {}
void Monitor::close_fds() const {}

#endif

}  // namespace s35::service
