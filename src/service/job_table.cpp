#include "service/job_table.h"

#include <algorithm>
#include <chrono>

#include "common/timer.h"
#include "core/schedule.h"

#ifdef __unix__
#include <unistd.h>
#endif

namespace s35::service {

namespace {

bool terminal(JobState s) { return s != JobState::kQueued && s != JobState::kRunning; }

bool known_kernel(const std::string& k) { return k == "7pt" || k == "27pt"; }

constexpr std::size_t kMaxTenantChars = 64;

bool valid_tenant_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '_' || c == '.' || c == ':' || c == '-';
}

fault::Status unavailable(const std::string& message) {
  return {fault::ErrorCode::kUnavailable, message};
}

}  // namespace

fault::Status validate_spec(const JobSpec& spec, long max_points) {
  if (!known_kernel(spec.kernel))
    return {fault::ErrorCode::kMismatch, "unknown kernel '" + spec.kernel + "'"};
  const long ny = spec.eff_ny(), nz = spec.eff_nz();
  if (spec.nx < 8 || ny < 8 || nz < 8)
    return {fault::ErrorCode::kMismatch, "grid dims must be >= 8"};
  if (spec.nx * ny * nz > max_points)
    return {fault::ErrorCode::kMismatch, "grid exceeds max_points"};
  if (spec.steps < 1 || spec.steps > 1'000'000)
    return {fault::ErrorCode::kMismatch, "steps out of range"};
  if (spec.dim_x < 0 || spec.dim_y < 0 || spec.dim_t < 0)
    return {fault::ErrorCode::kMismatch, "negative blocking dims"};
  if ((spec.dim_x > 0) != (spec.dim_y > 0))
    return {fault::ErrorCode::kMismatch, "dim_x/dim_y must be overridden together"};
  if (spec.schedule != "auto") {
    core::ScheduleFamily f;
    if (!core::parse_schedule_family(spec.schedule, &f))
      return {fault::ErrorCode::kMismatch,
              "unknown schedule '" + spec.schedule + "'"};
  }
  if (spec.audit_rate < 0.0 || spec.audit_rate > 1.0)
    return {fault::ErrorCode::kMismatch, "audit_rate outside [0,1]"};
  if (spec.tenant.size() > kMaxTenantChars)
    return {fault::ErrorCode::kMismatch, "tenant name exceeds 64 chars"};
  for (const char c : spec.tenant) {
    if (!valid_tenant_char(c))
      return {fault::ErrorCode::kMismatch,
              "tenant name must match [A-Za-z0-9_.:-]"};
  }
  if (spec.tenant_weight < 0 || spec.tenant_weight > 16)
    return {fault::ErrorCode::kMismatch, "tenant weight outside [0,16]"};
  if (spec.resume && spec.checkpoint_path.empty())
    return {fault::ErrorCode::kMismatch, "resume requires a checkpoint_path"};
  return {};
}

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kExpired:
      return "expired";
  }
  return "?";
}

JobTable::JobTable(JobTableOptions options)
    : opts_(std::move(options)), queue_(std::max<std::size_t>(1, opts_.queue_capacity)) {
  opts_.checkpoint_every = std::max(1, opts_.checkpoint_every);
  opts_.retention = std::max<std::size_t>(1, opts_.retention);
  governor_.configure(opts_.tenancy);
}

JobTable::Rec* JobTable::find_locked(std::uint64_t id) {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

fault::Expected<std::uint64_t> JobTable::submit(const JobSpec& spec) {
  if (const fault::Status st = validate_spec(spec, opts_.max_points); !st.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected;
    return st;
  }
  // Eager deadline shedding: dead jobs must not hold the admission capacity
  // this submission competes for.
  shed_expired();

  const double cost = predicted_job_cost(spec);
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) {
    ++stats_.rejected;
    return unavailable("service shut down");
  }
  const std::int64_t now = steady_now_ns();
  if (const AdmitDecision d = governor_.admit(spec, cost, queue_.size() + retry_.size(),
                                              queue_.capacity(), now);
      !d.ok()) {
    ++stats_.rejected;
    return unavailable(
        format_rejection(d.reason, "tenant admission rejected", d.retry_after_ms));
  }
  const std::uint64_t id = next_id_++;
  Rec rec;
  rec.spec = spec;
  rec.submit_ns = now;
  if (spec.deadline_ms > 0) rec.deadline_ns = now + spec.deadline_ms * 1'000'000;
  if (!opts_.checkpoint_dir.empty()) {
    // The plane — never the client — names the failover checkpoint. A file
    // already there is unlinked when next() first claims the job.
    rec.spec.checkpoint_path =
        opts_.checkpoint_dir + "/job-" + std::to_string(id) + ".ckpt";
    rec.spec.checkpoint_every = opts_.checkpoint_every;
  }
  const QueueItem item{id,   spec.priority,     id,   spec.shape_key(),
                       spec.tenant_key(),
                       static_cast<std::uint32_t>(spec.eff_weight()),
                       cost, rec.deadline_ns};
  if (!queue_.try_push(item)) {
    const AdmitDecision d = governor_.queue_full(spec, cost, now);
    ++stats_.rejected;
    return unavailable(format_rejection(d.reason, "queue full", d.retry_after_ms));
  }
  jobs_.emplace(id, std::move(rec));
  ++active_;
  ++stats_.submitted;
  return id;
}

bool JobTable::cancel(std::uint64_t id) {
  std::vector<std::string> unlinks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Rec* rec = find_locked(id);
    if (rec == nullptr || terminal(rec->state)) return false;
    rec->cancel = true;
    if (rec->state == JobState::kRunning) {
      cancels_.push_back(id);
      return true;
    }
    // Still in line: pull it out now. A claimed job (out of line, not yet
    // started) is realized by start() or hold() instead.
    const auto held = std::find(retry_.begin(), retry_.end(), id);
    const bool in_retry = held != retry_.end();
    if (in_retry) retry_.erase(held);
    if (!in_retry && !queue_.remove(id)) return true;
    JobResult r;
    r.message = "cancelled while queued";
    finish_locked(id, *rec, JobState::kCancelled, r, unlinks);
  }
  settle(unlinks);
  return true;
}

std::optional<JobInfo> JobTable::info(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return JobInfo{id, it->second.state, it->second.spec, it->second.result};
}

std::optional<JobInfo> JobTable::wait(std::uint64_t id, std::int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  if (jobs_.find(id) == jobs_.end()) return std::nullopt;
  // Re-find on every evaluation: retention may erase the record while this
  // thread sleeps, and then the wait ends like an unknown id.
  const auto pred = [&] {
    const auto it = jobs_.find(id);
    return it == jobs_.end() || terminal(it->second.state);
  };
  if (timeout_ms < 0) {
    cv_.wait(lock, pred);
  } else if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), pred)) {
    return std::nullopt;
  }
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return JobInfo{id, it->second.state, it->second.spec, it->second.result};
}

bool JobTable::drain(std::int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto pred = [&] { return active_ == 0; };
  if (timeout_ms < 0) {
    cv_.wait(lock, pred);
    return true;
  }
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), pred);
}

bool JobTable::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    closed_ = true;
  }
  queue_.close();
  return true;
}

std::optional<JobTable::Job> JobTable::next(std::uint64_t affinity, bool block) {
  for (;;) {
    if (auto job = next_retry()) return job;
    const auto item = block ? queue_.pop_wait(affinity) : queue_.try_pop(affinity);
    if (!item) return std::nullopt;
    std::optional<Job> job;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const Rec* rec = find_locked(item->id);
      if (rec != nullptr && rec->state == JobState::kQueued)
        job = Job{item->id, rec->spec};
    }
    if (!job) continue;
#ifdef __unix__
    // First claim, so the job has never run: a file at its checkpoint path
    // was written by an earlier process that handed out the same id, and
    // resuming from it would be silently wrong.
    if (!opts_.checkpoint_dir.empty()) ::unlink(job->spec.checkpoint_path.c_str());
#endif
    return job;
  }
}

std::optional<JobTable::Job> JobTable::next_retry() {
  std::lock_guard<std::mutex> lock(mu_);
  while (!retry_.empty()) {
    const std::uint64_t id = retry_.front();
    retry_.pop_front();
    const Rec* rec = find_locked(id);
    if (rec != nullptr && rec->state == JobState::kQueued) return Job{id, rec->spec};
  }
  return std::nullopt;
}

std::optional<JobTable::Job> JobTable::start(std::uint64_t id, int where) {
  std::vector<std::string> unlinks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Rec* rec = find_locked(id);
    if (rec == nullptr || rec->state != JobState::kQueued) return std::nullopt;
    const std::int64_t now = steady_now_ns();
    JobResult r;
    r.wait_s = static_cast<double>(now - rec->submit_ns) * 1e-9;
    if (rec->cancel) {
      r.message = "cancelled while queued";
      finish_locked(id, *rec, JobState::kCancelled, r, unlinks);
    } else if (rec->deadline_ns != 0 && now > rec->deadline_ns) {
      r.message = "deadline expired before start";
      finish_locked(id, *rec, JobState::kExpired, r, unlinks);
    } else {
      rec->state = JobState::kRunning;
      rec->where = where;
      rec->start_ns = now;
      ++rec->attempts;
      ++running_;
      governor_.note_started(rec->spec);
      return Job{id, rec->spec, r.wait_s, rec->deadline_ns};
    }
  }
  settle(unlinks);
  return std::nullopt;
}

void JobTable::hold(const std::vector<std::uint64_t>& ids) {
  std::vector<std::string> unlinks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
      Rec* rec = find_locked(*it);
      if (rec == nullptr || rec->state != JobState::kQueued) continue;
      if (rec->cancel) {
        JobResult r;
        r.message = "cancelled while queued";
        finish_locked(*it, *rec, JobState::kCancelled, r, unlinks);
      } else {
        retry_.push_front(*it);
      }
    }
  }
  settle(unlinks);
}

void JobTable::requeue(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  Rec* rec = find_locked(id);
  if (rec == nullptr || rec->state != JobState::kRunning) return;
  rec->state = JobState::kQueued;
  rec->where = -1;
  --running_;
  retry_.push_back(id);
  governor_.note_requeued(rec->spec);
}

void JobTable::failover(std::uint64_t id, const std::string& why) {
  std::vector<std::string> unlinks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Rec* rec = find_locked(id);
    if (rec == nullptr || terminal(rec->state)) return;
    JobResult r;
    r.error = fault::ErrorCode::kUnavailable;
    if (rec->attempts >= opts_.max_attempts) {
      r.message = "job abandoned after " + std::to_string(opts_.max_attempts) +
                  " dispatch attempts — last loss: " + why;
    } else if (const AdmitDecision q =
                   governor_.quarantine_check(rec->spec, steady_now_ns());
               !q.ok()) {
      // Poison quarantine: this (tenant, shape) keeps killing executors.
      // Fail fast instead of burning the remaining attempts on siblings.
      r.message = format_rejection(AdmitReason::kQuarantined,
                                   "poison job quarantined — last loss: " + why,
                                   q.retry_after_ms);
    } else {
      // Resume from the last durable pass-boundary checkpoint; a missing or
      // unusable file degrades to a fresh (still bit-exact) start.
      rec->spec.resume = !rec->spec.checkpoint_path.empty();
      rec->state = JobState::kQueued;
      rec->where = -1;
      --running_;
      retry_.push_back(id);
      governor_.note_requeued(rec->spec);
      ++stats_.failovers;
      ++stats_.redispatched;
      return;
    }
    finish_locked(id, *rec, JobState::kFailed, r, unlinks);
  }
  settle(unlinks);
}

void JobTable::note_poison(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const Rec* rec = find_locked(id);
  if (rec != nullptr && !terminal(rec->state))
    governor_.note_poison(rec->spec, steady_now_ns());
}

bool JobTable::finish(std::uint64_t id, JobState state, const JobResult& result) {
  std::vector<std::string> unlinks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Rec* rec = find_locked(id);
    if (rec == nullptr || terminal(rec->state)) return false;
    finish_locked(id, *rec, state, result, unlinks);
  }
  settle(unlinks);
  return true;
}

void JobTable::shed_expired() {
  std::vector<std::string> unlinks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t now = steady_now_ns();
    std::vector<std::uint64_t> expired = queue_.take_expired(now);
    // Held-back and failed-over jobs wait outside the queue; their
    // deadlines hold all the same.
    for (auto it = retry_.begin(); it != retry_.end();) {
      const Rec* rec = find_locked(*it);
      if (rec == nullptr || rec->deadline_ns == 0 || rec->deadline_ns > now) {
        ++it;
        continue;
      }
      expired.push_back(*it);
      it = retry_.erase(it);
    }
    for (const std::uint64_t id : expired) {
      Rec* rec = find_locked(id);
      if (rec == nullptr || rec->state != JobState::kQueued) continue;
      ++stats_.shed_expired;
      governor_.note_shed(rec->spec);
      JobResult r;
      r.message = "deadline expired while queued; shed";
      finish_locked(id, *rec, JobState::kExpired, r, unlinks);
    }
  }
  settle(unlinks);
}

void JobTable::fail_active(const std::string& why) {
  std::vector<std::string> unlinks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    retry_.clear();
    std::vector<std::uint64_t> ids;
    for (const auto& [id, rec] : jobs_)
      if (!terminal(rec.state)) ids.push_back(id);
    std::sort(ids.begin(), ids.end());  // oldest first, like retention
    for (const std::uint64_t id : ids) {
      queue_.remove(id);
      JobResult r;
      r.error = fault::ErrorCode::kUnavailable;
      r.message = why;
      finish_locked(id, jobs_.at(id), JobState::kFailed, r, unlinks);
    }
  }
  settle(unlinks);
}

void JobTable::finish_locked(std::uint64_t id, Rec& rec, JobState state,
                             const JobResult& result, std::vector<std::string>& unlinks) {
  const bool was_running = rec.state == JobState::kRunning;
  if (was_running) --running_;
  rec.state = state;
  rec.result = result;
  rec.where = -1;
  if (rec.cancel) std::erase(cancels_, id);  // nothing left to forward
  switch (state) {
    case JobState::kDone:
      ++stats_.completed;
      break;
    case JobState::kFailed:
      ++stats_.failed;
      break;
    case JobState::kCancelled:
      ++stats_.cancelled;
      break;
    case JobState::kExpired:
      ++stats_.expired;
      break;
    default:
      break;
  }
  if (result.batched) ++stats_.batched;
  if (result.plan_cache_hit)
    ++stats_.plan_hits;
  else if (state == JobState::kDone)
    ++stats_.plan_misses;
  if (rec.start_ns > 0)
    stats_.total_wait_s += static_cast<double>(rec.start_ns - rec.submit_ns) * 1e-9;
  stats_.total_run_s += result.run_s;
  governor_.note_finished(rec.spec, was_running, state);
  // The checkpoint only seeds failover; a terminal job never runs again.
  if (opts_.checkpoint_dir.empty())
    --active_;
  else
    unlinks.push_back(rec.spec.checkpoint_path);
  // Bounded retention. `rec` is the newest terminal, so never evicted here.
  terminal_order_.push_back(id);
  while (terminal_order_.size() > opts_.retention) {
    jobs_.erase(terminal_order_.front());
    terminal_order_.pop_front();
  }
}

void JobTable::settle(const std::vector<std::string>& unlinks) {
  if (!unlinks.empty()) {
#ifdef __unix__
    for (const std::string& path : unlinks) ::unlink(path.c_str());
#endif
    std::lock_guard<std::mutex> lock(mu_);
    active_ -= unlinks.size();
  }
  cv_.notify_all();
}

bool JobTable::cancel_requested(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  return it != jobs_.end() && it->second.cancel;
}

std::vector<std::pair<std::uint64_t, int>> JobTable::take_cancels() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::uint64_t, int>> out;
  for (const std::uint64_t id : cancels_) {
    const Rec* rec = find_locked(id);
    if (rec != nullptr && rec->state == JobState::kRunning)
      out.emplace_back(id, rec->where);
  }
  cancels_.clear();
  return out;
}

std::size_t JobTable::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

void JobTable::set_gate(bool gated) { queue_.set_gate(gated); }

void JobTable::count(std::uint64_t ServiceStats::*field, std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.*field += n;
}

ServiceStats JobTable::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
    out.queue_depth = queue_.size() + retry_.size();
    out.in_flight = running_;
  }
  out.tenancy = governor_.enabled();
  out.quarantined = governor_.quarantined_total();
  out.quarantine_trips = governor_.quarantine_trips();
  out.tenants = governor_.snapshot();
  if (!out.tenants.empty()) {
    for (const auto& [tenant, deficit] : queue_.drr_snapshot())
      for (TenantCounters& c : out.tenants)
        if (c.key == tenant) c.deficit = deficit;
  }
  return out;
}

}  // namespace s35::service
