// Measurement helpers of the repository benchmark: tail percentiles that
// refuse thin samples, an in-memory span tracer with self-time
// attribution, the attempted/failed tally behind error_rate, and the
// closed-loop client runner of the serve workloads. Header-only and free
// of library dependencies so selftest.cpp can check each one in isolation.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace pb {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ percentiles --

// A tail percentile is only reported when at least this many samples lie
// beyond it; fewer would let one outlier set the value.
inline constexpr std::size_t kMinTail = 10;

// Nearest-rank percentile q in (0, 1) of `samples`, or nullopt when fewer
// than kMinTail samples lie strictly above its rank (so p95 needs >= 200
// samples). The median is exempt from the tail rule but needs one sample.
inline std::optional<double> percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (q > 0.5 && n - rank < kMinTail) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

inline double median(const std::vector<double>& samples) {
  return percentile(samples, 0.5).value_or(0.0);
}

// The highest of the standard tail percentiles that `n` samples support
// (>= kMinTail beyond it), or nullopt when none does.
inline std::optional<double> highest_tail_quantile(std::size_t n) {
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    const std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    if (rank >= 1 && n >= rank && n - rank >= kMinTail) return q;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------- tracing --

// One timed interval at a layer boundary. Spans of one job share `job`;
// parent == -1 marks a root.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t job = 0;
};

// Keeps spans in memory (thread-safe) and writes them out on request. When
// constructed disabled every call is a no-op returning -1, so the untraced
// run pays one branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span now; close it with end().
  int begin(const std::string& name, int parent = -1, std::uint64_t job = 0) {
    if (!enabled_) return -1;
    return add(name, now_ns(), 0, parent, job);
  }

  void end(int id) {
    if (id < 0) return;
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }

  // Records a span whose bounds are already known (e.g. phase durations a
  // JobResult reports after the fact).
  int add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
          int parent = -1, std::uint64_t job = 0) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start_ns, end_ns, parent, job});
    return static_cast<int>(spans_.size()) - 1;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  // Writes every span as one JSON document. False on an I/O error.
  bool write_json(const std::string& path) const {
    const std::vector<Span> all = spans();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [");
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      std::fprintf(f,
                   "%s\n {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d, \"job\": %llu}",
                   i ? "," : "", i, s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.job));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Self time of every span: its duration minus the part of its interval
// covered by at least one child. Overlapping children are merged first, so
// time two children share is subtracted once, and child time outside the
// parent's interval is ignored.
inline std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = static_cast<double>(std::max<std::int64_t>(0, hi - lo - covered)) * 1e-9;
  }
  return out;
}

// Self time summed per span name, plus the number of spans of that name.
struct LayerTime {
  double self_s = 0.0;
  double total_s = 0.0;
  long count = 0;
};

inline std::map<std::string, LayerTime> self_by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& lt = out[spans[i].name];
    lt.self_s += self[i];
    lt.total_s += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    ++lt.count;
  }
  return out;
}

// ------------------------------------------------------------ error tally --

// Counts every attempted operation and every failed one; error_rate uses
// the attempts as its base, so an operation that never produced a result
// (rejected, timed out) still counts. Thread-safe; each failure is printed
// to `log` (stderr by default, nullptr = silent) as it happens so a failing
// run explains itself.
class Tally {
 public:
  explicit Tally(std::FILE* log = stderr) : log_(log) {}

  void attempt() { attempted_.fetch_add(1, std::memory_order_relaxed); }

  void fail(const std::string& why) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    if (log_ != nullptr) std::fprintf(log_, "MISMATCH: %s\n", why.c_str());
  }

  // attempt() plus fail(why) when !ok; returns ok.
  bool check(bool ok, const std::string& why) {
    attempt();
    if (!ok) fail(why);
    return ok;
  }

  long attempted() const { return attempted_.load(); }
  long failed() const { return failed_.load(); }
  double error_rate() const {
    const long a = attempted();
    return a > 0 ? static_cast<double>(failed()) / static_cast<double>(a) : 0.0;
  }

 private:
  std::FILE* log_;
  std::atomic<long> attempted_{0};
  std::atomic<long> failed_{0};
};

// ------------------------------------------------------------ closed loop --

// A closed loop: each of `clients` threads submits the next job of a shared
// sequence, waits for that job, and only then submits again. New jobs stop
// once `seconds` have passed and at least `min_jobs` were issued. `submit(j)`
// issues job j and returns a handle (nullopt = refused; the loop then moves
// on); `wait(j, handle)` is called exactly once per accepted handle and
// blocks until the job is terminal. Returns the loop's wall seconds.
template <typename Handle>
struct LoopSpec {
  int clients = 4;
  double seconds = 1.0;
  long min_jobs = 0;
  std::function<std::optional<Handle>(long job)> submit;
  std::function<void(long job, const Handle& handle)> wait;
};

template <typename Handle>
double closed_loop(const LoopSpec<Handle>& spec) {
  std::atomic<long> next{0};
  const std::int64_t t0 = now_ns();
  const std::int64_t stop_ns = t0 + static_cast<std::int64_t>(spec.seconds * 1e9);
  std::vector<std::thread> clients;
  for (int c = 0; c < spec.clients; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const long j = next.fetch_add(1);
        if (j >= spec.min_jobs && now_ns() >= stop_ns) break;
        const std::optional<Handle> h = spec.submit(j);
        if (h) spec.wait(j, *h);
      }
    });
  }
  for (auto& t : clients) t.join();
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace pb
