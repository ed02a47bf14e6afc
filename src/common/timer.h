// Monotonic wall-clock timing for benchmark harnesses.
#pragma once

#include <chrono>
#include <cstdint>

namespace s35 {

// Steady-clock nanoseconds since an arbitrary epoch: deadlines, heartbeats.
inline std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  std::int64_t nanoseconds() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Runs `fn` repeatedly until at least `min_seconds` elapse (and at least
// `min_reps` repetitions), returning seconds per repetition of the fastest
// run. Used by the figure-reproduction benches where google-benchmark's
// per-iteration model does not fit multi-timestep sweeps.
template <typename Fn>
double time_best_of(Fn&& fn, int min_reps = 3, double min_seconds = 0.2) {
  double best = 1e300;
  double total = 0.0;
  int reps = 0;
  while (reps < min_reps || total < min_seconds) {
    Timer t;
    fn();
    const double s = t.seconds();
    if (s < best) best = s;
    total += s;
    ++reps;
    if (reps > 1000) break;  // degenerate ultra-fast body
  }
  return best;
}

}  // namespace s35
