// Distributed-memory-style Z-slab decomposition with temporal blocking,
// written once for every field type (core/field.h).
//
// The multicore-aware temporal blocking line of work the paper builds on
// (Wittmann et al. [22], Treibig et al. [23]) extends the scheme across
// address spaces: the field is decomposed into `ranks` subdomains along Z;
// before each pass of dim_t steps every rank exchanges halo slabs of
// thickness H = R*dim_t (every array of the field) with its Z neighbors,
// then runs the 3.5D engine on its extended local field completely
// independently. Correctness is the thick-halo argument of
// stencil/periodic.h: influence from a halo's outer (frozen) edge travels
// R planes per step and cannot reach the owned region within one pass.
//
// Ranks are simulated in-process (each has its own fields and its own
// engine pass) and the exchange is a memcpy — the communication *volume*
// and *message count* accounting is what an MPI implementation would see:
// per pass each interior face moves H planes once, so temporal blocking
// divides the message count by dim_t at constant bytes per time step —
// the latency-amortization benefit distributed stencil codes chase.
//
// Fault tolerance (optional, zero-overhead when unconfigured): attach a
// fault::FaultPlan and the driver treats every halo message as a verified
// transfer — source CRC32C against destination CRC32C, the signal a
// checksumming transport would deliver — retrying torn transfers with
// capped exponential backoff. Enable checkpointing and the driver writes
// durable format-v2 checkpoints (completed steps in the user tag) every N
// passes; a permanent rank failure is then survived by repartitioning the
// dead rank's slab across the survivors (degraded mode) and restoring the
// last good checkpoint, replaying from there. With set_integrity, a
// poisoned per-rank pass climbs the SDC ladder: in-memory re-execution
// (core/passes.h) first, checkpoint restore when that does not converge.
// Because results are bitwise rank-count-independent, a recovered run
// finishes bit-identical to a fault-free one. All events are counted in
// CommStats and charged to the telemetry kRecovery phase.
//
// stencil::DistributedStencilDriver and lbm::DistributedLbmDriver derive
// from ZSlabDriver and only supply the per-rank kernel.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/field.h"
#include "core/passes.h"
#include "fault/fault_plan.h"
#include "fault/retry.h"
#include "parallel/partition.h"
#include "simd/dispatch.h"
#include "telemetry/telemetry.h"

namespace s35::core {

struct CommStats {
  std::uint64_t messages = 0;       // one per (face, direction, pass)
  std::uint64_t bytes = 0;          // payload exchanged
  std::uint64_t passes = 0;
  std::uint64_t time_steps = 0;

  // Fault-tolerance accounting: transient halo faults detected, the
  // retransmits that absorbed them, durable checkpoints written (and
  // write failures tolerated), restores from checkpoint, and permanent
  // rank failures survived via degraded repartitioning.
  std::uint64_t halo_faults = 0;
  std::uint64_t halo_retries = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_failures = 0;
  std::uint64_t restores = 0;
  std::uint64_t rank_failures = 0;

  // Online-integrity accounting (set_integrity): SDC detections, the
  // in-memory pass re-executions that absorbed them, and the escalations
  // to a checkpoint restore when re-execution did not converge.
  std::uint64_t sdc_detected = 0;
  std::uint64_t sdc_reexecs = 0;
  std::uint64_t sdc_restores = 0;

  double bytes_per_step() const {
    return time_steps == 0 ? 0.0 : static_cast<double>(bytes) / time_steps;
  }
  double messages_per_step() const {
    return time_steps == 0 ? 0.0 : static_cast<double>(messages) / time_steps;
  }
};

template <typename F>
class ZSlabDriver {
  using Tr = FieldTraits<F>;
  using Pair = typename Tr::Pair;

 public:
  struct Extent {
    long begin, end;
  };

  // Decomposes an nx x ny x nz field into `ranks` Z slabs. Every rank's
  // owned slab must be at least as deep as the halo (radius * dim_t planes).
  ZSlabDriver(long nx, long ny, long nz, int ranks, int dim_t, long radius)
      : nx_(nx), ny_(ny), nz_(nz), ranks_(ranks), dim_t_(dim_t),
        halo_(radius * dim_t), radius_(radius) {
    S35_CHECK(ranks >= 1 && dim_t >= 1);
    S35_CHECK_MSG(partition_viable(ranks), "subdomain shallower than the R*dim_t halo");
    build_partition(ranks);
  }

  // Scatters a full field into the local (extended) subdomains.
  void scatter(const F& global) {
    for (int r = 0; r < ranks_; ++r) {
      const Extent& ext = extended_[static_cast<std::size_t>(r)];
      copy_planes(global, 0, locals_[static_cast<std::size_t>(r)].src(), ext.begin,
                  ext.begin, ext.end);
    }
  }

  // Gathers the owned slabs back into a full field.
  void gather(F& global) const {
    for (int r = 0; r < ranks_; ++r) {
      const Extent& own = owned_[static_cast<std::size_t>(r)];
      copy_planes(locals_[static_cast<std::size_t>(r)].src(),
                  extended_[static_cast<std::size_t>(r)].begin, global, 0, own.begin,
                  own.end);
    }
  }

  // ---- fault tolerance configuration (all optional) ----

  // Attaches the fault plan consulted on every pass/message. The driver
  // does not own the plan; pass nullptr to detach.
  void set_fault_plan(fault::FaultPlan* plan) { plan_ = plan; }
  void set_retry_policy(const fault::RetryPolicy& p) { retry_ = p; }
  // Routes checkpoint I/O through `io` (e.g. a FaultyIoBackend).
  void set_io_backend(fault::IoBackend* io) { io_ = io; }

  // Arms the online-integrity layer (src/integrity) for every per-rank
  // pass: sentinels/guards/audits feed `monitor`, and a poisoned pass
  // climbs the recovery ladder — in-memory re-execution first, checkpoint
  // restore when re-execution does not converge. The monitor (and optional
  // watchdog) are borrowed, not owned.
  void set_integrity(const integrity::IntegrityOptions& opts,
                     integrity::IntegrityMonitor* monitor,
                     integrity::Watchdog* watchdog = nullptr) {
    ictx_.options = opts;
    ictx_.monitor = monitor;
    ictx_.watchdog = watchdog;
  }

  // Writes a durable checkpoint to `path` every `every_passes` blocked
  // passes (plus one at run start so rank-failure recovery always has a
  // restore point). The file is also the restore source for recovery.
  void enable_checkpointing(const std::string& path, int every_passes) {
    S35_CHECK(every_passes >= 1);
    ckpt_path_ = path;
    checkpoint_every_ = every_passes;
  }

  // Restores field state and the completed-step count from a checkpoint
  // written by a previous (interrupted) run. A nonzero `max_steps` bounds
  // the plausible completed-step tag: a checkpoint claiming more finished
  // steps than the run ever schedules is rejected as kMismatch instead of
  // silently fast-forwarding past the end of the run.
  fault::Status resume_from(const std::string& path, std::uint64_t max_steps = 0) {
    F global(nx_, ny_, nz_);
    std::uint64_t tag = 0;
    if (fault::Status st = load_field(path, global, &tag, io_); !st.ok()) return st;
    if (max_steps > 0 && tag > max_steps)
      return {fault::ErrorCode::kMismatch,
              "checkpoint claims " + std::to_string(tag) +
                  " completed steps, run schedules only " + std::to_string(max_steps)};
    scatter(global);
    steps_done_ = tag;
    last_good_ = path;
    return {};
  }

  const CommStats& stats() const { return stats_; }
  int ranks() const { return ranks_; }  // shrinks in degraded mode
  long halo_planes() const { return halo_; }
  std::uint64_t steps_done() const { return steps_done_; }

 protected:
  // Advances `steps` time steps: halo exchange, one blocked pass per rank,
  // repeat. cfg.dim_x/dim_y select the per-rank tiling (0 = whole axis),
  // cfg.family/dim_z/serialized the schedule and cfg.kernel the kernel
  // options, with the vector backend dispatched at run time from
  // cfg.kernel.isa; dim_t is fixed by the constructor (it sizes the halos).
  // make_kernel(rank, tag, src, dst, shape, planes_per_instance, ictx)
  // builds the rank's kernel policy for Vec backend `tag`. Recoverable
  // faults (torn exchanges within the retry budget, rank failure or
  // unconverged SDC with a checkpoint available) are absorbed; anything
  // else comes back as an error.
  template <typename Config, typename MakeKernel>
  fault::Status run_slabs(int steps, const Config& cfg, Engine35& engine,
                          MakeKernel&& make_kernel) {
    const std::uint64_t target = steps_done_ + static_cast<std::uint64_t>(steps);
    if (checkpoint_every_ > 0 && last_good_.empty())
      (void)write_checkpoint();  // failure tolerated: counted, run continues
    while (steps_done_ < target) {
      if (plan_ != nullptr) {
        int dead = -1;
        for (int r = 0; r < ranks_; ++r)
          if (plan_->rank_fails(r, pass_index_)) dead = r;
        if (dead >= 0) {
          if (fault::Status st = recover_from_rank_failure(dead); !st.ok()) return st;
          continue;
        }
      }
      const std::uint64_t left = target - steps_done_;
      const int dt = left < static_cast<std::uint64_t>(dim_t_) ? static_cast<int>(left)
                                                               : dim_t_;
      if (fault::Status st = exchange_halos(); !st.ok()) {
        // A transfer that stayed torn past the retry budget is a permanent
        // comm fault: fall back to the last good checkpoint if there is
        // one (same ranks — the hardware survived, the exchange didn't).
        if (st.code() != fault::ErrorCode::kRetriesExhausted || last_good_.empty())
          return st;
        if (fault::Status rst = restore(); !rst.ok()) return rst;
        continue;
      }
      bool escalate = false;
      for (int r = 0; r < ranks_ && !escalate; ++r) {
        if (fault::Status st = run_rank_pass(r, dt, cfg, engine, make_kernel); !st.ok()) {
          if (st.code() != fault::ErrorCode::kSdcDetected) return st;
          // Re-execution did not converge: climb to the checkpoint rung.
          if (last_good_.empty()) return st;
          escalate = true;
        }
      }
      if (escalate) {
        ++pass_index_;  // the replayed pass gets a fresh fault-plan ordinal
        ++stats_.sdc_restores;
        if (ictx_.monitor != nullptr) {
          ictx_.monitor->clear_poison();
          ictx_.monitor->note_checkpoint_restore();
        }
        if (fault::Status rst = restore(); !rst.ok()) return rst;
        continue;
      }
      stats_.passes += 1;
      stats_.time_steps += static_cast<std::uint64_t>(dt);
      steps_done_ += static_cast<std::uint64_t>(dt);
      ++pass_index_;
      if (checkpoint_every_ > 0 && pass_index_ % checkpoint_every_ == 0)
        (void)write_checkpoint();  // failure tolerated: counted, run continues
    }
    return {};
  }

  // Global z range of rank r's extended (halo-inclusive) local field.
  const Extent& extended(int r) const { return extended_[static_cast<std::size_t>(r)]; }
  // Bumped by every (re)partition; lets derived drivers refresh per-rank
  // state such as sliced geometry.
  std::uint64_t partition_epoch() const { return epoch_; }

 private:
  // True when every slab of a `ranks`-way split stays at least halo deep.
  bool partition_viable(int ranks) const {
    if (ranks == 1) return true;
    for (int r = 0; r < ranks; ++r) {
      const auto [b, e] = parallel::chunk_range(nz_, ranks, r);
      if (e - b < halo_) return false;
    }
    return true;
  }

  void build_partition(int ranks) {
    locals_.clear();
    owned_.clear();
    extended_.clear();
    for (int r = 0; r < ranks; ++r) {
      const auto [b, e] = parallel::chunk_range(nz_, ranks, r);
      const long lo = (r == 0) ? b : b - halo_;
      const long hi = (r == ranks - 1) ? e : e + halo_;
      locals_.emplace_back(nx_, ny_, hi - lo);
      owned_.push_back({b, e});
      extended_.push_back({lo, hi});
    }
    S35_CHECK(owned_.back().end == nz_);
    ranks_ = ranks;
    ++epoch_;
  }

  // Copies the halo slabs from each neighbor's owned region into this
  // rank's extended field (both directions for every interior face). With
  // a fault plan attached each message is a verified transfer: retried
  // with backoff while the destination CRC disagrees with the source.
  fault::Status exchange_halos() {
    const std::size_t row_bytes =
        static_cast<std::size_t>(nx_) * sizeof(typename Tr::Value);
    for (int r = 0; r + 1 < ranks_; ++r) {
      Pair& left = locals_[static_cast<std::size_t>(r)];
      Pair& right = locals_[static_cast<std::size_t>(r + 1)];
      const long lb = extended_[static_cast<std::size_t>(r)].begin;
      const long rb = extended_[static_cast<std::size_t>(r + 1)].begin;
      const long face = owned_[static_cast<std::size_t>(r)].end;  // global z of the cut

      // dir 0: right rank's lower halo [face - halo, face) from the left
      // rank; dir 1: left rank's upper halo [face, face + halo) from the
      // right rank.
      for (int dir = 0; dir < 2; ++dir) {
        F& src = dir == 0 ? left.src() : right.src();
        F& dst = dir == 0 ? right.src() : left.src();
        const long src_lo = dir == 0 ? lb : rb;
        const long dst_lo = dir == 0 ? rb : lb;
        const long z0 = dir == 0 ? face - halo_ : face;
        const long z1 = dir == 0 ? face : face + halo_;
        if (plan_ == nullptr) {
          copy_planes(src, src_lo, dst, dst_lo, z0, z1);
        } else {
          const std::uint64_t msg =
              2ull * static_cast<std::uint64_t>(r) + static_cast<std::uint64_t>(dir);
          const std::uint32_t want = planes_crc(src, src_lo, z0, z1);
          int attempts = 0;
          const std::int64_t t0 = telemetry::detail::now_ns();
          // Salted with (pass, message) so concurrent ranks' retry delays
          // decorrelate instead of hammering the fabric in lockstep.
          const std::uint64_t salt = (pass_index_ << 16) ^ msg;
          fault::Status st = fault::retry_with_backoff(retry_, salt, [&](int attempt) {
            attempts = attempt + 1;
            copy_planes(src, src_lo, dst, dst_lo, z0, z1);
            typename Tr::Value* first = Tr::row(dst, 0, 0, z0 - dst_lo);
            switch (plan_->halo_fault(pass_index_, msg, attempt)) {
              case fault::HaloFault::kCorrupt:
                // Torn payload: flip one bit of the delivered slab.
                reinterpret_cast<unsigned char*>(first)[0] ^= 0x01;
                break;
              case fault::HaloFault::kDrop:
                std::memset(first, 0, row_bytes);  // lost payload
                break;
              case fault::HaloFault::kNone:
                break;
            }
            if (planes_crc(dst, dst_lo, z0, z1) != want) {
              ++stats_.halo_faults;
              return fault::Status(fault::ErrorCode::kTransient,
                                   "halo message checksum mismatch");
            }
            return fault::Status();
          });
          if (attempts > 1) {
            stats_.halo_retries += static_cast<std::uint64_t>(attempts - 1);
            telemetry::record_ns(0, telemetry::Phase::kRecovery,
                                 telemetry::detail::now_ns() - t0);
          }
          if (!st.ok()) return st;
        }
        stats_.messages += 1;
        stats_.bytes += static_cast<std::uint64_t>(Tr::kArrays) * halo_ * ny_ * row_bytes;
      }
    }
    return {};
  }

  // One blocked pass over rank r's extended field through the shared pass
  // runner, with its in-memory re-execution rung; swaps the rank's pair on
  // success. Returns kSdcDetected when the monitor still reports poison
  // after max_reexec replays.
  template <typename Config, typename MakeKernel>
  fault::Status run_rank_pass(int r, int dt, const Config& cfg, Engine35& engine,
                              MakeKernel& make_kernel) {
    Pair& pair = locals_[static_cast<std::size_t>(r)];
    integrity::IntegrityContext ictx = ictx_;
    ictx.plan = plan_;
    ictx.pass = pass_index_;
    const PassShape shape{cfg.dim_x > 0 ? cfg.dim_x : nx_,
                          cfg.dim_y > 0 ? cfg.dim_y : ny_, dt};
    ReexecCounts counts;
    const fault::Status st = simd::dispatch(cfg.kernel.isa, [&](auto tag) {
      return run_passes(
          engine, pair, dt, radius_, shape, cfg, ictx, /*reexecute=*/true,
          [&](const PassShape& s, int planes, const integrity::IntegrityContext& c) {
            return make_kernel(r, tag, pair.src(), pair.dst(), s, planes, c);
          },
          &counts);
    });
    stats_.sdc_detected += counts.detected;
    stats_.sdc_reexecs += counts.reexecs;
    return st;
  }

  fault::Status write_checkpoint() {
    F global(nx_, ny_, nz_);
    gather(global);
    const fault::Status st = save_field(ckpt_path_, global, steps_done_, io_);
    if (st.ok()) {
      ++stats_.checkpoints_written;
      last_good_ = ckpt_path_;
    } else {
      ++stats_.checkpoint_failures;
    }
    return st;
  }

  fault::Status restore() {
    const telemetry::ScopedPhase phase(0, telemetry::Phase::kRecovery);
    F global(nx_, ny_, nz_);
    std::uint64_t tag = 0;
    if (fault::Status st = load_field(last_good_, global, &tag, io_); !st.ok()) return st;
    scatter(global);
    steps_done_ = tag;
    ++stats_.restores;
    return {};
  }

  // Permanent rank failure: shrink the partition to the surviving rank
  // count (the dead rank's slab is spread across survivors), then restore
  // from the last good checkpoint and replay. Surfaces kUnavailable when
  // checkpointing was never enabled/succeeded and kAllocFailure when the
  // plan refuses the repartition allocations.
  fault::Status recover_from_rank_failure(int dead_rank) {
    const telemetry::ScopedPhase phase(0, telemetry::Phase::kRecovery);
    ++stats_.rank_failures;
    if (last_good_.empty())
      return {fault::ErrorCode::kUnavailable,
              "rank " + std::to_string(dead_rank) +
                  " failed with no checkpoint to restore from"};
    int survivors = ranks_ > 1 ? ranks_ - 1 : 1;
    while (survivors > 1 && !partition_viable(survivors)) --survivors;
    if (plan_ != nullptr && plan_->alloc_fails(pass_index_))
      return {fault::ErrorCode::kAllocFailure,
              "allocation refused while repartitioning to " + std::to_string(survivors) +
                  " ranks"};
    build_partition(survivors);
    return restore();
  }

  long nx_, ny_, nz_;
  int ranks_;
  int dim_t_;
  long halo_;
  long radius_;
  std::vector<Pair> locals_;
  std::vector<Extent> owned_;
  std::vector<Extent> extended_;
  std::uint64_t epoch_ = 0;
  CommStats stats_;

  fault::FaultPlan* plan_ = nullptr;
  fault::IoBackend* io_ = nullptr;
  fault::RetryPolicy retry_;
  integrity::IntegrityContext ictx_;  // plan/pass filled per rank pass
  std::string ckpt_path_;
  std::string last_good_;  // most recent restore source (may equal ckpt_path_)
  int checkpoint_every_ = 0;
  std::uint64_t pass_index_ = 0;  // monotonic blocked-pass counter
  std::uint64_t steps_done_ = 0;  // completed time steps (rewinds on restore)
};

}  // namespace s35::core
