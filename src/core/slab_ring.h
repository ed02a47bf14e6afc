// Engine35 slab-ring base: the on-chip blocking buffer and its integrity
// machinery, shared by every kernel policy (stencil and LBM).
//
// The buffer holds dim_t time instances x ring slots of XY sub-planes, each
// with the field's kArrays sub-planes of dim_x x dim_y (eq. 1: E values per
// cell). Instance 0 receives loaded input planes, instances 1..dim_t-1 hold
// intermediate time steps, and instance dim_t's results go straight to the
// output field. All row addressing is in global grid coordinates; buffer
// rows are exposed through pointers pre-offset by the tile origin so the
// kernel inner loop is identical for buffered and external storage.
//
// Derived kernels add only their compute step (and its audit): loads and
// frozen-plane copies, guards, resident-plane sentinels, injected faults
// and the engine's integrity hooks (core::HasIntegrityHooks) live here.
#pragma once

#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/crc32c.h"
#include "core/engine.h"
#include "core/field.h"
#include "core/kernel_options.h"
#include "fault/fault_plan.h"
#include "integrity/integrity.h"
#include "integrity/watchdog.h"
#include "parallel/thread_team.h"

namespace s35::core {

template <typename F>
class SlabRing {
 protected:
  using Tr = FieldTraits<F>;
  using T = typename Tr::Value;
  static constexpr int kArrays = Tr::kArrays;

 public:
  SlabRing(const F& src, F& dst, long dim_x, long dim_y, int dim_t,
           int planes_per_instance, KernelOptions opts,
           integrity::IntegrityContext ictx)
      : src_(&src),
        dst_(&dst),
        opts_(opts),
        ictx_(ictx),
        pitch_(grid::padded_pitch(dim_x, sizeof(T))),
        buf_ny_(dim_y),
        ring_(planes_per_instance),
        buffer_(static_cast<std::size_t>(pitch_) * dim_y * ring_ * dim_t * kArrays) {
    if (ictx_.active() && ictx_.options.sentinels)
      sentinels_.configure(dim_t, planes_per_instance);
  }

  std::size_t buffer_bytes() const { return buffer_.size() * sizeof(T); }

  // Re-targets the external fields (after a Jacobi swap) so one kernel —
  // and its multi-MB ring buffer — serves every pass of a multi-pass run.
  void rebind(const F& src, F& dst) {
    src_ = &src;
    dst_ = &dst;
  }

  // ---- online-integrity hook set (see core::HasIntegrityHooks) ----

  bool integrity_active() const {
    return ictx_.active() || (ictx_.watchdog && ictx_.watchdog->armed());
  }

  // The blocked-pass ordinal feeds the audit sampler and the fault plan;
  // the pass runner bumps it per pass (re-executions keep it).
  void set_integrity_pass(std::uint64_t pass) { ictx_.pass = pass; }

  void integrity_heartbeat(int tid, telemetry::Phase p) {
    if (ictx_.watchdog) ictx_.watchdog->heartbeat(tid, p);
  }

  void integrity_tile_begin(const Tile& tile, int tid) {
    (void)tile;
    if (tid == 0 && ictx_.active() && ictx_.options.sentinels) sentinels_.reset();
  }

  // Fenced per-round slot (tid 0 does sentinel work; see engine.h). Rolls
  // the sentinel table forward: record planes round m produced, then verify
  // the planes round m+1 is about to overwrite — i.e. every resident plane
  // (all kArrays sub-planes) is CRC-checked exactly once, when it retires
  // (or at pass end).
  void integrity_round(const Tile& tile, const std::vector<std::vector<Step>>& rounds,
                       long m, int tid) {
    integrity_heartbeat(tid, telemetry::Phase::kAudit);
    if (ictx_.plan && ictx_.plan->stall_fires(ictx_.pass, tid))
      std::this_thread::sleep_for(std::chrono::milliseconds(ictx_.plan->stall_ms));
    if (tid != 0 || !ictx_.active() || !ictx_.options.sentinels) return;
    const telemetry::ScopedPhase phase(tid, telemetry::Phase::kAudit);
    for (const Step& step : rounds[static_cast<std::size_t>(m)]) {
      // Unsampled planes leave their slot sentinel-free (it was already
      // verified and taken when the previous occupant retired), so the
      // stride can never turn into a false positive downstream.
      if (!integrity::plane_selects(ictx_.options.sentinel_stride, ictx_.pass, step.z))
        continue;
      if (step.kind == StepKind::kLoad) {
        sentinels_.record(0, step.dst_slot, step.z, plane_crc(tile, 0, step.dst_slot));
      } else if (!step.to_external) {
        sentinels_.record(step.t, step.dst_slot, step.z,
                          plane_crc(tile, step.t, step.dst_slot));
      }
    }
    if (ictx_.plan) maybe_flip_plane(tile, rounds[static_cast<std::size_t>(m)], m);
    if (m + 1 < static_cast<long>(rounds.size())) {
      for (const Step& step : rounds[static_cast<std::size_t>(m + 1)]) {
        if (step.kind == StepKind::kLoad) {
          verify_retiring(tile, 0, step.dst_slot);
        } else if (!step.to_external) {
          verify_retiring(tile, step.t, step.dst_slot);
        }
      }
    } else {
      sentinels_.for_each_valid(
          [&](int instance, int slot, const integrity::RingSentinels::Entry& e) {
            verify_entry(tile, instance, slot, e);
          });
      sentinels_.reset();
    }
  }

  void integrity_region_end(int tid) {
    if (ictx_.watchdog) ictx_.watchdog->idle(tid);
  }

 protected:
  static void copy_span(const T* in, T* out, long x0, long x1) {
    std::memcpy(out + x0, in + x0, static_cast<std::size_t>(x1 - x0) * sizeof(T));
  }

  // Row y of array `a` in ring plane (instance, slot), indexable with
  // global x; valid for global y within the tile's load window.
  T* buffer_row(const Tile& tile, int instance, int slot, int a, long y) {
    const std::size_t plane_index =
        (static_cast<std::size_t>(instance) * ring_ + static_cast<std::size_t>(slot)) *
            kArrays +
        static_cast<std::size_t>(a);
    T* plane = buffer_.data() + plane_index * static_cast<std::size_t>(pitch_) * buf_ny_;
    return plane + (y - tile.load.y.begin) * pitch_ - tile.load.x.begin;
  }

  // Elements between vertically adjacent buffer rows.
  long row_pitch() const { return pitch_; }

  // kLoad: external input plane -> instance 0's ring slot.
  void load_row(const Tile& tile, const Step& step, long y, long x0, long x1) {
    for (int a = 0; a < kArrays; ++a) {
      T* out = buffer_row(tile, 0, step.dst_slot, a, y);
      copy_span(Tr::row(*src_, a, y, step.z), out, x0, x1);
      if (guards_on(step)) guard_span(out, x0, x1, step, y, 0, a, "load");
    }
  }

  // kCopy: frozen boundary plane from instance t-1 to instance t (or to the
  // output field when step.to_external).
  void copy_row(const Tile& tile, const Step& step, long y, long x0, long x1) {
    for (int a = 0; a < kArrays; ++a) {
      T* out = step.to_external ? Tr::row(*dst_, a, y, step.z)
                                : buffer_row(tile, step.t, step.dst_slot, a, y);
      copy_span(buffer_row(tile, step.t - 1, step.src_slots[0], a, y), out, x0, x1);
      if (guards_on(step) && step.to_external)
        guard_span(out, x0, x1, step, y, step.t, a, "store");
    }
  }

  // Guards the external write of a compute step's row (every array).
  void guard_store(const Step& step, long y, long x0, long x1) {
    if (!guards_on(step) || !step.to_external) return;
    for (int a = 0; a < kArrays; ++a)
      guard_span(Tr::row(*dst_, a, y, step.z), x0, x1, step, y, step.t, a, "store");
  }

  // Wrong-result-row injection: corrupt one element of the final external
  // write of row (z, y) in array 0 — a fault only the audits can catch.
  void maybe_wrong_row(T* out, long x0, long x1, const Step& step, long y) {
    if (!ictx_.active() || !ictx_.plan || !step.to_external) return;
    const long xc = src_->nx() / 2;
    if (xc >= x0 && xc < x1 && ictx_.plan->wrong_row_fires(ictx_.pass, step.z, y))
      flip_value_bit(&out[xc], ictx_.plan->flip_bit);
  }

  // Guards sample planes on the rotating stride grid; localization tests
  // pin guard_stride = 1 for exact plane attribution.
  bool guards_on(const Step& step) const {
    return ictx_.active() && ictx_.options.guards &&
           integrity::plane_selects(ictx_.options.guard_stride, ictx_.pass, step.z);
  }

  // True when the audit sampler picks row (t, z, y) of this pass.
  bool audit_row(const Step& step, long y) const {
    return ictx_.active() &&
           integrity::audit_selects(ictx_.options.audit_seed, ictx_.pass, step.t, step.z,
                                    y, ictx_.options.audit_rate);
  }

  // Records an audit outcome: a mismatch poisons the pass, a clean row
  // counts as audited.
  void audit_result(const Step& step, long y, const std::string& mismatch) {
    const int tid = parallel::current_tid();
    if (mismatch.empty()) {
      ictx_.monitor->add_audited_rows(1);
      telemetry::add_integrity_counts(tid, 1, 0, 0);
      return;
    }
    integrity::SdcEvent e;
    e.kind = integrity::SdcKind::kAudit;
    e.pass = ictx_.pass;
    e.instance = step.t;
    e.z = step.z;
    e.y = y;
    e.tid = tid;
    e.detail = mismatch;
    ictx_.monitor->record(e);
    telemetry::add_integrity_counts(tid, 0, 1, 0);
  }

  static void flip_value_bit(T* v, int bit) {
    if (bit < 0 || bit >= static_cast<int>(sizeof(T)) * 8) bit = 0;
    unsigned char* p = reinterpret_cast<unsigned char*>(v);
    p[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }

  // NaN/Inf (and optional range) scan of a written span; a hit is localized
  // to (plane z, row y, step) — corrupted external input shows up at its
  // load, corrupted results at their external write.
  void guard_span(const T* p, long x0, long x1, const Step& step, long y, int instance,
                  int a, const char* where) {
    const double lo = ictx_.options.range_lo;
    const double hi = ictx_.options.range_hi;
    const bool banded = lo > -std::numeric_limits<double>::infinity() ||
                        hi < std::numeric_limits<double>::infinity();
    // Fast path: no plausibility band, nothing non-finite — one
    // vectorizable bit scan instead of a per-element double conversion.
    if (!banded && integrity::span_all_finite(p + x0, x1 - x0)) return;
    for (long x = x0; x < x1; ++x) {
      const double v = static_cast<double>(p[x]);
      if (std::isfinite(v) && v >= lo && v <= hi) continue;
      const int tid = parallel::current_tid();
      integrity::SdcEvent e;
      e.kind = integrity::SdcKind::kGuard;
      e.pass = ictx_.pass;
      e.instance = instance;
      e.z = step.z;
      e.y = y;
      e.tid = tid;
      e.detail = std::string(where) + " guard: non-finite/out-of-range at x=" +
                 std::to_string(x) + (kArrays > 1 ? " i=" + std::to_string(a) : "") +
                 " t=" + std::to_string(step.t);
      ictx_.monitor->record(e);
      telemetry::add_integrity_counts(tid, 0, 1, 0);
      return;
    }
  }

  // CRC32C over every array of ring plane (instance, slot), restricted to
  // the window the schedule wrote there: rows region(instance).y, columns
  // region(instance).x.
  std::uint32_t plane_crc(const Tile& tile, int instance, int slot) {
    const Rect& region = tile.region(instance);
    std::uint32_t crc = 0;
    for (int a = 0; a < kArrays; ++a) {
      for (long y = region.y.begin; y < region.y.end; ++y) {
        const T* row = buffer_row(tile, instance, slot, a, y);
        crc = crc32c(row + region.x.begin,
                     static_cast<std::size_t>(region.x.size()) * sizeof(T), crc);
      }
    }
    return crc;
  }

  void verify_retiring(const Tile& tile, int instance, int slot) {
    const integrity::RingSentinels::Entry e = sentinels_.take(instance, slot);
    if (e.valid) verify_entry(tile, instance, slot, e);
  }

  void verify_entry(const Tile& tile, int instance, int slot,
                    const integrity::RingSentinels::Entry& e) {
    ictx_.monitor->add_sentinel_checks(1);
    const std::uint32_t crc = plane_crc(tile, instance, slot);
    if (crc == e.crc) return;
    integrity::SdcEvent ev;
    ev.kind = integrity::SdcKind::kSentinel;
    ev.pass = ictx_.pass;
    ev.instance = instance;
    ev.slot = slot;
    ev.z = e.z;
    ev.tid = 0;
    ev.detail = "resident plane CRC mismatch (instance " + std::to_string(instance) +
                ", slot " + std::to_string(slot) + ", z " + std::to_string(e.z) + ")";
    ictx_.monitor->record(ev);
    telemetry::add_integrity_counts(0, 0, 1, 0);
  }

  // Plane-flip injection: one bit of the plane loaded this round, flipped
  // *after* its sentinel was recorded — the in-cache SDC the sentinels must
  // catch when the plane retires.
  void maybe_flip_plane(const Tile& tile, const std::vector<Step>& round, long m) {
    for (const Step& step : round) {
      if (step.kind != StepKind::kLoad) continue;
      if (!ictx_.plan->plane_flip_fires(ictx_.pass, m)) return;
      const Rect& region = tile.region(0);
      T* row = buffer_row(tile, 0, step.dst_slot, 0, region.y.begin);
      flip_value_bit(&row[region.x.begin], ictx_.plan->flip_bit);
      return;
    }
  }

  const F* src_;
  F* dst_;
  KernelOptions opts_;
  integrity::IntegrityContext ictx_;

 private:
  long pitch_;
  long buf_ny_;
  int ring_;
  integrity::RingSentinels sentinels_;
  AlignedBuffer<T> buffer_;
};

}  // namespace s35::core
