#include "memsim/traffic.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/blocks_4d.h"
#include "core/engine.h"
#include "core/schedule.h"
#include "core/tiling.h"
#include "grid/grid3.h"
#include "lbm/lattice.h"
#include "telemetry/telemetry.h"

namespace s35::memsim {

namespace {

// Uniform front end over the single-level Cache and the multi-level
// Hierarchy so every trace kernel can replay against either.
class Mem {
 public:
  virtual ~Mem() = default;
  virtual void read(std::uint64_t addr, std::uint64_t bytes) = 0;
  virtual void write(std::uint64_t addr, std::uint64_t bytes) = 0;
  virtual void stream_write(std::uint64_t addr, std::uint64_t bytes) = 0;
  virtual void finish(TrafficReport& rep) = 0;
};

class CacheMem final : public Mem {
 public:
  explicit CacheMem(const CacheConfig& cfg) : cache_(cfg) {}
  void read(std::uint64_t a, std::uint64_t b) override { cache_.read(a, b); }
  void write(std::uint64_t a, std::uint64_t b) override { cache_.write(a, b); }
  void stream_write(std::uint64_t a, std::uint64_t b) override {
    cache_.stream_write(a, b);
  }
  void finish(TrafficReport& rep) override {
    cache_.flush();
    rep.cache = cache_.stats();
    rep.external_read_bytes = rep.cache.bytes_from_memory;
    rep.external_write_bytes = rep.cache.bytes_to_memory;
  }

 private:
  Cache cache_;
};

class HierarchyMem final : public Mem {
 public:
  explicit HierarchyMem(const HierarchyConfig& cfg) : h_(cfg) {}
  void read(std::uint64_t a, std::uint64_t b) override { h_.read(a, b); }
  void write(std::uint64_t a, std::uint64_t b) override { h_.write(a, b); }
  void stream_write(std::uint64_t a, std::uint64_t b) override { h_.stream_write(a, b); }
  void finish(TrafficReport& rep) override {
    h_.flush();
    for (int k = 0; k < h_.num_levels(); ++k) rep.levels.push_back(h_.level_stats(k));
    rep.cache = rep.levels.back();
    rep.external_read_bytes = rep.cache.bytes_from_memory;
    rep.external_write_bytes = rep.cache.bytes_to_memory;
  }

 private:
  Hierarchy h_;
};

std::unique_ptr<Mem> make_mem(const TraceConfig& cfg) {
  if (cfg.hierarchy != nullptr) return std::make_unique<HierarchyMem>(*cfg.hierarchy);
  return std::make_unique<CacheMem>(cfg.cache);
}

// Simulated address space: arrays laid out back to back at 1 MB alignment,
// with the same padded-pitch row layout the real grids use.
class Layout {
 public:
  Layout(long nx, long ny, long nz, std::size_t elem_bytes)
      : nx_(nx), ny_(ny), nz_(nz), elem_(elem_bytes),
        pitch_(grid::padded_pitch(nx, elem_bytes)) {}

  std::uint64_t reserve_grid() {
    return reserve(static_cast<std::uint64_t>(pitch_) * ny_ * nz_ * elem_);
  }

  std::uint64_t reserve(std::uint64_t bytes) {
    // Skew each region by an odd number of cache lines. Perfectly aligned
    // bases would map the same (y, z) row of every SoA array to the same
    // cache set — pathological aliasing a physically-indexed LLC does not
    // exhibit (page placement decorrelates the index bits above the page).
    const std::uint64_t base = next_ + static_cast<std::uint64_t>(count_++) * (149 * 64);
    next_ = base + align(bytes);
    return base;
  }

  // Address of element (x, y, z) in a grid at `base`.
  std::uint64_t at(std::uint64_t base, long x, long y, long z) const {
    return base + (static_cast<std::uint64_t>(z * ny_ + y) * pitch_ + x) * elem_;
  }

  std::size_t elem() const { return elem_; }
  long pitch() const { return pitch_; }
  long nx() const { return nx_; }
  long ny() const { return ny_; }
  long nz() const { return nz_; }

 private:
  static std::uint64_t align(std::uint64_t v) {
    return (v + ((1u << 20) - 1)) & ~std::uint64_t((1u << 20) - 1);
  }

  long nx_, ny_, nz_;
  std::size_t elem_;
  long pitch_;
  std::uint64_t next_ = 0;
  int count_ = 0;
};

// What a sweep touches per cell row, in the order its kernels touch it:
// the optional flag row, then for each array a the rows reads[a] of the
// previous time instance followed by the write of a's output row. A read
// covers the written x range [x0, x1) shifted by dx and widened by `widen`
// on both sides.
struct RowRead {
  int dz, dy, dx, widen;
};

struct FieldTrace {
  std::vector<std::vector<RowRead>> reads;  // one list per array
  bool flags = false;      // a 1-byte cell-flag row is read before the arrays
  bool clamp_x = false;    // 3.5D ring reads are clipped to the domain in x
  bool streaming = false;  // external output rows use non-temporal stores
  long shell = 0;          // frozen boundary cells the naive/3D walk skips
};

// One array; its (dz, dy) neighbour rows widened by R (the 7-point cross
// skips the zy-diagonal rows, the 27-point cube reads them all).
FieldTrace stencil_field(const TraceConfig& cfg) {
  FieldTrace f;
  f.reads.resize(1);
  for (int dz = -cfg.radius; dz <= cfg.radius; ++dz)
    for (int dy = -cfg.radius; dy <= cfg.radius; ++dy)
      if (cfg.cube_neighborhood || dz == 0 || dy == 0)
        f.reads[0].push_back({dz, dy, 0, cfg.radius});
  f.clamp_x = true;
  f.streaming = cfg.streaming_stores;
  f.shell = cfg.radius;
  return f;
}

// 19 SoA arrays (pull scheme: distribution i gathers from x - c_i) plus the
// cell flags.
FieldTrace lbm_field() {
  FieldTrace f;
  for (int i = 0; i < lbm::kQ; ++i)
    f.reads.push_back({{-lbm::kCz[i], -lbm::kCy[i], -lbm::kCx[i], 0}});
  f.flags = true;
  return f;
}

// Replays one sweep of a field: owns the simulated memory, the address
// layout and the current Jacobi source/destination base of every array.
class Replay {
 public:
  Replay(const TraceConfig& cfg, FieldTrace field)
      : cfg_(cfg), field_(std::move(field)),
        lay_(cfg.nx, cfg.ny, cfg.nz, cfg.elem_bytes) {
    for (int a = 0; a < arrays(); ++a) src_.push_back(lay_.reserve_grid());
    for (int a = 0; a < arrays(); ++a) dst_.push_back(lay_.reserve_grid());
    if (field_.flags)
      flags_ = lay_.reserve(static_cast<std::uint64_t>(grid::padded_pitch(cfg.nx, 1)) *
                            cfg.ny * cfg.nz);
    mem_ = make_mem(cfg);
  }

  void run(Scheme scheme) {
    switch (scheme) {
      case Scheme::kNaive:
        for (int s = 0; s < cfg_.steps; ++s) sweep_step(cfg_.nx, cfg_.ny, cfg_.nz);
        return;
      case Scheme::kSpatial3D: {
        const long bx = cfg_.dim_x > 0 ? cfg_.dim_x : cfg_.nx;
        const long by = cfg_.dim_y > 0 ? cfg_.dim_y : bx;
        const long bz = cfg_.dim_z > 0 ? cfg_.dim_z : bx;
        for (int s = 0; s < cfg_.steps; ++s) sweep_step(bx, by, bz);
        return;
      }
      case Scheme::kBlocked4D:
        run_4d();
        return;
      case Scheme::kSpatial25D:
      case Scheme::kTemporalOnly:
      case Scheme::kBlocked35D:
        run_35d(scheme);
        return;
    }
  }

  TrafficReport finish() {
    TrafficReport rep;
    mem_->finish(rep);
    rep.updates = static_cast<std::uint64_t>(cfg_.nx) * cfg_.ny * cfg_.nz *
                  static_cast<std::uint64_t>(cfg_.steps);
    // Mirror the replayed external traffic into the telemetry registry so
    // simulated and wall-clock runs report through one channel.
    telemetry::add_external_bytes(0, rep.external_read_bytes, rep.external_write_bytes);
    return rep;
  }

 private:
  class Slab;

  int arrays() const { return static_cast<int>(field_.reads.size()); }
  std::uint64_t bytes(long elems) const {
    return static_cast<std::uint64_t>(elems) * lay_.elem();
  }

  void read_flags(long x0, long x1, long y, long z) {
    mem_->read(flags_ + static_cast<std::uint64_t>((z * lay_.ny() + y) *
                                                   grid::padded_pitch(lay_.nx(), 1)) +
                   static_cast<std::uint64_t>(x0),
               static_cast<std::uint64_t>(x1 - x0));
  }

  void write_external(int a, long x0, long y, long z, std::uint64_t n) {
    if (field_.streaming) {
      mem_->stream_write(lay_.at(dst_[a], x0, y, z), n);
    } else {
      mem_->write(lay_.at(dst_[a], x0, y, z), n);
    }
  }

  // One Jacobi step walking the domain minus its frozen shell in bx x by x
  // bz blocks (one block: the naive sweep). Naive rows stream from the
  // source grid directly, so a read's x shift stays inside the row it
  // already covers and is not replayed; an array whose source row lies
  // outside the domain (LBM edge rows) moves nothing.
  void sweep_step(long bx, long by, long bz) {
    const long s = field_.shell, nx = cfg_.nx, ny = cfg_.ny, nz = cfg_.nz;
    for (long z0 = s; z0 < nz - s; z0 += bz)
      for (long y0 = s; y0 < ny - s; y0 += by)
        for (long x0 = s; x0 < nx - s; x0 += bx) {
          const long x1 = std::min(x0 + bx, nx - s);
          for (long z = z0; z < std::min(z0 + bz, nz - s); ++z)
            for (long y = y0; y < std::min(y0 + by, ny - s); ++y) {
              if (field_.flags) read_flags(x0, x1, y, z);
              for (int a = 0; a < arrays(); ++a) {
                const auto& reads = field_.reads[static_cast<std::size_t>(a)];
                const auto outside = [&](const RowRead& r) {
                  return y + r.dy < 0 || y + r.dy >= ny || z + r.dz < 0 || z + r.dz >= nz;
                };
                if (std::any_of(reads.begin(), reads.end(), outside)) continue;
                for (const RowRead& r : reads)
                  mem_->read(lay_.at(src_[a], x0 - r.widen, y + r.dy, z + r.dz),
                             bytes(x1 - x0 + 2 * r.widen));
                write_external(a, x0, y, z, bytes(x1 - x0));
              }
            }
        }
    std::swap(src_, dst_);
  }

  // 4D blocks (core/blocks_4d.h) with a ping-pong buffer pair, so buffer
  // residency competes for cache capacity. Buffer reads are not clipped to
  // the domain, and block steps read no flag rows.
  void run_4d() {
    const core::Dims4D d = core::dims_4d(cfg_);
    const int R = cfg_.radius;
    const long bpitch = grid::padded_pitch(d.x, lay_.elem());
    const std::uint64_t half =
        static_cast<std::uint64_t>(bpitch) * d.y * d.z * arrays() * lay_.elem();
    std::uint64_t buf_a = lay_.reserve(half);
    std::uint64_t buf_b = lay_.reserve(half);
    core::for_each_pass(cfg_.steps, cfg_.dim_t, [&](int dt) {
      for (const core::Block4D& blk :
           core::blocks_4d(cfg_.nx, cfg_.ny, cfg_.nz, d, R, dt)) {
        const core::Extent lx = blk.x.load, ly = blk.y.load, lz = blk.z.load;
        const auto brow = [&](std::uint64_t base, int a, long y, long z, long x) {
          const std::uint64_t row = (static_cast<std::uint64_t>(a) * d.z +
                                     static_cast<std::uint64_t>(z - lz.begin)) *
                                        d.y +
                                    static_cast<std::uint64_t>(y - ly.begin);
          return base +
                 (row * bpitch + static_cast<std::uint64_t>(x - lx.begin)) * lay_.elem();
        };
        for (int a = 0; a < arrays(); ++a)
          for (long z = lz.begin; z < lz.end; ++z)
            for (long y = ly.begin; y < ly.end; ++y) {
              mem_->read(lay_.at(src_[a], lx.begin, y, z), bytes(lx.size()));
              mem_->write(brow(buf_a, a, y, z, lx.begin), bytes(lx.size()));
            }
        for (int t = 1; t <= dt; ++t) {
          const core::Extent vx = core::shrink_extent(lx, cfg_.nx, R, t);
          const core::Extent vy = core::shrink_extent(ly, cfg_.ny, R, t);
          const core::Extent vz = core::shrink_extent(lz, cfg_.nz, R, t);
          for (long z = vz.begin; z < vz.end; ++z)
            for (long y = vy.begin; y < vy.end; ++y)
              for (int a = 0; a < arrays(); ++a) {
                for (const RowRead& r : field_.reads[static_cast<std::size_t>(a)])
                  mem_->read(
                      brow(buf_a, a, y + r.dy, z + r.dz, vx.begin + r.dx - r.widen),
                      bytes(vx.size() + 2 * r.widen));
                if (t == dt) {
                  write_external(a, vx.begin, y, z, bytes(vx.size()));
                } else {
                  mem_->write(brow(buf_b, a, y, z, vx.begin), bytes(vx.size()));
                }
              }
          std::swap(buf_a, buf_b);
        }
      }
      std::swap(src_, dst_);
    });
  }

  // The Engine35 schemes through the tracing kernel policy Slab below.
  void run_35d(Scheme scheme);

  const TraceConfig& cfg_;
  FieldTrace field_;
  Layout lay_;
  std::vector<std::uint64_t> src_, dst_;
  std::uint64_t flags_ = 0;
  std::unique_ptr<Mem> mem_;
};

// Tracing Engine35 kernel policy mirroring the slab kernels' accesses
// (StencilSlabKernel, LbmSlabKernel): one ring of dim_t instances x `ring`
// plane slots per array.
class Replay::Slab {
 public:
  Slab(Replay& r, long dim_x, long dim_y, int dim_t, int ring)
      : r_(r), mem_(*r.mem_), lay_(r.lay_), reads_(r.field_.reads), src_(r.src_.data()),
        arrays_(r.arrays()), radius_(r.cfg_.radius),
        x_lo_(r.field_.clamp_x ? 0 : std::numeric_limits<long>::min()),
        x_hi_(r.field_.clamp_x ? lay_.nx() : std::numeric_limits<long>::max()),
        buf_pitch_(grid::padded_pitch(dim_x, lay_.elem())), buf_ny_(dim_y), ring_(ring) {
    buf_base_ = r.lay_.reserve(static_cast<std::uint64_t>(buf_pitch_) * dim_y * ring *
                               dim_t * arrays_ * lay_.elem());
  }

  void execute(const core::Tile& tile, const core::Step& step, long y, long x0, long x1) {
    const std::uint64_t n = static_cast<std::uint64_t>(x1 - x0) * lay_.elem();
    switch (step.kind) {
      case core::StepKind::kLoad:
        for (int a = 0; a < arrays_; ++a) {
          mem_.read(lay_.at(src_[a], x0, y, step.z), n);
          mem_.write(buf_addr(tile, 0, step.dst_slot, a, y, x0), n);
        }
        return;
      case core::StepKind::kCopy:
        for (int a = 0; a < arrays_; ++a) {
          mem_.read(buf_addr(tile, step.t - 1, step.src_slots[0], a, y, x0), n);
          store(tile, step, a, y, x0, n);
        }
        return;
      case core::StepKind::kCompute:
        if (r_.field_.flags) r_.read_flags(x0, x1, y, step.z);
        for (int a = 0; a < arrays_; ++a) {
          for (const RowRead& rd : reads_[static_cast<std::size_t>(a)]) {
            const long ra = std::max(x0 + rd.dx - rd.widen, x_lo_);
            const long rb = std::min(x1 + rd.dx + rd.widen, x_hi_);
            const int slot = step.src_slots[static_cast<std::size_t>(rd.dz + radius_)];
            mem_.read(buf_addr(tile, step.t - 1, slot, a, y + rd.dy, ra),
                      static_cast<std::uint64_t>(rb - ra) * lay_.elem());
          }
          store(tile, step, a, y, x0, n);
        }
        return;
    }
  }

 private:
  void store(const core::Tile& tile, const core::Step& step, int a, long y, long x0,
             std::uint64_t n) {
    if (step.to_external) {
      r_.write_external(a, x0, y, step.z, n);
    } else {
      mem_.write(buf_addr(tile, step.t, step.dst_slot, a, y, x0), n);
    }
  }

  std::uint64_t buf_addr(const core::Tile& tile, int instance, int slot, int a, long y,
                         long x) const {
    const std::uint64_t plane =
        ((static_cast<std::uint64_t>(instance) * ring_ +
          static_cast<std::uint64_t>(slot)) *
             static_cast<std::uint64_t>(arrays_) +
         static_cast<std::uint64_t>(a)) *
        static_cast<std::uint64_t>(buf_pitch_) * buf_ny_;
    const std::uint64_t row =
        static_cast<std::uint64_t>(y - tile.load.y.begin) * buf_pitch_ +
        static_cast<std::uint64_t>(x - tile.load.x.begin);
    return buf_base_ + (plane + row) * lay_.elem();
  }

  // The hot-path state is copied out of the Replay once per pass.
  Replay& r_;
  Mem& mem_;
  const Layout& lay_;
  const std::vector<std::vector<RowRead>>& reads_;
  const std::uint64_t* src_;
  int arrays_, radius_;
  long x_lo_, x_hi_;  // the x range ring reads are clipped to
  std::uint64_t buf_base_;
  long buf_pitch_, buf_ny_;
  int ring_;
};

// The same Tiling / TemporalSchedule / engine as the real sweeps.
void Replay::run_35d(Scheme scheme) {
  long dim_x = cfg_.dim_x > 0 ? cfg_.dim_x : cfg_.nx;
  long dim_y = cfg_.dim_y > 0 ? cfg_.dim_y : dim_x;
  int pass_t = cfg_.dim_t;
  if (scheme == Scheme::kSpatial25D) pass_t = 1;
  if (scheme == Scheme::kTemporalOnly) {
    dim_x = cfg_.nx;
    dim_y = cfg_.ny;
  }
  core::Engine35 engine(1);
  core::for_each_pass(cfg_.steps, pass_t, [&](int dt) {
    const core::Tiling tiling(cfg_.nx, cfg_.ny, dim_x, dim_y, cfg_.radius, dt);
    const core::TemporalSchedule sched(cfg_.nz, cfg_.radius, dt, false, cfg_.family,
                                       cfg_.dim_z);
    Slab kernel(*this, dim_x, dim_y, dt, sched.planes_per_instance());
    engine.run_pass(kernel, tiling, sched);
    std::swap(src_, dst_);
  });
}

TrafficReport replay(Scheme scheme, const TraceConfig& cfg, FieldTrace field) {
  S35_CHECK(cfg.nx > 0 && cfg.ny > 0 && cfg.nz > 0 && cfg.steps >= 1);
  Replay r(cfg, std::move(field));
  r.run(scheme);
  return r.finish();
}

}  // namespace

const char* to_string(Scheme s) {
  switch (s) {
    case Scheme::kNaive:
      return "naive";
    case Scheme::kSpatial3D:
      return "3d-spatial";
    case Scheme::kSpatial25D:
      return "2.5d-spatial";
    case Scheme::kTemporalOnly:
      return "temporal-only";
    case Scheme::kBlocked4D:
      return "4d";
    case Scheme::kBlocked35D:
      return "3.5d";
  }
  return "?";
}

TrafficReport trace_stencil(Scheme scheme, const TraceConfig& cfg) {
  return replay(scheme, cfg, stencil_field(cfg));
}

TrafficReport trace_lbm(Scheme scheme, const TraceConfig& cfg) {
  // LBM has no spatial reuse: 3D blocking replays as the naive sweep.
  return replay(scheme == Scheme::kSpatial3D ? Scheme::kNaive : scheme, cfg, lbm_field());
}

double lbm_tlb_misses_per_update(const TraceConfig& cfg, const TlbConfig& tlb_cfg) {
  Layout lay(cfg.nx, cfg.ny, cfg.nz, cfg.elem_bytes);
  std::uint64_t src[lbm::kQ], dst[lbm::kQ];
  for (int i = 0; i < lbm::kQ; ++i) src[i] = lay.reserve_grid();
  for (int i = 0; i < lbm::kQ; ++i) dst[i] = lay.reserve_grid();
  Tlb tlb(tlb_cfg);
  const std::uint64_t n = static_cast<std::uint64_t>(cfg.nx) * cfg.elem_bytes;
  for (int s = 0; s < cfg.steps; ++s) {
    for (long z = 0; z < cfg.nz; ++z)
      for (long y = 0; y < cfg.ny; ++y)
        for (int i = 0; i < lbm::kQ; ++i) {
          const long yy = y - lbm::kCy[i], zz = z - lbm::kCz[i];
          if (yy >= 0 && yy < cfg.ny && zz >= 0 && zz < cfg.nz) {
            tlb.access(lay.at(src[i], 0, yy, zz), n);
          }
          tlb.access(lay.at(dst[i], 0, y, z), n);
        }
    std::swap_ranges(src, src + lbm::kQ, dst);
  }
  const double updates = static_cast<double>(cfg.nx) * cfg.ny * cfg.nz * cfg.steps;
  return static_cast<double>(tlb.stats().misses) / updates;
}

}  // namespace s35::memsim
