// Traffic replay: external-memory bytes per point update for every sweep
// scheme, measured by replaying the scheme's exact access pattern (same
// Tiling / TemporalSchedule / Engine35 machinery and 4D block list as the
// real kernels, with a tracing kernel policy) through the cache model.
//
// This is the machine-independent evidence for the paper's bandwidth
// arithmetic: with the Core i7 8 MB LLC configuration, the measured
// bytes/update of the 3.5D scheme comes out a factor dim_T/κ below the
// no-blocking sweep (Sections V-C/V-E), and the 2.5D-vs-3D ghost traffic
// ratios of Section V-A reproduce quantitatively.
#pragma once

#include <cstdint>
#include <vector>

#include "core/schedule.h"
#include "memsim/cache.h"
#include "memsim/hierarchy.h"
#include "memsim/tlb.h"

namespace s35::memsim {

// The sweep schemes the replay knows: every stencil::Variant, by the same
// name. lbm::Variant is a subset; trace_lbm also accepts kSpatial25D
// (dim_t = 1 passes) and replays kSpatial3D as kNaive, since LBM has no
// spatial reuse. memsim links no kernel library: it reads only the
// header-only D3Q19 velocity table of lbm/lattice.h.
enum class Scheme {
  kNaive,
  kSpatial3D,
  kSpatial25D,
  kTemporalOnly,
  kBlocked4D,
  kBlocked35D,
};

const char* to_string(Scheme s);

struct TraceConfig {
  long nx = 0, ny = 0, nz = 0;
  int steps = 1;                 // total time steps replayed
  std::size_t elem_bytes = 4;    // grid element size (per distribution for LBM)
  int radius = 1;
  bool cube_neighborhood = false;  // false: 7-pt cross rows; true: 27-pt cube rows

  long dim_x = 0, dim_y = 0, dim_z = 0;  // blocking dims (scheme-dependent)
  int dim_t = 1;
  // Schedule family for the temporal schemes (kTemporalOnly/kBlocked35D);
  // the diamond family reuses dim_z as the mountain width W (0 = minimal).
  core::ScheduleFamily family = core::ScheduleFamily::kPaper35D;

  bool streaming_stores = false;  // external stores bypass the cache
  CacheConfig cache;
  // When set, replay against this multi-level hierarchy instead of the
  // single-level `cache`; per-level stats land in TrafficReport::levels.
  const HierarchyConfig* hierarchy = nullptr;
};

struct TrafficReport {
  std::uint64_t external_read_bytes = 0;
  std::uint64_t external_write_bytes = 0;
  std::uint64_t updates = 0;  // nx*ny*nz*steps
  CacheStats cache;           // LLC (or the single level)
  std::vector<CacheStats> levels;  // per level when a hierarchy was used
  double bytes_per_update() const {
    if (updates == 0) return 0.0;
    return static_cast<double>(external_read_bytes + external_write_bytes) /
           static_cast<double>(updates);
  }
};

// Replays a grid-stencil sweep (7-point / 27-point shaped).
TrafficReport trace_stencil(Scheme scheme, const TraceConfig& cfg);

// Replays a D3Q19 LBM sweep (19 SoA distribution arrays + 1-byte flags).
TrafficReport trace_lbm(Scheme scheme, const TraceConfig& cfg);

// TLB miss-rate of a naive LBM sweep under the given page size — the
// Section III-A large-pages experiment. Returns misses per cell update.
double lbm_tlb_misses_per_update(const TraceConfig& cfg, const TlbConfig& tlb_cfg);

}  // namespace s35::memsim
