#include "gpusim/simt.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace s35::gpusim {

int coalesced_transactions(int warp_size, int elem_bytes, int stride_bytes,
                           int offset_bytes, int transaction_bytes) {
  S35_CHECK(warp_size >= 1 && elem_bytes >= 1 && transaction_bytes >= 1);
  // Count distinct transaction segments touched by the warp's lanes.
  long first = std::numeric_limits<long>::max();
  long last = std::numeric_limits<long>::min();
  int count = 0;
  long prev_seg = std::numeric_limits<long>::min();
  for (int lane = 0; lane < warp_size; ++lane) {
    const long lo = offset_bytes + static_cast<long>(lane) * stride_bytes;
    const long hi = lo + elem_bytes - 1;
    for (long seg = lo / transaction_bytes; seg <= hi / transaction_bytes; ++seg) {
      if (seg != prev_seg) {
        // Strided patterns are monotone, so adjacent-duplicate suppression
        // counts distinct segments.
        if (seg < first || seg > last) ++count;
        first = std::min(first, seg);
        last = std::max(last, seg);
        prev_seg = seg;
      }
    }
  }
  return count;
}

namespace {

struct WarpState {
  // Position in the (prolog, body x iterations) instruction stream.
  std::size_t pc = 0;
  int iter = 0;      // body iteration index
  bool in_prolog = true;
  double ready = 0.0;
  bool done = false;
  bool at_barrier = false;
  int block = 0;     // owning resident block
};

}  // namespace

SimResult simulate(const SimtConfig& config, const BlockProgram& program) {
  S35_CHECK(program.warps_per_block >= 1 && program.iterations >= 1);

  SimResult result;

  // Occupancy: how many blocks fit an SM (GT200: at most 8 blocks / 32
  // warps per SM, limited by shared memory and registers).
  int concurrent = 8;
  if (program.shared_bytes > 0) {
    concurrent = std::min<int>(
        concurrent, static_cast<int>(config.shared_bytes / program.shared_bytes));
  }
  if (program.regs_bytes_per_thread > 0) {
    const std::size_t block_regs = program.regs_bytes_per_thread *
                                   static_cast<std::size_t>(program.warps_per_block) *
                                   config.warp_size;
    concurrent = std::min<int>(concurrent,
                               static_cast<int>(config.regfile_bytes / block_regs));
  }
  concurrent = std::max(1, std::min(concurrent, 32 / program.warps_per_block));
  result.concurrent_blocks = concurrent;

  const int total_warps = concurrent * program.warps_per_block;
  std::vector<WarpState> warps(static_cast<std::size_t>(total_warps));
  for (int w = 0; w < total_warps; ++w) {
    warps[static_cast<std::size_t>(w)].block = w / program.warps_per_block;
    if (program.prolog.empty()) warps[static_cast<std::size_t>(w)].in_prolog = false;
  }

  const double issue_cycles =
      static_cast<double>(config.warp_size) / config.sp_lanes;  // 4 on GT200
  const double bytes_per_cycle = config.bytes_per_sm_cycle();

  double pipe_free = 0.0;
  double mem_free = 0.0;
  double total_bytes = 0.0;

  std::vector<int> barrier_count(static_cast<std::size_t>(concurrent), 0);
  std::vector<double> barrier_time(static_cast<std::size_t>(concurrent), 0.0);

  const auto inst_at = [&](const WarpState& w) -> const WarpInst& {
    return w.in_prolog ? program.prolog[w.pc] : program.body[w.pc];
  };
  const auto advance = [&](WarpState& w) {
    ++w.pc;
    if (w.in_prolog) {
      if (w.pc >= program.prolog.size()) {
        w.in_prolog = false;
        w.pc = 0;
        if (program.body.empty()) w.done = true;
      }
      return;
    }
    if (w.pc >= program.body.size()) {
      w.pc = 0;
      if (++w.iter >= program.iterations) w.done = true;
    }
  };

  int live = total_warps;
  double finish = 0.0;
  // Round-robin pointer for fairness among equally-ready warps.
  int rr = 0;
  while (live > 0) {
    // Pick the ready warp with the earliest ready time (round-robin among
    // ties), skipping warps parked at a barrier.
    int pick = -1;
    double best = std::numeric_limits<double>::max();
    for (int k = 0; k < total_warps; ++k) {
      const int w = (rr + k) % total_warps;
      const WarpState& ws = warps[static_cast<std::size_t>(w)];
      if (ws.done || ws.at_barrier) continue;
      if (ws.ready < best) {
        best = ws.ready;
        pick = w;
      }
    }
    S35_CHECK_MSG(pick >= 0, "deadlock: all live warps parked at a barrier");
    rr = pick + 1;

    WarpState& w = warps[static_cast<std::size_t>(pick)];
    const WarpInst inst = inst_at(w);
    const double start = std::max(w.ready, pipe_free);

    switch (inst.op) {
      case Op::kFlop:
        pipe_free = start + issue_cycles * inst.repeat;
        w.ready = pipe_free;
        break;
      case Op::kSharedAccess:
        pipe_free = start + issue_cycles * inst.repeat;
        w.ready = pipe_free + config.smem_latency_cycles;
        break;
      case Op::kGlobalLoad: {
        pipe_free = start + issue_cycles;
        const double bytes = static_cast<double>(inst.transactions) *
                             config.transaction_bytes;
        mem_free = std::max(mem_free, start) + bytes / bytes_per_cycle;
        total_bytes += bytes;
        w.ready = mem_free + config.mem_latency_cycles;
        break;
      }
      case Op::kGlobalStore: {
        pipe_free = start + issue_cycles;
        const double bytes = static_cast<double>(inst.transactions) *
                             config.transaction_bytes;
        mem_free = std::max(mem_free, start) + bytes / bytes_per_cycle;
        total_bytes += bytes;
        w.ready = pipe_free;  // stores retire through the write queue
        break;
      }
      case Op::kSync: {
        const int b = w.block;
        w.at_barrier = true;
        auto& count = barrier_count[static_cast<std::size_t>(b)];
        auto& when = barrier_time[static_cast<std::size_t>(b)];
        when = std::max(when, start);
        if (++count == program.warps_per_block) {
          for (auto& other : warps) {
            if (other.block == b && other.at_barrier) {
              other.at_barrier = false;
              other.ready = when;
            }
          }
          count = 0;
          when = 0.0;
        }
        break;
      }
    }

    advance(w);
    if (w.done) {
      --live;
      finish = std::max(finish, w.ready);
    }
  }

  result.cycles_per_block = finish / concurrent;
  const double updates = static_cast<double>(concurrent) * program.iterations *
                         program.updates_per_iteration;
  const double seconds = finish / (config.clock_ghz * 1e9);
  const double per_sm = updates / seconds;
  result.updates_per_second = per_sm * config.num_sms;
  result.mups = result.updates_per_second / 1e6;
  result.achieved_gbps = total_bytes / seconds * config.num_sms / 1e9;
  result.bandwidth_bound = result.achieved_gbps > 0.8 * config.mem_bw_gbps;
  return result;
}

}  // namespace s35::gpusim
