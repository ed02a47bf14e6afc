// Set-associative write-back LRU cache simulator.
//
// The paper's central claim — 3.5D blocking cuts external traffic by
// dim_T/κ and turns bandwidth-bound kernels compute-bound — is a statement
// about memory traffic, not wall-clock. This simulator replays the byte
// access pattern of every sweep variant against the paper's 8 MB LLC
// (or any configuration) and reports exact external read/write traffic,
// so the bandwidth-reduction factors can be verified on any host.
//
// Modeled behaviors: write-allocate + write-back (the Core i7 default,
// which is why a plain store costs a line fetch *and* an eviction,
// Section IV-A1), and streaming stores that bypass the hierarchy
// ("this extra data transfer can be eliminated using streaming stores").
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace s35::memsim {

struct CacheConfig {
  std::uint64_t size_bytes = 8ull << 20;  // Core i7 LLC
  int ways = 16;
  int line_bytes = 64;
};

struct CacheStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t bytes_from_memory = 0;  // line fills
  std::uint64_t bytes_to_memory = 0;    // dirty write-backs + streamed stores

  std::uint64_t total_external_bytes() const {
    return bytes_from_memory + bytes_to_memory;
  }
  double miss_rate() const {
    const double total = static_cast<double>(read_hits + read_misses + write_hits +
                                             write_misses);
    return total == 0.0 ? 0.0
                        : static_cast<double>(read_misses + write_misses) / total;
  }
};

class Cache {
 public:
  explicit Cache(const CacheConfig& config = {});

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }

  // Touches [addr, addr + bytes) as a read: every covered line is filled on
  // miss (with a dirty eviction if needed).
  void read(std::uint64_t addr, std::uint64_t bytes);

  // Touches the range as a write: write-allocate (miss fetches the line),
  // then the line is dirty.
  void write(std::uint64_t addr, std::uint64_t bytes);

  // Non-temporal store: bytes go straight to memory; any cached copy of the
  // line is invalidated (dropped without write-back, matching MOVNT
  // semantics for fully overwritten lines).
  void stream_write(std::uint64_t addr, std::uint64_t bytes);

  // Writes back every dirty line (end-of-run accounting) and empties the
  // cache; stats are kept.
  void flush();

  void reset_stats() { stats_ = CacheStats{}; }

  // Single-line access with full outcome reporting, for multi-level
  // composition (memsim/hierarchy.h): whether it hit, and whether a dirty
  // victim was written back (and its line address).
  struct LineAccess {
    bool hit = false;
    bool writeback = false;
    std::uint64_t writeback_line = 0;
  };
  LineAccess access_line_ex(std::uint64_t line_addr, bool is_write);

  // Drops a line without write-back (non-temporal store overwrite).
  void invalidate_line(std::uint64_t line_addr);

  // Empties the cache, invoking `writeback` for every dirty line (its line
  // address) so a composed hierarchy can cascade flushes downward. Dirty
  // bytes are counted in bytes_to_memory as with flush().
  template <typename Fn>
  void drain(Fn&& writeback) {
    for (std::uint64_t set = 0; set < num_sets_; ++set) {
      for (int w = 0; w < config_.ways; ++w) {
        Line& l = lines_[set * static_cast<std::uint64_t>(config_.ways) +
                         static_cast<std::uint64_t>(w)];
        if (l.valid && l.dirty) {
          stats_.bytes_to_memory += static_cast<std::uint64_t>(config_.line_bytes);
          writeback(l.tag * num_sets_ + set);
        }
        l = Line{};
      }
    }
  }

  int line_bytes() const { return config_.line_bytes; }

 private:
  struct Line {
    std::uint64_t tag = ~0ull;
    std::uint64_t lru = 0;
    bool valid = false;
    bool dirty = false;
  };

  Line* find(std::uint64_t set, std::uint64_t tag);
  Line* victim(std::uint64_t set);
  LineAccess access_line(std::uint64_t line_addr, bool is_write);

  CacheConfig config_;
  CacheStats stats_;
  std::uint64_t num_sets_;
  std::uint64_t tick_ = 0;
  std::vector<Line> lines_;  // num_sets x ways
};

}  // namespace s35::memsim
