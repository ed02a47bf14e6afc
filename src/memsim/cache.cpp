#include "memsim/cache.h"

namespace s35::memsim {

namespace {
bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

Cache::Cache(const CacheConfig& config) : config_(config) {
  S35_CHECK(config.line_bytes > 0 &&
            is_pow2(static_cast<std::uint64_t>(config.line_bytes)));
  S35_CHECK(config.ways >= 1);
  const std::uint64_t lines = config.size_bytes / config.line_bytes;
  S35_CHECK(lines >= static_cast<std::uint64_t>(config.ways));
  num_sets_ = lines / config.ways;
  S35_CHECK_MSG(is_pow2(num_sets_), "cache size / (line * ways) must be a power of two");
  lines_.resize(num_sets_ * config.ways);
}

Cache::Line* Cache::find(std::uint64_t set, std::uint64_t tag) {
  Line* base = &lines_[set * config_.ways];
  for (int w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) return &base[w];
  }
  return nullptr;
}

Cache::Line* Cache::victim(std::uint64_t set) {
  Line* base = &lines_[set * config_.ways];
  Line* best = base;
  for (int w = 1; w < config_.ways; ++w) {
    if (!base[w].valid) return &base[w];
    if (base[w].lru < best->lru) best = &base[w];
  }
  return best;
}

Cache::LineAccess Cache::access_line(std::uint64_t line_addr, bool is_write) {
  LineAccess out;
  const std::uint64_t set = line_addr & (num_sets_ - 1);
  const std::uint64_t tag = line_addr / num_sets_;
  ++tick_;
  if (Line* hit = find(set, tag)) {
    hit->lru = tick_;
    hit->dirty = hit->dirty || is_write;
    if (is_write) {
      ++stats_.write_hits;
    } else {
      ++stats_.read_hits;
    }
    out.hit = true;
    return out;
  }
  if (is_write) {
    ++stats_.write_misses;
  } else {
    ++stats_.read_misses;
  }
  Line* v = victim(set);
  if (v->valid && v->dirty) {
    stats_.bytes_to_memory += static_cast<std::uint64_t>(config_.line_bytes);
    out.writeback = true;
    out.writeback_line = v->tag * num_sets_ + set;
  }
  stats_.bytes_from_memory += static_cast<std::uint64_t>(config_.line_bytes);
  v->valid = true;
  v->dirty = is_write;
  v->tag = tag;
  v->lru = tick_;
  return out;
}

Cache::LineAccess Cache::access_line_ex(std::uint64_t line_addr, bool is_write) {
  return access_line(line_addr, is_write);
}

void Cache::invalidate_line(std::uint64_t line_addr) {
  const std::uint64_t set = line_addr & (num_sets_ - 1);
  const std::uint64_t tag = line_addr / num_sets_;
  if (Line* hit = find(set, tag)) {
    hit->valid = false;
    hit->dirty = false;
  }
}

void Cache::read(std::uint64_t addr, std::uint64_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t lb = static_cast<std::uint64_t>(config_.line_bytes);
  for (std::uint64_t a = addr / lb; a <= (addr + bytes - 1) / lb; ++a) {
    access_line(a, /*is_write=*/false);
  }
}

void Cache::write(std::uint64_t addr, std::uint64_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t lb = static_cast<std::uint64_t>(config_.line_bytes);
  for (std::uint64_t a = addr / lb; a <= (addr + bytes - 1) / lb; ++a) {
    access_line(a, /*is_write=*/true);
  }
}

void Cache::stream_write(std::uint64_t addr, std::uint64_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t lb = static_cast<std::uint64_t>(config_.line_bytes);
  for (std::uint64_t a = addr / lb; a <= (addr + bytes - 1) / lb; ++a) {
    const std::uint64_t set = a & (num_sets_ - 1);
    const std::uint64_t tag = a / num_sets_;
    if (Line* hit = find(set, tag)) {
      hit->valid = false;  // dropped, not written back: the store overwrites it
      hit->dirty = false;
    }
    stats_.bytes_to_memory += lb;
  }
}

void Cache::flush() {
  for (Line& l : lines_) {
    if (l.valid && l.dirty) {
      stats_.bytes_to_memory += static_cast<std::uint64_t>(config_.line_bytes);
    }
    l = Line{};
  }
}

}  // namespace s35::memsim
