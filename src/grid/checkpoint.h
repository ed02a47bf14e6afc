// Durable binary checkpoint I/O for grids and lattices (format v2).
//
// Long stencil/LBM runs (the paper's "hundreds to thousands" of time
// steps) need restartability, and the distributed drivers additionally use
// checkpoints as the recovery source after rank failure — so the format is
// hardened end to end:
//
//   * CRC32C over the header and the payload: bit rot, torn writes and
//     truncation are detected with distinct errors before any data is
//     trusted.
//   * Durable writes: serialize to `path + ".tmp"`, fsync, then atomically
//     rename over `path` — a crash mid-checkpoint never clobbers the last
//     good file, and a checkpoint that exists is complete.
//   * Header sanity validation (dimension bounds, overflow-checked payload
//     size) before anything is read, so a hostile or corrupted header
//     cannot drive allocations or partial loads.
//   * A caller-owned 64-bit user tag in the header (the drivers store the
//     completed-step count there for resume).
//   * Backward-compatible load of v1 files ("S35GRID"/"S35LATT", no CRC).
//
// All file operations go through fault::IoBackend, so tests inject write
// failures and read corruption without touching filesystem semantics.
// Format: little-endian, host-order — intended for restart on the same
// machine class, not archival exchange. On load failure the target's
// contents are unspecified; callers must not use them.
#pragma once

#include <cstdio>
#include <cstring>
#include <string>

#include "common/crc32c.h"
#include "fault/io_backend.h"
#include "fault/status.h"
#include "grid/grid3.h"

namespace s35::grid {

namespace detail {

inline constexpr char kMagicV2[8] = {'S', '3', '5', 'C', 'K', 'P', '2', '\0'};
inline constexpr char kMagicGridV1[8] = {'S', '3', '5', 'G', 'R', 'I', 'D', '\0'};
inline constexpr char kMagicLattV1[8] = {'S', '3', '5', 'L', 'A', 'T', 'T', '\0'};

enum Kind : std::uint32_t { kKindGrid = 0, kKindLattice = 1 };

// Legacy v1 on-disk header (no integrity protection) — still readable.
struct CheckpointHeader {
  char magic[8];  // "S35GRID\0" or "S35LATT\0"
  std::uint32_t elem_bytes;
  std::uint32_t arrays;  // 1 for grids, kQ for lattices
  std::int64_t nx, ny, nz;
};
static_assert(sizeof(CheckpointHeader) == 40);

// Format v2: integrity-protected, self-describing.
struct CheckpointHeaderV2 {
  char magic[8];  // "S35CKP2\0"
  std::uint32_t version;
  std::uint32_t kind;  // Kind
  std::uint32_t elem_bytes;
  std::uint32_t arrays;
  std::int64_t nx, ny, nz;
  std::uint64_t payload_bytes;  // arrays * nx * ny * nz * elem_bytes
  std::uint64_t user_tag;       // caller metadata (e.g. completed steps)
  std::uint32_t payload_crc;    // CRC32C of the payload in file order
  std::uint32_t header_crc;     // CRC32C of this struct with header_crc = 0
};
static_assert(sizeof(CheckpointHeaderV2) == 72);

// RAII stdio handle routed through an IoBackend. Non-copyable (copies
// would double-fclose); write paths must call close() and check it — a
// destructor close is best-effort and drops buffered-flush errors.
class File {
 public:
  File(fault::IoBackend& io, const std::string& path, const char* mode)
      : io_(io), f_(io.open(path, mode)) {}
  ~File() {
    if (f_ != nullptr) std::fclose(f_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  bool ok() const { return f_ != nullptr; }
  bool write(const void* p, std::size_t n) { return io_.write(f_, p, n); }
  bool read(void* p, std::size_t n) { return io_.read(f_, p, n); }
  bool sync() { return io_.flush_and_sync(f_); }

  // Total file size in bytes (-1 when it cannot be determined); preserves
  // the current read position. Filesystem metadata, so it bypasses the
  // injectable IoBackend read path on purpose.
  std::int64_t size() {
    if (f_ == nullptr) return -1;
    const long pos = std::ftell(f_);
    if (pos < 0 || std::fseek(f_, 0, SEEK_END) != 0) return -1;
    const long end = std::ftell(f_);
    if (std::fseek(f_, pos, SEEK_SET) != 0 || end < 0) return -1;
    return end;
  }
  bool close() {
    if (f_ == nullptr) return true;
    const bool flushed = std::fclose(f_) == 0;
    f_ = nullptr;
    return flushed;
  }

 private:
  fault::IoBackend& io_;
  std::FILE* f_ = nullptr;
};

// Overflow-checked arrays*nx*ny*nz*elem_bytes with basic sanity bounds.
inline bool checked_payload_bytes(std::int64_t nx, std::int64_t ny, std::int64_t nz,
                                  std::uint32_t elem_bytes, std::uint32_t arrays,
                                  std::uint64_t* out) {
  constexpr std::int64_t kDimMax = 1ll << 40;
  if (nx <= 0 || ny <= 0 || nz <= 0 || nx >= kDimMax || ny >= kDimMax || nz >= kDimMax)
    return false;
  if (elem_bytes < 1 || elem_bytes > 256 || arrays < 1 || arrays > 1024) return false;
  constexpr std::uint64_t kMax = 1ull << 62;
  std::uint64_t v = arrays;
  for (const std::uint64_t factor :
       {static_cast<std::uint64_t>(nx), static_cast<std::uint64_t>(ny),
        static_cast<std::uint64_t>(nz), static_cast<std::uint64_t>(elem_bytes)}) {
    if (factor > kMax / v) return false;
    v *= factor;
  }
  *out = v;
  return true;
}

inline fault::Status validate_v2(const CheckpointHeaderV2& h) {
  CheckpointHeaderV2 copy = h;
  copy.header_crc = 0;
  if (crc32c(&copy, sizeof(copy)) != h.header_crc)
    return {fault::ErrorCode::kCorrupted, "header CRC mismatch"};
  if (h.version != 2)
    return {fault::ErrorCode::kBadHeader,
            "unsupported version " + std::to_string(h.version)};
  if (h.kind != kKindGrid && h.kind != kKindLattice)
    return {fault::ErrorCode::kBadHeader, "unknown kind"};
  std::uint64_t payload = 0;
  if (!checked_payload_bytes(h.nx, h.ny, h.nz, h.elem_bytes, h.arrays, &payload))
    return {fault::ErrorCode::kBadHeader, "dimensions fail sanity/overflow checks"};
  if (payload != h.payload_bytes)
    return {fault::ErrorCode::kBadHeader, "payload size inconsistent with dimensions"};
  return {};
}

// Streams header + rows durably: temp file, fsync, atomic rename. row(a, z,
// y) yields the row of array `a` at (z, y); rows carry row_bytes bytes.
template <typename RowSrc>
fault::Status save_v2_rows(fault::IoBackend& io, const std::string& path, Kind kind,
                           std::uint32_t elem_bytes, std::uint32_t arrays,
                           std::int64_t nx, std::int64_t ny, std::int64_t nz,
                           std::size_t row_bytes, std::uint64_t user_tag,
                           RowSrc&& row) {
  CheckpointHeaderV2 h{};
  std::memcpy(h.magic, kMagicV2, 8);
  h.version = 2;
  h.kind = kind;
  h.elem_bytes = elem_bytes;
  h.arrays = arrays;
  h.nx = nx;
  h.ny = ny;
  h.nz = nz;
  h.user_tag = user_tag;
  S35_CHECK(checked_payload_bytes(nx, ny, nz, elem_bytes, arrays, &h.payload_bytes));
  std::uint32_t crc = 0;
  for (std::uint32_t a = 0; a < arrays; ++a)
    for (std::int64_t z = 0; z < nz; ++z)
      for (std::int64_t y = 0; y < ny; ++y) crc = crc32c(row(a, z, y), row_bytes, crc);
  h.payload_crc = crc;
  h.header_crc = crc32c(&h, sizeof(h));

  const std::string tmp = path + ".tmp";
  File f(io, tmp, "wb");
  if (!f.ok()) return {fault::ErrorCode::kIoError, "cannot open " + tmp};
  bool ok = f.write(&h, sizeof(h));
  for (std::uint32_t a = 0; ok && a < arrays; ++a)
    for (std::int64_t z = 0; ok && z < nz; ++z)
      for (std::int64_t y = 0; ok && y < ny; ++y) ok = f.write(row(a, z, y), row_bytes);
  ok = ok && f.sync();
  ok = f.close() && ok;  // fclose is checked even after an earlier failure
  ok = ok && io.atomic_rename(tmp, path);
  if (!ok) {
    io.remove_file(tmp);
    return {fault::ErrorCode::kIoError, "durable write failed for " + path};
  }
  return {};
}

// Loads either format. The target's shape is fixed by the caller; files
// that disagree are rejected with kMismatch. v2 payloads are CRC-verified.
template <typename RowDst>
fault::Status load_v2_rows(fault::IoBackend& io, const std::string& path, Kind kind,
                           const char* v1_magic, std::uint32_t elem_bytes,
                           std::uint32_t arrays, std::int64_t nx, std::int64_t ny,
                           std::int64_t nz, std::size_t row_bytes,
                           std::uint64_t* user_tag, RowDst&& row) {
  File f(io, path, "rb");
  if (!f.ok()) return {fault::ErrorCode::kIoError, "cannot open " + path};
  char magic[8];
  if (!f.read(magic, 8)) return {fault::ErrorCode::kTruncated, "short header"};

  if (std::memcmp(magic, kMagicV2, 8) == 0) {
    CheckpointHeaderV2 h{};
    std::memcpy(h.magic, magic, 8);
    if (!f.read(reinterpret_cast<char*>(&h) + 8, sizeof(h) - 8))
      return {fault::ErrorCode::kTruncated, "short v2 header"};
    if (const fault::Status st = validate_v2(h); !st.ok()) return st;
    if (h.kind != kind || h.elem_bytes != elem_bytes || h.arrays != arrays ||
        h.nx != nx || h.ny != ny || h.nz != nz)
      return {fault::ErrorCode::kMismatch, "checkpoint shape does not match target"};
    // Compare the actual file size with the header's promise up front: a
    // truncated-then-padded file is reported as kTruncated here instead of
    // surfacing later as a misleading payload-CRC mismatch.
    if (const std::int64_t fsz = f.size();
        fsz >= 0 && static_cast<std::uint64_t>(fsz) < sizeof(h) + h.payload_bytes)
      return {fault::ErrorCode::kTruncated,
              "file holds " + std::to_string(fsz) + " bytes, header promises " +
                  std::to_string(sizeof(h) + h.payload_bytes)};
    std::uint32_t crc = 0;
    for (std::uint32_t a = 0; a < arrays; ++a)
      for (std::int64_t z = 0; z < nz; ++z)
        for (std::int64_t y = 0; y < ny; ++y) {
          void* r = row(a, z, y);
          if (!f.read(r, row_bytes))
            return {fault::ErrorCode::kTruncated, "payload ends early"};
          crc = crc32c(r, row_bytes, crc);
        }
    if (crc != h.payload_crc)
      return {fault::ErrorCode::kCorrupted, "payload CRC mismatch"};
    if (user_tag != nullptr) *user_tag = h.user_tag;
    return {};
  }

  if (std::memcmp(magic, v1_magic, 8) == 0) {
    CheckpointHeader h{};
    std::memcpy(h.magic, magic, 8);
    if (!f.read(reinterpret_cast<char*>(&h) + 8, sizeof(h) - 8))
      return {fault::ErrorCode::kTruncated, "short v1 header"};
    std::uint64_t payload = 0;
    if (!checked_payload_bytes(h.nx, h.ny, h.nz, h.elem_bytes, h.arrays, &payload))
      return {fault::ErrorCode::kBadHeader, "v1 dimensions fail sanity checks"};
    if (h.elem_bytes != elem_bytes || h.arrays != arrays || h.nx != nx ||
        h.ny != ny || h.nz != nz)
      return {fault::ErrorCode::kMismatch, "checkpoint shape does not match target"};
    if (const std::int64_t fsz = f.size();
        fsz >= 0 && static_cast<std::uint64_t>(fsz) < sizeof(h) + payload)
      return {fault::ErrorCode::kTruncated,
              "file holds " + std::to_string(fsz) + " bytes, header promises " +
                  std::to_string(sizeof(h) + payload)};
    for (std::uint32_t a = 0; a < arrays; ++a)
      for (std::int64_t z = 0; z < nz; ++z)
        for (std::int64_t y = 0; y < ny; ++y)
          if (!f.read(row(a, z, y), row_bytes))
            return {fault::ErrorCode::kTruncated, "payload ends early"};
    if (user_tag != nullptr) *user_tag = 0;  // v1 carries no tag
    return {};
  }

  return {fault::ErrorCode::kBadMagic, path + " is not an s35 checkpoint"};
}

inline fault::IoBackend& backend_or_default(fault::IoBackend* io) {
  return io != nullptr ? *io : fault::IoBackend::standard();
}

}  // namespace detail

// Shape and metadata of a checkpoint file, from the header alone (payload
// not verified). Lets callers size/validate targets before loading.
struct CheckpointInfo {
  std::uint32_t version = 0;  // 1 or 2
  bool lattice = false;
  std::uint32_t elem_bytes = 0;
  std::uint32_t arrays = 0;
  std::int64_t nx = 0, ny = 0, nz = 0;
  std::uint64_t user_tag = 0;  // 0 for v1
};

inline fault::Expected<CheckpointInfo> probe_checkpoint(const std::string& path,
                                                        fault::IoBackend* io = nullptr) {
  detail::File f(detail::backend_or_default(io), path, "rb");
  if (!f.ok()) return fault::Status{fault::ErrorCode::kIoError, "cannot open " + path};
  char magic[8];
  if (!f.read(magic, 8))
    return fault::Status{fault::ErrorCode::kTruncated, "short header"};
  CheckpointInfo info;
  if (std::memcmp(magic, detail::kMagicV2, 8) == 0) {
    detail::CheckpointHeaderV2 h{};
    std::memcpy(h.magic, magic, 8);
    if (!f.read(reinterpret_cast<char*>(&h) + 8, sizeof(h) - 8))
      return fault::Status{fault::ErrorCode::kTruncated, "short v2 header"};
    if (const fault::Status st = detail::validate_v2(h); !st.ok()) return st;
    if (const std::int64_t fsz = f.size();
        fsz >= 0 && static_cast<std::uint64_t>(fsz) < sizeof(h) + h.payload_bytes)
      return fault::Status{fault::ErrorCode::kTruncated,
                           "file holds " + std::to_string(fsz) +
                               " bytes, header promises " +
                               std::to_string(sizeof(h) + h.payload_bytes)};
    info = {h.version, h.kind == detail::kKindLattice, h.elem_bytes,
            h.arrays,  h.nx,
            h.ny,      h.nz,
            h.user_tag};
    return info;
  }
  const bool grid_v1 = std::memcmp(magic, detail::kMagicGridV1, 8) == 0;
  const bool latt_v1 = std::memcmp(magic, detail::kMagicLattV1, 8) == 0;
  if (!grid_v1 && !latt_v1)
    return fault::Status{fault::ErrorCode::kBadMagic, path + " is not an s35 checkpoint"};
  detail::CheckpointHeader h{};
  std::memcpy(h.magic, magic, 8);
  if (!f.read(reinterpret_cast<char*>(&h) + 8, sizeof(h) - 8))
    return fault::Status{fault::ErrorCode::kTruncated, "short v1 header"};
  std::uint64_t payload = 0;
  if (!detail::checked_payload_bytes(h.nx, h.ny, h.nz, h.elem_bytes, h.arrays,
                                     &payload))
    return fault::Status{fault::ErrorCode::kBadHeader,
                         "v1 dimensions fail sanity checks"};
  info = {1, latt_v1, h.elem_bytes, h.arrays, h.nx, h.ny, h.nz, 0};
  return info;
}

// Saves the logical contents of `g` durably (format v2). `user_tag` rides
// in the header (the drivers store completed steps there).
template <typename T>
fault::Status save_checkpoint_ex(const std::string& path, const Grid3<T>& g,
                                 std::uint64_t user_tag = 0,
                                 fault::IoBackend* io = nullptr) {
  return detail::save_v2_rows(
      detail::backend_or_default(io), path, detail::kKindGrid,
      static_cast<std::uint32_t>(sizeof(T)), 1, g.nx(), g.ny(), g.nz(),
      static_cast<std::size_t>(g.nx()) * sizeof(T), user_tag,
      [&g](std::uint32_t, std::int64_t z, std::int64_t y) { return g.row(y, z); });
}

// Loads v2 (CRC-verified) or legacy v1 into `g`, which must already have
// matching dimensions. On failure `g`'s contents are unspecified.
template <typename T>
fault::Status load_checkpoint_ex(const std::string& path, Grid3<T>& g,
                                 std::uint64_t* user_tag = nullptr,
                                 fault::IoBackend* io = nullptr) {
  return detail::load_v2_rows(
      detail::backend_or_default(io), path, detail::kKindGrid, detail::kMagicGridV1,
      static_cast<std::uint32_t>(sizeof(T)), 1, g.nx(), g.ny(), g.nz(),
      static_cast<std::size_t>(g.nx()) * sizeof(T), user_tag,
      [&g](std::uint32_t, std::int64_t z, std::int64_t y) { return g.row(y, z); });
}

// Lattice (multi-array) variants: Lat must expose nx/ny/nz and row(i, y, z).
template <typename Lat>
fault::Status save_checkpoint_arrays_ex(const std::string& path, const Lat& lat,
                                        int arrays, std::uint64_t user_tag = 0,
                                        fault::IoBackend* io = nullptr) {
  using T = std::remove_cv_t<std::remove_pointer_t<decltype(lat.row(0, 0, 0))>>;
  return detail::save_v2_rows(
      detail::backend_or_default(io), path, detail::kKindLattice,
      static_cast<std::uint32_t>(sizeof(T)), static_cast<std::uint32_t>(arrays),
      lat.nx(), lat.ny(), lat.nz(), static_cast<std::size_t>(lat.nx()) * sizeof(T),
      user_tag, [&lat](std::uint32_t a, std::int64_t z, std::int64_t y) {
        return lat.row(static_cast<int>(a), y, z);
      });
}

template <typename Lat>
fault::Status load_checkpoint_arrays_ex(const std::string& path, Lat& lat, int arrays,
                                        std::uint64_t* user_tag = nullptr,
                                        fault::IoBackend* io = nullptr) {
  using T = std::remove_pointer_t<decltype(lat.row(0, 0, 0))>;
  return detail::load_v2_rows(
      detail::backend_or_default(io), path, detail::kKindLattice, detail::kMagicLattV1,
      static_cast<std::uint32_t>(sizeof(T)), static_cast<std::uint32_t>(arrays),
      lat.nx(), lat.ny(), lat.nz(), static_cast<std::size_t>(lat.nx()) * sizeof(T),
      user_tag, [&lat](std::uint32_t a, std::int64_t z, std::int64_t y) {
        return lat.row(static_cast<int>(a), y, z);
      });
}

// Legacy bool API (kept for existing callers); saves now emit format v2.
template <typename T>
bool save_checkpoint(const std::string& path, const Grid3<T>& g) {
  return save_checkpoint_ex(path, g).ok();
}

template <typename T>
bool load_checkpoint(const std::string& path, Grid3<T>& g) {
  return load_checkpoint_ex(path, g).ok();
}

template <typename Lat>
bool save_checkpoint_arrays(const std::string& path, const Lat& lat, int arrays) {
  return save_checkpoint_arrays_ex(path, lat, arrays).ok();
}

template <typename Lat>
bool load_checkpoint_arrays(const std::string& path, Lat& lat, int arrays) {
  return load_checkpoint_arrays_ex(path, lat, arrays).ok();
}

}  // namespace s35::grid
