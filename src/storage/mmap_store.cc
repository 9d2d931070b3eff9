#include "src/storage/mmap_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#include "src/runtime/error.h"

namespace nai::storage {

namespace {

constexpr char kMagic[8] = {'N', 'A', 'I', 'M', 'M', 'A', 'P', '1'};
// Bump on any change to the layout or to StoreChecksum.
constexpr std::uint32_t kFormatVersion = 2;
constexpr std::int64_t kHeaderSize = 128;
constexpr std::int64_t kSectionAlign = 64;

/// Fixed 128-byte file header. All fields little-endian (the library does
/// not target big-endian hosts; io/serialize.h has the same stance).
struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t flags;
  std::int64_t num_nodes;
  std::int64_t num_edges;  // undirected m; adjacency stores 2m entries
  std::int64_t feature_dim;
  float gamma;
  std::uint32_t pad0;
  std::uint64_t data_checksum;    // StoreChecksum of [kHeaderSize, file_size)
  std::uint64_t header_checksum;  // StoreChecksum of header with this = 0
  unsigned char reserved[64];
};
static_assert(sizeof(FileHeader) == kHeaderSize,
              "store header must stay exactly 128 bytes");

std::uint64_t HeaderChecksum(FileHeader header) {
  header.header_checksum = 0;
  return StoreChecksum(reinterpret_cast<const unsigned char*>(&header),
                       sizeof(FileHeader));
}

std::uint64_t DataChecksum(const unsigned char* map,
                           const MmapLayout& layout) {
  return StoreChecksum(map + kHeaderSize, static_cast<std::size_t>(
                                              layout.file_size - kHeaderSize));
}

std::int64_t AlignUp(std::int64_t off) {
  return (off + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

[[noreturn]] void ThrowErrno(const std::string& what, const std::string& path) {
  throw IoError(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

std::uint64_t StoreChecksum(const unsigned char* data, std::size_t len) {
  static_assert(std::endian::native == std::endian::little,
                "the store format is little-endian");
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t h = 14695981039346656037ULL;
  const std::size_t words = len / 8;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w;
    std::memcpy(&w, data + 8 * i, sizeof(w));
    h = (h ^ w) * kPrime;
  }
  for (std::size_t i = 8 * words; i < len; ++i) h = (h ^ data[i]) * kPrime;
  return h;
}

MmapLayout MmapLayout::Make(std::int64_t num_nodes, std::int64_t adj_nnz,
                            std::int64_t feature_dim) {
  if (num_nodes < 0 || adj_nnz < 0 || feature_dim < 0) {
    throw ValidationError("MmapLayout: negative store dimensions");
  }
  MmapLayout l;
  l.num_nodes = num_nodes;
  l.adj_nnz = adj_nnz;
  l.feature_dim = feature_dim;
  std::int64_t off = kHeaderSize;
  l.adj_row_ptr_off = off = AlignUp(off);
  off += (num_nodes + 1) * static_cast<std::int64_t>(sizeof(std::int64_t));
  l.adj_col_idx_off = off = AlignUp(off);
  off += adj_nnz * static_cast<std::int64_t>(sizeof(std::int32_t));
  l.norm_row_ptr_off = off = AlignUp(off);
  off += (num_nodes + 1) * static_cast<std::int64_t>(sizeof(std::int64_t));
  l.norm_col_idx_off = off = AlignUp(off);
  off += l.norm_nnz() * static_cast<std::int64_t>(sizeof(std::int32_t));
  l.norm_values_off = off = AlignUp(off);
  off += l.norm_nnz() * static_cast<std::int64_t>(sizeof(float));
  l.features_off = off = AlignUp(off);
  off += num_nodes * feature_dim * static_cast<std::int64_t>(sizeof(float));
  l.stationary_off = off = AlignUp(off);
  off += feature_dim * static_cast<std::int64_t>(sizeof(float));
  l.file_size = off;
  return l;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

MmapStoreWriter::MmapStoreWriter(const std::string& path,
                                 std::int64_t num_nodes, std::int64_t adj_nnz,
                                 std::int64_t feature_dim, float gamma)
    : layout_(MmapLayout::Make(num_nodes, adj_nnz, feature_dim)),
      gamma_(gamma) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) ThrowErrno("MmapStoreWriter: cannot create", path);
  if (::ftruncate(fd_, layout_.file_size) != 0) {
    ::close(fd_);
    fd_ = -1;
    ThrowErrno("MmapStoreWriter: cannot size", path);
  }
  void* m = ::mmap(nullptr, static_cast<std::size_t>(layout_.file_size),
                   PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
  if (m == MAP_FAILED) {
    ::close(fd_);
    fd_ = -1;
    ThrowErrno("MmapStoreWriter: cannot map", path);
  }
  map_ = static_cast<unsigned char*>(m);
}

MmapStoreWriter::~MmapStoreWriter() {
  if (map_ != nullptr) {
    ::munmap(map_, static_cast<std::size_t>(layout_.file_size));
  }
  if (fd_ >= 0) ::close(fd_);
}

std::int64_t* MmapStoreWriter::adj_row_ptr() {
  return reinterpret_cast<std::int64_t*>(map_ + layout_.adj_row_ptr_off);
}
std::int32_t* MmapStoreWriter::adj_col_idx() {
  return reinterpret_cast<std::int32_t*>(map_ + layout_.adj_col_idx_off);
}
std::int64_t* MmapStoreWriter::norm_row_ptr() {
  return reinterpret_cast<std::int64_t*>(map_ + layout_.norm_row_ptr_off);
}
std::int32_t* MmapStoreWriter::norm_col_idx() {
  return reinterpret_cast<std::int32_t*>(map_ + layout_.norm_col_idx_off);
}
float* MmapStoreWriter::norm_values() {
  return reinterpret_cast<float*>(map_ + layout_.norm_values_off);
}
float* MmapStoreWriter::features() {
  return reinterpret_cast<float*>(map_ + layout_.features_off);
}
float* MmapStoreWriter::stationary() {
  return reinterpret_cast<float*>(map_ + layout_.stationary_off);
}

void MmapStoreWriter::Finalize() {
  if (finalized_) return;
  FileHeader header;
  std::memset(&header, 0, sizeof(header));
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.num_nodes = layout_.num_nodes;
  header.num_edges = layout_.adj_nnz / 2;
  header.feature_dim = layout_.feature_dim;
  header.gamma = gamma_;
  header.data_checksum = DataChecksum(map_, layout_);
  header.header_checksum = HeaderChecksum(header);
  std::memcpy(map_, &header, sizeof(header));
  if (::msync(map_, static_cast<std::size_t>(layout_.file_size), MS_SYNC) !=
      0) {
    ThrowErrno("MmapStoreWriter: msync failed", "<store>");
  }
  ::munmap(map_, static_cast<std::size_t>(layout_.file_size));
  map_ = nullptr;
  ::close(fd_);
  fd_ = -1;
  finalized_ = true;
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

MmapStore::MmapStore(const std::string& path, Options options) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) ThrowErrno("MmapStore: cannot open", path);

  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
    ThrowErrno("MmapStore: cannot stat", path);
  }
  const std::int64_t file_size = static_cast<std::int64_t>(st.st_size);
  if (file_size < kHeaderSize) {
    ::close(fd_);
    fd_ = -1;
    throw IoError("MmapStore: '" + path + "' is truncated (" +
                  std::to_string(file_size) + " bytes, header needs " +
                  std::to_string(kHeaderSize) + ")");
  }

  FileHeader header;
  if (::pread(fd_, &header, sizeof(header), 0) !=
      static_cast<ssize_t>(sizeof(header))) {
    ::close(fd_);
    fd_ = -1;
    ThrowErrno("MmapStore: short header read from", path);
  }
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw IoError("MmapStore: '" + path + "' has wrong magic (not a store)");
  }
  if (header.version != kFormatVersion) {
    ::close(fd_);
    fd_ = -1;
    throw IoError("MmapStore: '" + path + "' has unsupported format version " +
                  std::to_string(header.version));
  }
  if (HeaderChecksum(header) != header.header_checksum) {
    ::close(fd_);
    fd_ = -1;
    throw IoError("MmapStore: '" + path + "' header checksum mismatch");
  }

  layout_ = MmapLayout::Make(header.num_nodes, header.num_edges * 2,
                             header.feature_dim);
  gamma_ = header.gamma;
  if (layout_.file_size != file_size) {
    ::close(fd_);
    fd_ = -1;
    throw IoError("MmapStore: '" + path + "' size mismatch (header implies " +
                  std::to_string(layout_.file_size) + " bytes, file has " +
                  std::to_string(file_size) + ")");
  }

  void* m = ::mmap(nullptr, static_cast<std::size_t>(layout_.file_size),
                   PROT_READ, MAP_SHARED, fd_, 0);
  if (m == MAP_FAILED) {
    ::close(fd_);
    fd_ = -1;
    ThrowErrno("MmapStore: cannot map", path);
  }
  map_ = static_cast<unsigned char*>(m);

  if (options.verify_data) {
    if (DataChecksum(map_, layout_) != header.data_checksum) {
      ::munmap(map_, static_cast<std::size_t>(layout_.file_size));
      map_ = nullptr;
      ::close(fd_);
      fd_ = -1;
      throw IoError("MmapStore: '" + path + "' data checksum mismatch");
    }
  }

  adj_ = graph::CsrView{
      layout_.num_nodes, layout_.num_nodes,
      reinterpret_cast<const std::int64_t*>(map_ + layout_.adj_row_ptr_off),
      reinterpret_cast<const std::int32_t*>(map_ + layout_.adj_col_idx_off),
      nullptr};
  norm_adj_ = graph::CsrView{
      layout_.num_nodes, layout_.num_nodes,
      reinterpret_cast<const std::int64_t*>(map_ + layout_.norm_row_ptr_off),
      reinterpret_cast<const std::int32_t*>(map_ + layout_.norm_col_idx_off),
      reinterpret_cast<const float*>(map_ + layout_.norm_values_off)};
  features_ = reinterpret_cast<const float*>(map_ + layout_.features_off);

  stationary_pooled_ =
      tensor::Matrix(1, static_cast<std::size_t>(layout_.feature_dim));
  std::memcpy(stationary_pooled_.data(), map_ + layout_.stationary_off,
              static_cast<std::size_t>(layout_.feature_dim) * sizeof(float));
}

MmapStore::~MmapStore() {
  if (map_ != nullptr) {
    ::munmap(map_, static_cast<std::size_t>(layout_.file_size));
  }
  if (fd_ >= 0) ::close(fd_);
}

ResidencyInfo MmapStore::RangeResidency(std::int64_t begin,
                                        std::int64_t end) const {
  ResidencyInfo info;
  info.mapped_bytes = end - begin;
  info.exact = true;
  if (end <= begin) return info;

  const std::int64_t page = static_cast<std::int64_t>(::sysconf(_SC_PAGESIZE));
  const std::int64_t first = begin / page * page;
  const std::int64_t last = (end + page - 1) / page * page;
  const std::size_t pages = static_cast<std::size_t>((last - first) / page);
  std::vector<unsigned char> vec(pages);
  if (::mincore(map_ + first, static_cast<std::size_t>(last - first),
                vec.data()) != 0) {
    // Treat a failed probe as "unknown, assume resident" rather than erroring
    // out of a stats path.
    info.resident_bytes = info.mapped_bytes;
    info.exact = false;
    return info;
  }
  std::int64_t resident = 0;
  for (const unsigned char v : vec) {
    if (v & 1u) resident += page;
  }
  info.resident_bytes = std::min(resident, info.mapped_bytes);
  return info;
}

ResidencyInfo MmapStore::AdjacencyResidency() const {
  return RangeResidency(layout_.adj_row_ptr_off, layout_.features_off);
}

ResidencyInfo MmapStore::FeatureResidency() const {
  return RangeResidency(layout_.features_off, layout_.file_size);
}

void MmapStore::Advise(AccessHint hint) const {
  int advice = MADV_NORMAL;
  switch (hint) {
    case AccessHint::kNormal:
      advice = MADV_NORMAL;
      break;
    case AccessHint::kRandom:
      advice = MADV_RANDOM;
      break;
    case AccessHint::kSequential:
      advice = MADV_SEQUENTIAL;
      break;
    case AccessHint::kWillNeed:
      advice = MADV_WILLNEED;
      break;
    case AccessHint::kDontNeed:
      advice = MADV_DONTNEED;
      break;
  }
  ::madvise(map_, static_cast<std::size_t>(layout_.file_size), advice);
}

// ---------------------------------------------------------------------------
// SaveStore
// ---------------------------------------------------------------------------

void SaveStore(const GraphStore& graph_store,
               const FeatureStore& feature_store, const std::string& path) {
  const graph::CsrView adj = graph_store.adj();
  const graph::CsrView norm = graph_store.norm_adj();
  const std::int64_t n = graph_store.num_nodes();
  const std::int64_t dim =
      static_cast<std::int64_t>(feature_store.dim());
  if (feature_store.num_rows() != n) {
    throw ValidationError("SaveStore: feature rows (" +
                          std::to_string(feature_store.num_rows()) +
                          ") != graph nodes (" + std::to_string(n) + ")");
  }
  if (norm.nnz() != adj.nnz() + n) {
    throw ValidationError(
        "SaveStore: normalized adjacency must carry exactly one self-loop "
        "entry per row");
  }
  const tensor::Matrix* pooled = feature_store.stationary_pooled();
  if (pooled == nullptr ||
      static_cast<std::int64_t>(pooled->cols()) != dim) {
    throw ValidationError(
        "SaveStore: feature store has no pooled stationary vector of the "
        "feature width");
  }

  MmapStoreWriter writer(path, n, adj.nnz(), dim, graph_store.gamma());
  std::memcpy(writer.adj_row_ptr(), adj.row_ptr,
              static_cast<std::size_t>(n + 1) * sizeof(std::int64_t));
  std::memcpy(writer.adj_col_idx(), adj.col_idx,
              static_cast<std::size_t>(adj.nnz()) * sizeof(std::int32_t));
  std::memcpy(writer.norm_row_ptr(), norm.row_ptr,
              static_cast<std::size_t>(n + 1) * sizeof(std::int64_t));
  std::memcpy(writer.norm_col_idx(), norm.col_idx,
              static_cast<std::size_t>(norm.nnz()) * sizeof(std::int32_t));
  std::memcpy(writer.norm_values(), norm.values,
              static_cast<std::size_t>(norm.nnz()) * sizeof(float));
  float* feat_out = writer.features();
  for (std::int64_t v = 0; v < n; ++v) {
    std::memcpy(feat_out + v * dim, feature_store.row(v),
                static_cast<std::size_t>(dim) * sizeof(float));
  }
  std::memcpy(writer.stationary(), pooled->data(),
              static_cast<std::size_t>(dim) * sizeof(float));
  writer.Finalize();
}

}  // namespace nai::storage
