#ifndef NAI_STORAGE_MMAP_STORE_H_
#define NAI_STORAGE_MMAP_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/graph/csr.h"
#include "src/storage/store.h"
#include "src/tensor/matrix.h"

namespace nai::storage {

/// On-disk layout of a NAI store file (single graph version, all derived
/// artifacts). Fixed little-endian layout, 64-byte-aligned sections:
///
///   [header 128 B]  magic "NAIMMAP1", version 2, n, m, dim, gamma,
///                   data + header checksums (StoreChecksum)
///   [adj_row_ptr ]  (n+1) x i64     raw symmetric adjacency (unweighted)
///   [adj_col_idx ]  2m    x i32
///   [norm_row_ptr]  (n+1) x i64     normalized adjacency (Eq. 1)
///   [norm_col_idx]  (2m+n) x i32    one self-loop entry per row
///   [norm_values ]  (2m+n) x f32
///   [features    ]  n*dim x f32     row-major node features
///   [stationary  ]  dim   x f32     pooled stationary vector g
///
/// Section offsets are derived from (n, m, dim) — the file is valid iff its
/// size matches the derived layout exactly. The header checksum is always
/// verified at open; the data checksum is optional (verifying it faults the
/// whole file resident, which defeats out-of-core residency measurement on
/// multi-GB stores).
struct MmapLayout {
  std::int64_t num_nodes = 0;
  std::int64_t adj_nnz = 0;  ///< 2m
  std::int64_t feature_dim = 0;

  std::int64_t adj_row_ptr_off = 0;
  std::int64_t adj_col_idx_off = 0;
  std::int64_t norm_row_ptr_off = 0;
  std::int64_t norm_col_idx_off = 0;
  std::int64_t norm_values_off = 0;
  std::int64_t features_off = 0;
  std::int64_t stationary_off = 0;
  std::int64_t file_size = 0;

  std::int64_t norm_nnz() const { return adj_nnz + num_nodes; }

  /// Derives all offsets from the three counts.
  static MmapLayout Make(std::int64_t num_nodes, std::int64_t adj_nnz,
                         std::int64_t feature_dim);
};

/// The store checksum (format version 2): 64-bit FNV-1a taken over `data`
/// as little-endian 64-bit words, h = (h ^ w) * 1099511628211 from the
/// offset basis 14695981039346656037, then byte by byte over the len % 8
/// tail. Each step is a bijection of h, so changing any one word (and so
/// any single byte) always changes the result. Eight bytes per multiply
/// instead of one make a pass run at memory speed.
std::uint64_t StoreChecksum(const unsigned char* data, std::size_t len);

/// Streaming writer: sizes the file up front, maps it read-write and hands
/// out typed section pointers, so multi-million-node generators fill CSR
/// arrays and feature rows in place without materializing them in RAM.
/// Finalize() stamps the header (checksums included) and unmaps; the file
/// is invalid (zero magic) until then, so a crashed writer never leaves a
/// loadable half-written store behind.
class MmapStoreWriter {
 public:
  MmapStoreWriter(const std::string& path, std::int64_t num_nodes,
                  std::int64_t adj_nnz, std::int64_t feature_dim, float gamma);
  ~MmapStoreWriter();

  MmapStoreWriter(const MmapStoreWriter&) = delete;
  MmapStoreWriter& operator=(const MmapStoreWriter&) = delete;

  const MmapLayout& layout() const { return layout_; }

  std::int64_t* adj_row_ptr();
  std::int32_t* adj_col_idx();
  std::int64_t* norm_row_ptr();
  std::int32_t* norm_col_idx();
  float* norm_values();
  float* features();
  float* stationary();

  /// Computes checksums, writes the header, syncs and closes. No section
  /// pointer may be used afterwards.
  void Finalize();

 private:
  MmapLayout layout_;
  float gamma_;
  int fd_ = -1;
  unsigned char* map_ = nullptr;
  bool finalized_ = false;
};

/// Memory-mapped read-only store: one mapping backs both the GraphStore and
/// FeatureStore interfaces; CSR views point straight into the file pages.
/// Throws nai::IoError on missing/truncated/corrupt files.
class MmapStore : public GraphStore, public FeatureStore {
 public:
  struct Options {
    /// Verify the full data checksum at open. Touches every page — leave
    /// off for residency-measured out-of-core runs.
    bool verify_data = true;
  };

  // Two overloads rather than `Options options = {}`: GCC cannot use a
  // nested aggregate's default member initializers in a default argument
  // while the enclosing class is still incomplete (PR 88165).
  explicit MmapStore(const std::string& path) : MmapStore(path, Options()) {}
  MmapStore(const std::string& path, Options options);
  ~MmapStore() override;

  MmapStore(const MmapStore&) = delete;
  MmapStore& operator=(const MmapStore&) = delete;

  // GraphStore:
  std::int64_t num_nodes() const override { return layout_.num_nodes; }
  std::int64_t num_edges() const override { return layout_.adj_nnz / 2; }
  float gamma() const override { return gamma_; }
  graph::CsrView adj() const override { return adj_; }
  graph::CsrView norm_adj() const override { return norm_adj_; }

  // FeatureStore:
  std::int64_t num_rows() const override { return layout_.num_nodes; }
  std::size_t dim() const override {
    return static_cast<std::size_t>(layout_.feature_dim);
  }
  const float* row(std::int64_t v) const override {
    return features_ + v * layout_.feature_dim;
  }
  const tensor::Matrix* stationary_pooled() const override {
    return &stationary_pooled_;
  }

  StoreBackend backend() const override { return StoreBackend::kMmap; }
  ResidencyInfo AdjacencyResidency() const override;
  ResidencyInfo FeatureResidency() const override;
  void Advise(AccessHint hint) const override;

  const std::string& path() const { return path_; }

 private:
  ResidencyInfo RangeResidency(std::int64_t begin, std::int64_t end) const;

  std::string path_;
  MmapLayout layout_;
  float gamma_ = 0.5f;
  int fd_ = -1;
  unsigned char* map_ = nullptr;
  graph::CsrView adj_;
  graph::CsrView norm_adj_;
  const float* features_ = nullptr;
  tensor::Matrix stationary_pooled_;  // small, copied out of the file
};

/// Serializes any store pair into the mmap layout at `path` (the mem->mmap
/// conversion behind NAI_STORE=mmap). The feature store must carry a pooled
/// stationary vector. Throws nai::IoError on write failures.
void SaveStore(const GraphStore& graph_store, const FeatureStore& feature_store,
               const std::string& path);

}  // namespace nai::storage

#endif  // NAI_STORAGE_MMAP_STORE_H_
