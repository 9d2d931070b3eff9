#ifndef NAI_STORAGE_FEATURE_ADAPTERS_H_
#define NAI_STORAGE_FEATURE_ADAPTERS_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/storage/store.h"

namespace nai::storage {

/// Row-remapping FeatureStore: local row r reads base row nodes[r]. This is
/// how a shard serves its local feature rows without gathering a per-shard
/// copy — over an mmap base the shard's working set stays pages of the one
/// shared file, which is the point of the out-of-core path.
class SlicedFeatureStore : public FeatureStore {
 public:
  SlicedFeatureStore(std::shared_ptr<const FeatureStore> base,
                     std::vector<std::int32_t> nodes)
      : base_(std::move(base)), nodes_(std::move(nodes)) {}

  std::int64_t num_rows() const override {
    return static_cast<std::int64_t>(nodes_.size());
  }
  std::size_t dim() const override { return base_->dim(); }
  const float* row(std::int64_t v) const override {
    return base_->row(nodes_[static_cast<std::size_t>(v)]);
  }
  const tensor::Matrix* stationary_pooled() const override {
    return base_->stationary_pooled();
  }
  StoreBackend backend() const override { return base_->backend(); }
  ResidencyInfo FeatureResidency() const override {
    // The slice shares the base's pages; per-slice accounting would double
    // count, so report zero mapped bytes and let the snapshot-level store
    // report the file once.
    return ResidencyInfo{};
  }

 private:
  std::shared_ptr<const FeatureStore> base_;
  std::vector<std::int32_t> nodes_;
};

}  // namespace nai::storage

#endif  // NAI_STORAGE_FEATURE_ADAPTERS_H_
