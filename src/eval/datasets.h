#ifndef NAI_EVAL_DATASETS_H_
#define NAI_EVAL_DATASETS_H_

#include <string>
#include <vector>

#include "src/graph/generators.h"
#include "src/graph/partition.h"
#include "src/tensor/matrix.h"

namespace nai::eval {

/// A benchmark dataset specification: generator parameters plus the
/// inductive split ratios and the paper's per-dataset propagation depth k.
struct DatasetSpec {
  std::string name;
  graph::GeneratorConfig gen;
  double train_fraction = 0.7;    ///< |V_train| / |V| (val included)
  double labeled_fraction = 0.7;  ///< |V_l| / |V_train|
  double val_fraction = 0.2;      ///< |V_val| / |V_train|
  int default_depth = 5;          ///< k (Tables III-IV)
  float default_dropout = 0.1f;
};

/// Presets mimicking the scale ratios and characteristics of the paper's
/// three datasets (Table II), shrunk to laptop scale. The real Flickr,
/// ogbn-arxiv and ogbn-products graphs are not bundled and would not fit
/// the seconds-long test and bench budgets, so each preset generates a
/// power-law, homophilous graph with the original's class count and
/// train/validation/test split ratios, a comparable density, and label
/// noise set so accuracy tops out near the paper's — what the relative
/// latency and accuracy comparisons depend on. `scale` multiplies node and
/// edge counts (NAI_SCALE environment variable, default 1).
DatasetSpec FlickrSim(double scale = 1.0);
DatasetSpec ArxivSim(double scale = 1.0);
DatasetSpec ProductsSim(double scale = 1.0);

/// Reads the NAI_SCALE environment variable (default 1.0, clamped to
/// [0.05, 100]). All benches honor it so CI can shrink runs.
double EnvScale();

/// A dataset instantiated and split for the inductive setting, with the
/// training-side tensors pre-gathered.
struct PreparedDataset {
  std::string name;
  int default_depth = 5;
  float default_dropout = 0.1f;
  graph::SyntheticDataset data;
  graph::InductiveSplit split;
  tensor::Matrix train_features;            ///< rows = train-graph local ids
  std::vector<std::int32_t> train_labels;   ///< per train-graph local id
};

PreparedDataset Prepare(const DatasetSpec& spec);

}  // namespace nai::eval

#endif  // NAI_EVAL_DATASETS_H_
