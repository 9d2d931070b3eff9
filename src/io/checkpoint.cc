#include "src/io/checkpoint.h"

#include "src/runtime/error.h"

#include <stdexcept>
#include <vector>

#include "src/io/serialize.h"

namespace nai::io {

namespace {

void WriteParams(std::ostream& os,
                 const std::vector<nn::Parameter*>& params) {
  WriteU64(os, params.size());
  for (const nn::Parameter* p : params) WriteMatrix(os, p->value);
}

/// Tensors read from a checkpoint but not yet assigned. A load stages
/// every tensor and commits only after all of them parse, so a load that
/// throws leaves the model exactly as it was.
struct StagedLoad {
  std::vector<nn::Parameter*> targets;
  std::vector<tensor::Matrix> values;

  /// Reads the next tensor for `p`; ReadMatrix checks it against p's
  /// shape before allocating it.
  void Read(std::istream& is, nn::Parameter* p) {
    values.push_back(ReadMatrix(is, p->value.rows(), p->value.cols()));
    targets.push_back(p);
  }
  /// Reads one parameter group, as WriteParams wrote it.
  void ReadParams(std::istream& is, const std::vector<nn::Parameter*>& params) {
    if (ReadU64(is) != params.size()) {
      throw IoError("checkpoint: parameter count mismatch");
    }
    for (nn::Parameter* p : params) Read(is, p);
  }
  void Commit() {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      targets[i]->value = std::move(values[i]);
    }
  }
};

}  // namespace

void SaveClassifierStack(std::ostream& os, core::ClassifierStack& stack) {
  WriteHeader(os, "classifier_stack");
  WriteI32(os, stack.depth());
  for (int l = 1; l <= stack.depth(); ++l) {
    WriteParams(os, stack.HeadParameters(l));
  }
}

void LoadClassifierStack(std::istream& is, core::ClassifierStack& stack) {
  ReadHeader(is, "classifier_stack");
  const std::int32_t depth = ReadI32(is);
  if (depth != stack.depth()) {
    throw IoError("checkpoint: classifier depth mismatch");
  }
  StagedLoad load;
  for (int l = 1; l <= stack.depth(); ++l) {
    load.ReadParams(is, stack.HeadParameters(l));
  }
  load.Commit();
}

void SaveGateStack(std::ostream& os, core::GateStack& gates) {
  WriteHeader(os, "gate_stack");
  WriteI32(os, gates.max_depth());
  for (int l = 1; l < gates.max_depth(); ++l) {
    WriteMatrix(os, gates.gate_weight(l).value);
    WriteMatrix(os, gates.gate_bias(l).value);
  }
}

void LoadGateStack(std::istream& is, core::GateStack& gates) {
  ReadHeader(is, "gate_stack");
  const std::int32_t depth = ReadI32(is);
  if (depth != gates.max_depth()) {
    throw IoError("checkpoint: gate depth mismatch");
  }
  StagedLoad load;
  for (int l = 1; l < gates.max_depth(); ++l) {
    load.Read(is, &gates.gate_weight(l));
    load.Read(is, &gates.gate_bias(l));
  }
  load.Commit();
}

void SaveStationaryState(std::ostream& os,
                         const core::StationaryState& state) {
  WriteHeader(os, "stationary_state");
  WriteF32(os, state.gamma());
  WriteMatrix(os, state.pooled());
}

core::StationaryState LoadStationaryState(std::istream& is,
                                          const graph::Graph& graph) {
  ReadHeader(is, "stationary_state");
  const float gamma = ReadF32(is);
  tensor::Matrix pooled = ReadMatrix(is, 1, kAnyCols);
  return core::StationaryState::FromPooled(graph, std::move(pooled), gamma);
}

}  // namespace nai::io
