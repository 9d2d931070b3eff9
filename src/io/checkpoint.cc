#include "src/io/checkpoint.h"

#include "src/runtime/error.h"

#include <stdexcept>

#include "src/io/serialize.h"

namespace nai::io {

namespace {

void WriteParams(std::ostream& os,
                 const std::vector<nn::Parameter*>& params) {
  WriteU64(os, params.size());
  for (const nn::Parameter* p : params) WriteMatrix(os, p->value);
}

void ReadParamsInto(std::istream& is,
                    const std::vector<nn::Parameter*>& params) {
  const std::uint64_t count = ReadU64(is);
  if (count != params.size()) {
    throw IoError("checkpoint: parameter count mismatch");
  }
  for (nn::Parameter* p : params) {
    tensor::Matrix m = ReadMatrix(is);
    if (!m.SameShape(p->value)) {
      throw IoError("checkpoint: tensor shape mismatch: stored " +
                               m.ShapeString() + " vs model " +
                               p->value.ShapeString());
    }
    p->value = std::move(m);
  }
}

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
  for (int l = 1; l <= stack.depth(); ++l) {
    ReadParamsInto(is, stack.HeadParameters(l));
  }
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
  for (int l = 1; l < gates.max_depth(); ++l) {
    tensor::Matrix w = ReadMatrix(is);
    tensor::Matrix b = ReadMatrix(is);
    if (!w.SameShape(gates.gate_weight(l).value) ||
        !b.SameShape(gates.gate_bias(l).value)) {
      throw IoError("checkpoint: gate shape mismatch");
    }
    gates.gate_weight(l).value = std::move(w);
    gates.gate_bias(l).value = std::move(b);
  }
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
  tensor::Matrix pooled = ReadMatrix(is);
  return core::StationaryState::FromPooled(graph, std::move(pooled), gamma);
}

}  // namespace nai::io
