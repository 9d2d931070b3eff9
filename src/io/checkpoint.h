#ifndef NAI_IO_CHECKPOINT_H_
#define NAI_IO_CHECKPOINT_H_

#include <istream>
#include <ostream>

#include "src/core/classifier_stack.h"
#include "src/core/nap_gate.h"
#include "src/core/stationary.h"
#include "src/graph/graph.h"

namespace nai::io {

/// Checkpointing for trained NAI deployments: the classifier bank, the
/// gate stack, and the stationary pooled vector. The loading side
/// constructs the objects with the same configuration (depth, dims) first.
/// Loads check every stored shape against the model before allocating,
/// parse every tensor before assigning any, and throw nai::IoError on a
/// mismatch or a short stream, leaving the model untouched: a corrupt
/// checkpoint, or one from a different architecture, is never half-applied.

/// Serializes all trainable tensors of the bank (every head, depths 1..k).
void SaveClassifierStack(std::ostream& os, core::ClassifierStack& stack);
void LoadClassifierStack(std::istream& is, core::ClassifierStack& stack);

/// Serializes the gate weights and biases (depths 1..k-1).
void SaveGateStack(std::ostream& os, core::GateStack& gates);
void LoadGateStack(std::istream& is, core::GateStack& gates);

/// Serializes the stationary pooled vector + γ; loading reattaches to the
/// serving graph (degrees come from it). The stored vector must have one
/// row.
void SaveStationaryState(std::ostream& os, const core::StationaryState& state);
core::StationaryState LoadStationaryState(std::istream& is,
                                          const graph::Graph& graph);

}  // namespace nai::io

#endif  // NAI_IO_CHECKPOINT_H_
