#ifndef NAI_IO_GRAPH_IO_H_
#define NAI_IO_GRAPH_IO_H_

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/tensor/matrix.h"

namespace nai::io {

/// Plain-text loaders for user-provided graphs, so the library is usable
/// on real data without writing any glue code:
///
///  * edge list: one "u v" pair per line (whitespace separated), '#'
///    comments and blank lines ignored; node ids are 0-based and at most
///    INT32_MAX - 1. The node count is max id + 1 unless `num_nodes`
///    overrides it.
///  * features: one node per line, f whitespace-separated floats.
///  * labels: one integer per line.
///
/// All loaders throw nai::IoError with a line number on parse errors.

graph::Graph ReadEdgeList(std::istream& is, std::int64_t num_nodes = -1);
graph::Graph ReadEdgeListFile(const std::string& path,
                              std::int64_t num_nodes = -1);
void WriteEdgeList(std::ostream& os, const graph::Graph& graph);

tensor::Matrix ReadFeatures(std::istream& is);
tensor::Matrix ReadFeaturesFile(const std::string& path);
void WriteFeatures(std::ostream& os, const tensor::Matrix& features);

std::vector<std::int32_t> ReadLabels(std::istream& is);
std::vector<std::int32_t> ReadLabelsFile(const std::string& path);
void WriteLabels(std::ostream& os, const std::vector<std::int32_t>& labels);

}  // namespace nai::io

#endif  // NAI_IO_GRAPH_IO_H_
