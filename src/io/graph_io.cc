#include "src/io/graph_io.h"

#include "src/runtime/error.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace nai::io {

namespace {

constexpr std::int64_t kMaxNodeId =
    std::numeric_limits<std::int32_t>::max() - 1;

[[noreturn]] void ParseError(const std::string& what, std::int64_t line) {
  throw IoError("parse error at line " + std::to_string(line) +
                           ": " + what);
}

bool IsSkippable(const std::string& line) {
  for (const char c : line) {
    if (c == '#') return true;
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;  // all whitespace
}

std::ifstream OpenOrThrow(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw IoError("cannot open: " + path);
  return is;
}

}  // namespace

graph::Graph ReadEdgeList(std::istream& is, std::int64_t num_nodes) {
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  std::int64_t max_id = -1;
  std::string line;
  std::int64_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (IsSkippable(line)) continue;
    std::istringstream ls(line);
    std::int64_t u, v;
    if (!(ls >> u >> v)) ParseError("expected 'u v'", line_no);
    if (u < 0 || v < 0) ParseError("negative node id", line_no);
    // Ids are int32 and the node count (max id + 1) must be one too.
    if (u > kMaxNodeId || v > kMaxNodeId) {
      ParseError("node id above " + std::to_string(kMaxNodeId), line_no);
    }
    if (num_nodes >= 0 && (u >= num_nodes || v >= num_nodes)) {
      ParseError("node id exceeds declared node count", line_no);
    }
    max_id = std::max({max_id, u, v});
    edges.emplace_back(static_cast<std::int32_t>(u),
                       static_cast<std::int32_t>(v));
  }
  const std::int64_t n = num_nodes >= 0 ? num_nodes : max_id + 1;
  return graph::Graph::FromEdges(std::max<std::int64_t>(n, 0), edges);
}

graph::Graph ReadEdgeListFile(const std::string& path,
                              std::int64_t num_nodes) {
  std::ifstream is = OpenOrThrow(path);
  return ReadEdgeList(is, num_nodes);
}

void WriteEdgeList(std::ostream& os, const graph::Graph& graph) {
  os << "# " << graph.num_nodes() << " nodes, " << graph.num_edges()
     << " undirected edges\n";
  for (std::int32_t v = 0; v < graph.num_nodes(); ++v) {
    for (const auto* it = graph.neighbors_begin(v);
         it != graph.neighbors_end(v); ++it) {
      if (*it > v) os << v << ' ' << *it << '\n';
    }
  }
}

tensor::Matrix ReadFeatures(std::istream& is) {
  std::vector<std::vector<float>> rows;
  std::string line;
  std::int64_t line_no = 0;
  std::size_t width = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (IsSkippable(line)) continue;
    std::istringstream ls(line);
    std::vector<float> row;
    float v;
    while (ls >> v) row.push_back(v);
    if (!ls.eof()) ParseError("non-numeric feature value", line_no);
    if (row.empty()) ParseError("empty feature row", line_no);
    if (width == 0) {
      width = row.size();
    } else if (row.size() != width) {
      ParseError("inconsistent feature width", line_no);
    }
    rows.push_back(std::move(row));
  }
  tensor::Matrix m(rows.size(), width);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    m.SetRow(i, rows[i].data());
  }
  return m;
}

tensor::Matrix ReadFeaturesFile(const std::string& path) {
  std::ifstream is = OpenOrThrow(path);
  return ReadFeatures(is);
}

void WriteFeatures(std::ostream& os, const tensor::Matrix& features) {
  for (std::size_t i = 0; i < features.rows(); ++i) {
    const float* row = features.row(i);
    for (std::size_t j = 0; j < features.cols(); ++j) {
      if (j > 0) os << ' ';
      os << row[j];
    }
    os << '\n';
  }
}

std::vector<std::int32_t> ReadLabels(std::istream& is) {
  std::vector<std::int32_t> labels;
  std::string line;
  std::int64_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (IsSkippable(line)) continue;
    std::istringstream ls(line);
    std::int64_t y;
    if (!(ls >> y)) ParseError("expected an integer label", line_no);
    labels.push_back(static_cast<std::int32_t>(y));
  }
  return labels;
}

std::vector<std::int32_t> ReadLabelsFile(const std::string& path) {
  std::ifstream is = OpenOrThrow(path);
  return ReadLabels(is);
}

void WriteLabels(std::ostream& os, const std::vector<std::int32_t>& labels) {
  for (const std::int32_t y : labels) os << y << '\n';
}

}  // namespace nai::io
