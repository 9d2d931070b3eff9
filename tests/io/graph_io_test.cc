#include "src/io/graph_io.h"

#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "src/graph/generators.h"
#include "src/runtime/error.h"
#include "tests/test_util.h"

namespace nai::io {
namespace {

TEST(GraphIoTest, EdgeListBasic) {
  std::stringstream ss("0 1\n1 2\n# comment\n\n2 3\n");
  const graph::Graph g = ReadEdgeList(ss);
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_TRUE(g.HasEdge(1, 2));
}

TEST(GraphIoTest, EdgeListExplicitNodeCount) {
  std::stringstream ss("0 1\n");
  const graph::Graph g = ReadEdgeList(ss, 10);
  EXPECT_EQ(g.num_nodes(), 10);
  EXPECT_EQ(g.degree(9), 0);
}

TEST(GraphIoTest, EdgeListRejectsBadInput) {
  {
    std::stringstream ss("0 x\n");
    EXPECT_THROW(ReadEdgeList(ss), std::runtime_error);
  }
  {
    std::stringstream ss("0 5\n");
    EXPECT_THROW(ReadEdgeList(ss, 3), std::runtime_error);
  }
}

TEST(GraphIoTest, EdgeListRejectsIdsPastInt32) {
  // An id of 2^31 used to be narrowed to int32 after a graph of 2^31 + 1
  // nodes was sized from it; it is a parse error naming its line.
  std::stringstream ss("0 1\n2147483648 1\n");
  try {
    ReadEdgeList(ss);
    FAIL() << "an id above INT32_MAX - 1 was accepted";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  // INT32_MAX itself is refused too: its node count would not fit int32.
  std::stringstream max_id("2147483647 0\n");
  EXPECT_THROW(ReadEdgeList(max_id), IoError);
}

TEST(GraphIoTest, EdgeListRoundTrip) {
  graph::GeneratorConfig cfg;
  cfg.num_nodes = 120;
  cfg.num_edges = 500;
  cfg.seed = 3;
  const graph::SyntheticDataset ds = graph::GenerateDataset(cfg);
  std::stringstream ss;
  WriteEdgeList(ss, ds.graph);
  const graph::Graph back = ReadEdgeList(ss, ds.graph.num_nodes());
  EXPECT_EQ(back.num_nodes(), ds.graph.num_nodes());
  EXPECT_EQ(back.num_edges(), ds.graph.num_edges());
  for (std::int32_t v = 0; v < back.num_nodes(); ++v) {
    EXPECT_EQ(back.degree(v), ds.graph.degree(v));
  }
}

TEST(GraphIoTest, EdgeListCollapsesDuplicatesAndSelfLoops) {
  std::stringstream ss("0 1\n1 0\n0 1\n1 1\n");
  const graph::Graph g = ReadEdgeList(ss);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_FALSE(g.HasEdge(1, 1));
}

TEST(GraphIoTest, FeaturesRoundTrip) {
  const tensor::Matrix m = nai::testing::RandomMatrix(9, 4, 11);
  std::stringstream ss;
  WriteFeatures(ss, m);
  const tensor::Matrix back = ReadFeatures(ss);
  ASSERT_EQ(back.rows(), 9u);
  ASSERT_EQ(back.cols(), 4u);
  // Text round-trip loses a little precision.
  EXPECT_EQ(m.CountDifferences(back, 1e-4f), 0u);
}

TEST(GraphIoTest, FeaturesRejectRaggedRows) {
  std::stringstream ss("1.0 2.0\n3.0\n");
  EXPECT_THROW(ReadFeatures(ss), std::runtime_error);
}

TEST(GraphIoTest, FeaturesRejectGarbage) {
  std::stringstream ss("1.0 banana\n");
  EXPECT_THROW(ReadFeatures(ss), std::runtime_error);
}

TEST(GraphIoTest, LabelsRoundTrip) {
  const std::vector<std::int32_t> labels = {0, 3, 1, 1, 2};
  std::stringstream ss;
  WriteLabels(ss, labels);
  EXPECT_EQ(ReadLabels(ss), labels);
}

TEST(GraphIoTest, LabelsRejectGarbage) {
  std::stringstream ss("1\ntwo\n");
  EXPECT_THROW(ReadLabels(ss), std::runtime_error);
}

TEST(GraphIoTest, MissingFileThrows) {
  EXPECT_THROW(ReadEdgeListFile("/nonexistent/path/graph.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace nai::io
