#include "src/graph/csr.h"

#include "gtest/gtest.h"
#include "src/tensor/ops.h"
#include "tests/test_util.h"

namespace nai::graph {
namespace {

using nai::testing::ExpectMatrixNear;
using nai::testing::RandomMatrix;

TEST(CsrTest, SpMMIsLinear) {
  // SpMM(A, x + y) == SpMM(A, x) + SpMM(A, y): the engine's incremental
  // propagation paths rely on this.
  const Csr c = CsrFromTriplets(
      4, 4, {{0, 1, 0.5f}, {1, 2, -1.0f}, {2, 0, 2.0f}, {3, 3, 1.0f}});
  const tensor::Matrix x = RandomMatrix(4, 3, 70);
  const tensor::Matrix y = RandomMatrix(4, 3, 71);
  tensor::Matrix sum(4, 3);
  for (std::size_t i = 0; i < sum.size(); ++i) {
    sum.data()[i] = x.data()[i] + y.data()[i];
  }
  const tensor::Matrix ax = SpMM(c, x);
  const tensor::Matrix ay = SpMM(c, y);
  tensor::Matrix expected(4, 3);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected.data()[i] = ax.data()[i] + ay.data()[i];
  }
  ExpectMatrixNear(SpMM(c, sum), expected, 1e-5f);
}

TEST(CsrTest, TransposeOfEmpty) {
  const Csr c = CsrFromTriplets(3, 5, {});
  const Csr t = Transpose(c);
  EXPECT_TRUE(t.Validate());
  EXPECT_EQ(t.rows, 5);
  EXPECT_EQ(t.cols, 3);
  EXPECT_EQ(t.nnz(), 0);
}

Csr SmallCsr() {
  // 3x3: [[0, 1, 0], [2, 0, 3], [0, 0, 4]]
  return CsrFromTriplets(3, 3,
                         {{0, 1, 1.0f}, {1, 0, 2.0f}, {1, 2, 3.0f},
                          {2, 2, 4.0f}});
}

TEST(CsrTest, FromTripletsBasic) {
  const Csr c = SmallCsr();
  EXPECT_TRUE(c.Validate());
  EXPECT_EQ(c.nnz(), 4);
  EXPECT_EQ(c.RowNnz(0), 1);
  EXPECT_EQ(c.RowNnz(1), 2);
  EXPECT_EQ(c.RowNnz(2), 1);
  const tensor::Matrix d = ToDense(c);
  EXPECT_FLOAT_EQ(d.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(d.at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(d.at(1, 2), 3.0f);
  EXPECT_FLOAT_EQ(d.at(2, 2), 4.0f);
}

TEST(CsrTest, DuplicateTripletsSum) {
  const Csr c =
      CsrFromTriplets(2, 2, {{0, 0, 1.0f}, {0, 0, 2.5f}, {1, 1, 1.0f}});
  EXPECT_TRUE(c.Validate());
  EXPECT_EQ(c.nnz(), 2);
  EXPECT_FLOAT_EQ(ToDense(c).at(0, 0), 3.5f);
}

TEST(CsrTest, EmptyMatrix) {
  const Csr c = CsrFromTriplets(4, 4, {});
  EXPECT_TRUE(c.Validate());
  EXPECT_EQ(c.nnz(), 0);
  EXPECT_EQ(c.RowNnz(3), 0);
}

TEST(CsrTest, ValidateCatchesBrokenRowPtr) {
  Csr c = SmallCsr();
  c.row_ptr[1] = 99;
  EXPECT_FALSE(c.Validate());
}

TEST(CsrTest, ValidateCatchesOutOfRangeColumn) {
  Csr c = SmallCsr();
  c.col_idx[0] = 5;
  EXPECT_FALSE(c.Validate());
}

TEST(CsrTest, SpMMIdentity) {
  // Identity CSR leaves the dense side unchanged.
  std::vector<Triplet> eye;
  for (std::int32_t i = 0; i < 5; ++i) eye.push_back({i, i, 1.0f});
  const Csr id = CsrFromTriplets(5, 5, eye);
  const tensor::Matrix x = RandomMatrix(5, 3, 42);
  ExpectMatrixNear(SpMM(id, x), x, 1e-6f);
}

TEST(CsrTest, SpMMMatchesDense) {
  const Csr c = SmallCsr();
  const tensor::Matrix x = RandomMatrix(3, 4, 7);
  const tensor::Matrix expected = tensor::MatMul(ToDense(c), x);
  ExpectMatrixNear(SpMM(c, x), expected, 1e-4f);
}

// Property sweep: random sparse matrices match dense multiply.
class SpMMProperty : public ::testing::TestWithParam<int> {};

TEST_P(SpMMProperty, MatchesDense) {
  const int n = GetParam();
  tensor::Rng rng(1000 + n);
  std::vector<Triplet> trips;
  for (int i = 0; i < n * 4; ++i) {
    trips.push_back({static_cast<std::int32_t>(rng.NextBounded(n)),
                     static_cast<std::int32_t>(rng.NextBounded(n)),
                     rng.NextGaussian()});
  }
  const Csr c = CsrFromTriplets(n, n, trips);
  ASSERT_TRUE(c.Validate());
  const tensor::Matrix x = RandomMatrix(n, 6, 2000 + n);
  ExpectMatrixNear(SpMM(c, x), tensor::MatMul(ToDense(c), x), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpMMProperty,
                         ::testing::Values(1, 2, 7, 16, 33, 100));

TEST(CsrTest, SpMMPrefixOnlyTouchesPrefix) {
  const Csr c = SmallCsr();
  const tensor::Matrix x = RandomMatrix(3, 4, 9);
  tensor::Matrix out(3, 4);
  out.Fill(-99.0f);
  SpMMPrefix(c, x, 2, out);
  const tensor::Matrix full = SpMM(c, x);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(out.at(0, j), full.at(0, j));
    EXPECT_FLOAT_EQ(out.at(1, j), full.at(1, j));
    EXPECT_FLOAT_EQ(out.at(2, j), -99.0f);  // untouched
  }
}

TEST(CsrTest, SpMMRowsOnlyTouchesListed) {
  const Csr c = SmallCsr();
  const tensor::Matrix x = RandomMatrix(3, 4, 10);
  tensor::Matrix out(3, 4);
  out.Fill(-1.0f);
  SpMMRows(c, x, {2, 0}, out);
  const tensor::Matrix full = SpMM(c, x);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(out.at(0, j), full.at(0, j));
    EXPECT_FLOAT_EQ(out.at(1, j), -1.0f);
    EXPECT_FLOAT_EQ(out.at(2, j), full.at(2, j));
  }
}

TEST(CsrTest, SpMMMappedGatherMatchesSpMMRowsBitExactly) {
  // Listed rows land compactly in list order; each equals the full SpMM
  // row bit for bit, with sources read through a permuted local mapping.
  const Csr c = SmallCsr();
  const tensor::Matrix x = RandomMatrix(3, 5, 11);
  const std::vector<std::int32_t> nodes = {2, 0, 1};  // local -> global
  std::vector<std::int32_t> g2l(3);
  std::vector<const float*> src(3);
  for (std::int32_t l = 0; l < 3; ++l) {
    g2l[nodes[l]] = l;
    src[l] = x.row(nodes[l]);
  }
  const std::vector<std::int32_t> rows = {1, 0};  // globals 0, 2
  tensor::Matrix out(2, 5);
  out.Fill(-7.0f);
  SpMMMappedGather(c.view(), nodes, g2l, src, rows, 5, out.data());
  const tensor::Matrix full = SpMM(c, x);
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(out.at(0, j), full.at(0, j));
    EXPECT_EQ(out.at(1, j), full.at(2, j));
  }
}

TEST(CsrTest, TransposeInvolution) {
  const Csr c = SmallCsr();
  const Csr tt = Transpose(Transpose(c));
  EXPECT_TRUE(tt.Validate());
  ExpectMatrixNear(ToDense(tt), ToDense(c), 0.0f);
}

TEST(CsrTest, TransposeMatchesDense) {
  const Csr c = SmallCsr();
  const Csr t = Transpose(c);
  EXPECT_TRUE(t.Validate());
  const tensor::Matrix d = ToDense(c);
  const tensor::Matrix dt = ToDense(t);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_FLOAT_EQ(dt.at(j, i), d.at(i, j));
    }
  }
}

TEST(CsrTest, InducedSubmatrix) {
  const Csr c = SmallCsr();
  const std::vector<std::int32_t> ids = {1, 2};
  std::vector<std::int32_t> g2l(3, -1);
  g2l[1] = 0;
  g2l[2] = 1;
  const Csr sub = InducedSubmatrix(c, ids, g2l);
  EXPECT_TRUE(sub.Validate());
  // Dense sub = [[0, 3], [0, 4]]
  const tensor::Matrix d = ToDense(sub);
  EXPECT_FLOAT_EQ(d.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(d.at(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(d.at(1, 1), 4.0f);
}

// Serial-vs-parallel bit-exactness across every SpMM variant: chunking the
// row loop must never change the per-row accumulation order, so results are
// bit-identical for any thread count.
TEST(CsrTest, AllSpMMVariantsBitExactAcrossThreadCounts) {
  const std::int64_t n = 257;
  std::vector<Triplet> triplets;
  std::uint32_t state = 12345;
  auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return state;
  };
  for (int e = 0; e < 2500; ++e) {
    Triplet t;
    t.row = static_cast<std::int32_t>(next() % n);
    t.col = static_cast<std::int32_t>(next() % n);
    t.value = static_cast<float>(next() % 1000) / 250.0f - 2.0f;
    triplets.push_back(t);
  }
  const Csr c = CsrFromTriplets(n, n, std::move(triplets));
  const tensor::Matrix dense = RandomMatrix(n, 19, 404);

  // Identity mapping makes the mapped variants exercise the same math.
  std::vector<std::int32_t> nodes(n), g2l(n);
  for (std::int64_t i = 0; i < n; ++i) {
    nodes[i] = static_cast<std::int32_t>(i);
    g2l[i] = static_cast<std::int32_t>(i);
  }
  std::vector<std::int32_t> row_list;
  for (std::int64_t i = 0; i < n; i += 3) {
    row_list.push_back(static_cast<std::int32_t>(i));
  }
  const std::int64_t limit = n - 40;

  auto run_all = [&] {
    std::vector<tensor::Matrix> out;
    out.push_back(SpMM(c, dense));
    tensor::Matrix prefix(n, dense.cols());
    SpMMPrefix(c, dense, limit, prefix);
    out.push_back(std::move(prefix));
    tensor::Matrix rows(n, dense.cols());
    SpMMRows(c, dense, row_list, rows);
    out.push_back(std::move(rows));
    tensor::Matrix mapped_prefix(n, dense.cols());
    SpMMMappedPrefix(c, nodes, g2l, dense, limit, mapped_prefix);
    out.push_back(std::move(mapped_prefix));
    std::vector<const float*> src(n);
    for (std::int64_t i = 0; i < n; ++i) src[i] = dense.row(i);
    tensor::Matrix gathered(row_list.size(), dense.cols());
    SpMMMappedGather(c.view(), nodes, g2l, src, row_list, dense.cols(),
                     gathered.data());
    out.push_back(std::move(gathered));
    return out;
  };

  runtime::ThreadPool::SetDefaultThreads(1);
  const std::vector<tensor::Matrix> serial = run_all();
  for (const int threads : {2, 8}) {
    runtime::ThreadPool::SetDefaultThreads(threads);
    const std::vector<tensor::Matrix> parallel = run_all();
    for (std::size_t v = 0; v < serial.size(); ++v) {
      for (std::size_t i = 0; i < serial[v].size(); ++i) {
        ASSERT_EQ(parallel[v].data()[i], serial[v].data()[i])
            << "variant " << v << " threads " << threads;
      }
    }
  }
  runtime::ThreadPool::SetDefaultThreads(0);
}

TEST(CsrTest, InducedSubmatrixNonMonotoneOrder) {
  const Csr c = SmallCsr();
  const std::vector<std::int32_t> ids = {2, 0, 1};  // permuted
  std::vector<std::int32_t> g2l(3, -1);
  for (std::size_t i = 0; i < ids.size(); ++i) g2l[ids[i]] = i;
  const Csr sub = InducedSubmatrix(c, ids, g2l);
  EXPECT_TRUE(sub.Validate());
  const tensor::Matrix orig = ToDense(c);
  const tensor::Matrix d = ToDense(sub);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_FLOAT_EQ(d.at(i, j), orig.at(ids[i], ids[j]));
    }
  }
}

}  // namespace
}  // namespace nai::graph
