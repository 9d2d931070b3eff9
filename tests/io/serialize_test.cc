#include "src/io/serialize.h"

#include <limits>
#include <sstream>

#include "gtest/gtest.h"
#include "src/runtime/error.h"
#include "tests/test_util.h"

namespace nai::io {
namespace {

TEST(SerializeTest, ScalarsRoundTrip) {
  std::stringstream ss;
  WriteU64(ss, 0xdeadbeefcafeULL);
  WriteI32(ss, -42);
  WriteF32(ss, 3.25f);
  WriteString(ss, "hello");
  WriteString(ss, "");
  EXPECT_EQ(ReadU64(ss), 0xdeadbeefcafeULL);
  EXPECT_EQ(ReadI32(ss), -42);
  EXPECT_FLOAT_EQ(ReadF32(ss), 3.25f);
  EXPECT_EQ(ReadString(ss), "hello");
  EXPECT_EQ(ReadString(ss), "");
}

TEST(SerializeTest, MatrixRoundTrip) {
  const tensor::Matrix m = nai::testing::RandomMatrix(7, 5, 42);
  std::stringstream ss;
  WriteMatrix(ss, m);
  const tensor::Matrix back = ReadMatrix(ss, 7, 5);
  EXPECT_EQ(m.CountDifferences(back, 0.0f), 0u);
}

TEST(SerializeTest, EmptyMatrixRoundTrip) {
  tensor::Matrix m;
  std::stringstream ss;
  WriteMatrix(ss, m);
  const tensor::Matrix back = ReadMatrix(ss, 0, 0);
  EXPECT_EQ(back.rows(), 0u);
  EXPECT_EQ(back.cols(), 0u);
}

TEST(SerializeTest, HeaderTagChecked) {
  std::stringstream ss;
  WriteHeader(ss, "kind_a");
  EXPECT_THROW(ReadHeader(ss, "kind_b"), std::runtime_error);
}

TEST(SerializeTest, BadMagicRejected) {
  std::stringstream ss;
  ss << "this is not a NAI artifact at all";
  EXPECT_THROW(ReadHeader(ss, "anything"), std::runtime_error);
}

TEST(SerializeTest, TruncatedStreamThrows) {
  std::stringstream ss;
  WriteMatrix(ss, nai::testing::RandomMatrix(4, 4, 1));
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW(ReadMatrix(truncated, 4, 4), std::runtime_error);
}

TEST(SerializeTest, ScalarExtremesRoundTrip) {
  std::stringstream ss;
  WriteU64(ss, 0ULL);
  WriteU64(ss, ~0ULL);
  WriteI32(ss, std::numeric_limits<std::int32_t>::min());
  WriteI32(ss, std::numeric_limits<std::int32_t>::max());
  WriteF32(ss, -0.0f);
  WriteF32(ss, std::numeric_limits<float>::max());
  EXPECT_EQ(ReadU64(ss), 0ULL);
  EXPECT_EQ(ReadU64(ss), ~0ULL);
  EXPECT_EQ(ReadI32(ss), std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(ReadI32(ss), std::numeric_limits<std::int32_t>::max());
  EXPECT_FLOAT_EQ(ReadF32(ss), -0.0f);
  EXPECT_FLOAT_EQ(ReadF32(ss), std::numeric_limits<float>::max());
}

TEST(SerializeTest, ClaimedShapeIsCheckedBeforeAllocating) {
  // 24 bytes whose header claims 2^30 x 16 floats (64 GiB): the reader
  // must refuse the claim, not try to allocate it.
  std::stringstream huge;
  WriteU64(huge, std::uint64_t{1} << 30);
  WriteU64(huge, 16);
  WriteF32(huge, 1.0f);
  WriteF32(huge, 2.0f);
  ASSERT_EQ(huge.str().size(), 24u);
  EXPECT_THROW(ReadMatrix(huge, 4, 16), IoError);

  // A width the caller cannot know (kAnyCols) still pins the rows and
  // caps the width.
  std::stringstream wide;
  WriteU64(wide, 1);
  WriteU64(wide, kAnyCols + 1);
  EXPECT_THROW(ReadMatrix(wide, 1, kAnyCols), IoError);
  std::stringstream tall;
  WriteMatrix(tall, nai::testing::RandomMatrix(2, 3, 5));
  EXPECT_THROW(ReadMatrix(tall, 1, kAnyCols), IoError);
  std::stringstream row;
  WriteMatrix(row, nai::testing::RandomMatrix(1, 3, 5));
  EXPECT_EQ(ReadMatrix(row, 1, kAnyCols).cols(), 3u);
}

TEST(SerializeTest, HeaderAcceptsMatchingTag) {
  std::stringstream ss;
  WriteHeader(ss, "kind_a");
  ReadHeader(ss, "kind_a");  // must not throw
  SUCCEED();
}

}  // namespace
}  // namespace nai::io
