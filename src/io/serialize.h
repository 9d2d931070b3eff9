#ifndef NAI_IO_SERIALIZE_H_
#define NAI_IO_SERIALIZE_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "src/tensor/matrix.h"

namespace nai::io {

/// Minimal binary serialization for trained models: little-endian POD
/// fields behind a magic/version header. Deliberately simple — the goal is
/// "save the trained pipeline, load it in the serving process", not a
/// general interchange format.
///
/// Wire format of a matrix: u64 rows, u64 cols, rows*cols f32.
/// Every top-level writer starts with WriteHeader(tag) and readers verify
/// it, so mixing up artifact kinds fails loudly instead of mis-parsing.

inline constexpr std::uint32_t kMagic = 0x4e414931;  // "NAI1"

/// Throws nai::IoError (an std::runtime_error) on short reads / bad magic
/// throughout.
void WriteHeader(std::ostream& os, const std::string& tag);
void ReadHeader(std::istream& is, const std::string& expected_tag);

void WriteU64(std::ostream& os, std::uint64_t v);
std::uint64_t ReadU64(std::istream& is);

void WriteI32(std::ostream& os, std::int32_t v);
std::int32_t ReadI32(std::istream& is);

void WriteF32(std::ostream& os, float v);
float ReadF32(std::istream& is);

void WriteString(std::ostream& os, const std::string& s);
std::string ReadString(std::istream& is);

/// Widest matrix ReadMatrix accepts when the caller cannot know the width.
inline constexpr std::size_t kAnyCols = std::size_t{1} << 24;

void WriteMatrix(std::ostream& os, const tensor::Matrix& m);
/// Reads a matrix whose header must claim exactly `rows` x `cols`, or
/// `rows` x (at most kAnyCols) when `cols` is kAnyCols. The claimed shape
/// is checked before anything is allocated, so a corrupt header cannot
/// ask for more memory than the caller expects.
tensor::Matrix ReadMatrix(std::istream& is, std::size_t rows,
                          std::size_t cols);

}  // namespace nai::io

#endif  // NAI_IO_SERIALIZE_H_
