#include "src/io/serialize.h"

#include "src/runtime/error.h"

#include <stdexcept>

namespace nai::io {

namespace {

void WriteBytes(std::ostream& os, const void* data, std::size_t n) {
  os.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  if (!os) throw IoError("nai::io: write failed");
}

void ReadBytes(std::istream& is, void* data, std::size_t n) {
  is.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(is.gcount()) != n) {
    throw IoError("nai::io: short read / truncated stream");
  }
}

}  // namespace

void WriteHeader(std::ostream& os, const std::string& tag) {
  std::uint32_t magic = kMagic;
  WriteBytes(os, &magic, sizeof(magic));
  WriteString(os, tag);
}

void ReadHeader(std::istream& is, const std::string& expected_tag) {
  std::uint32_t magic = 0;
  ReadBytes(is, &magic, sizeof(magic));
  if (magic != kMagic) {
    throw IoError("nai::io: bad magic (not a NAI artifact)");
  }
  const std::string tag = ReadString(is);
  if (tag != expected_tag) {
    throw IoError("nai::io: artifact kind mismatch: expected '" +
                             expected_tag + "', found '" + tag + "'");
  }
}

void WriteU64(std::ostream& os, std::uint64_t v) {
  WriteBytes(os, &v, sizeof(v));
}

std::uint64_t ReadU64(std::istream& is) {
  std::uint64_t v = 0;
  ReadBytes(is, &v, sizeof(v));
  return v;
}

void WriteI32(std::ostream& os, std::int32_t v) {
  WriteBytes(os, &v, sizeof(v));
}

std::int32_t ReadI32(std::istream& is) {
  std::int32_t v = 0;
  ReadBytes(is, &v, sizeof(v));
  return v;
}

void WriteF32(std::ostream& os, float v) { WriteBytes(os, &v, sizeof(v)); }

float ReadF32(std::istream& is) {
  float v = 0.0f;
  ReadBytes(is, &v, sizeof(v));
  return v;
}

void WriteString(std::ostream& os, const std::string& s) {
  WriteU64(os, s.size());
  if (!s.empty()) WriteBytes(os, s.data(), s.size());
}

std::string ReadString(std::istream& is) {
  const std::uint64_t n = ReadU64(is);
  if (n > (1ull << 20)) {
    throw IoError("nai::io: implausible string length");
  }
  std::string s(n, '\0');
  if (n > 0) ReadBytes(is, s.data(), n);
  return s;
}

void WriteMatrix(std::ostream& os, const tensor::Matrix& m) {
  WriteU64(os, m.rows());
  WriteU64(os, m.cols());
  if (m.size() > 0) WriteBytes(os, m.data(), m.size() * sizeof(float));
}

tensor::Matrix ReadMatrix(std::istream& is, std::size_t rows,
                          std::size_t cols) {
  const std::uint64_t stored_rows = ReadU64(is);
  const std::uint64_t stored_cols = ReadU64(is);
  const bool cols_ok = cols == kAnyCols ? stored_cols <= kAnyCols
                                        : stored_cols == cols;
  if (stored_rows != rows || !cols_ok) {
    const std::string want_cols =
        cols == kAnyCols ? std::string("any") : std::to_string(cols);
    throw IoError("nai::io: stored matrix is " + std::to_string(stored_rows) +
                  " x " + std::to_string(stored_cols) + ", expected " +
                  std::to_string(rows) + " x " + want_cols);
  }
  tensor::Matrix m(stored_rows, stored_cols);
  if (m.size() > 0) ReadBytes(is, m.data(), m.size() * sizeof(float));
  return m;
}

}  // namespace nai::io
