#pragma once
// Fixed-width field I/O shared by the binary containers (snn/model_io,
// serve/artifact): a field is its raw object image in host byte order, so
// only trivially copyable types without padding belong here.

#include <istream>
#include <ostream>
#include <type_traits>

#include "common/contracts.hpp"

namespace sparkxd {

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Reads one field written by write_pod; throws ContractViolation with
/// `truncated` (the container's own message) when the stream ends first.
template <typename T>
void read_pod(std::istream& is, T& v, const char* truncated) {
  static_assert(std::is_trivially_copyable_v<T>);
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  SPARKXD_REQUIRE(is.good(), truncated);
}

}  // namespace sparkxd
