// The digest behind the suites' absolute-bit pins: FNV-1a over a sequence
// of fields. A pin hashes every field of what it pins, so any bit that moves
// changes the digest, and a failing pin prints the new value.
#ifndef UUQ_TESTS_FNV_DIGEST_H_
#define UUQ_TESTS_FNV_DIGEST_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace uuq {

/// FNV-1a over a sequence of fields: doubles by bit pattern, vectors
/// length-prefixed, strings with a terminating NUL.
class Fnv1aDigest {
 public:
  uint64_t value() const { return hash_; }

  void Int(int64_t v) { Bytes(&v, sizeof(v)); }
  void Dbl(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Bytes(&bits, sizeof(bits));
  }
  void Str(const std::string& s) { Bytes(s.c_str(), s.size() + 1); }
  void Vec(const std::vector<double>& v) {
    Int(static_cast<int64_t>(v.size()));
    for (double x : v) Dbl(x);
  }

 private:
  void Bytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001B3ull;
    }
  }

  uint64_t hash_ = 0xCBF29CE484222325ull;
};

}  // namespace uuq

#endif  // UUQ_TESTS_FNV_DIGEST_H_
