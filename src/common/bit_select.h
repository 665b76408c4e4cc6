// BitSelect: a choice between two doubles made on their bit patterns, for
// hot loops whose condition is data-random.
//
// `pick ? a : b` on doubles is what these loops mean, but GCC at the
// baseline x86-64 target compiles it to a conditional jump around a move
// (or around a `pxor` when one arm is 0.0), and `-fno-trapping-math` does
// not change that. When the condition is a coin flip (an entity's first
// touch in a replicate replay, a singleton in a stats fold) that jump
// mispredicts on a large share of the iterations. BitSelect masks the two
// bit patterns instead: integer and/xor on the values' bits, with no jump.
//
// The result is the bits of the chosen operand, whatever they are: ±0,
// ±inf, every NaN payload and a signaling NaN come back unchanged, exactly
// as the ternary returns them. Both operands are always evaluated, so an
// arm that reads a stale value (an untouched accumulator) must be one
// whose result is discarded, never one that traps or is undefined.
#ifndef UUQ_COMMON_BIT_SELECT_H_
#define UUQ_COMMON_BIT_SELECT_H_

#include <cstdint>
#include <cstring>

namespace uuq {

/// `pick ? if_true : if_false`, bit for bit, without a branch.
inline double BitSelect(bool pick, double if_true, double if_false) {
  uint64_t t = 0;
  uint64_t f = 0;
  std::memcpy(&t, &if_true, sizeof(t));
  std::memcpy(&f, &if_false, sizeof(f));
  const uint64_t mask = 0 - static_cast<uint64_t>(pick);  // all ones or 0
  const uint64_t bits = f ^ ((t ^ f) & mask);
  double out = 0.0;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

}  // namespace uuq

#endif  // UUQ_COMMON_BIT_SELECT_H_
