/**
 * @file
 * Small bit-manipulation helpers used by cache indexing and predictors.
 */

#ifndef XBS_COMMON_BITOPS_HH
#define XBS_COMMON_BITOPS_HH

#include <bit>
#include <cstdint>

#include "common/logging.hh"

namespace xbs
{

/** @return true iff @p v is a power of two (and non-zero). */
constexpr bool
isPowerOf2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** @return floor(log2(v)); v must be non-zero (0 gives 0). */
constexpr unsigned
floorLog2(uint64_t v)
{
    return v ? (unsigned)std::bit_width(v) - 1 : 0;
}

/** @return ceil(log2(v)); v must be non-zero (0 gives 1). */
constexpr unsigned
ceilLog2(uint64_t v)
{
    return isPowerOf2(v) ? floorLog2(v) : floorLog2(v) + 1;
}

/** @return a mask with the low @p n bits set. */
constexpr uint64_t
mask(unsigned n)
{
    return n >= 64 ? ~0ULL : ((1ULL << n) - 1);
}

/** @return bits [first, first+count) of @p v, right justified. */
constexpr uint64_t
bits(uint64_t v, unsigned first, unsigned count)
{
    return (v >> first) & mask(count);
}

/**
 * Fold the upper address bits of @p v into a set index for a structure
 * with @p num_sets (power of two) sets, skipping @p skip_low low bits.
 * XORs successive index-width chunks so hot code that shares high bits
 * still spreads over the sets.
 */
inline uint64_t
foldedIndex(uint64_t v, unsigned num_sets, unsigned skip_low = 0)
{
    xbs_assert(isPowerOf2(num_sets), "num_sets=%u", num_sets);
    const unsigned w = floorLog2(num_sets);
    if (w == 0)
        return 0;
    uint64_t x = v >> skip_low;
    uint64_t idx = 0;
    while (x) {
        idx ^= x & mask(w);
        x >>= w;
    }
    return idx;
}

/** @return the count of set bits in @p v. */
constexpr unsigned
popCount(uint64_t v)
{
    return (unsigned)std::popcount(v);
}

} // namespace xbs

#endif // XBS_COMMON_BITOPS_HH
