/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * We use xoshiro256** rather than std::mt19937 so that streams are
 * reproducible across standard-library implementations, and splitmix64
 * for seeding, per the reference implementations by Blackman & Vigna.
 */

#ifndef XBS_COMMON_RANDOM_HH
#define XBS_COMMON_RANDOM_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace xbs
{

/** xoshiro256** generator with convenience draws. */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of @p seed. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** @return the next raw 64-bit draw. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** @return a uniform integer in [0, bound), bound > 0. */
    uint64_t below(uint64_t bound);

    /** @return a uniform integer in [lo, hi] inclusive. */
    int64_t range(int64_t lo, int64_t hi);

    /** @return a uniform double in [0, 1). */
    double uniform() { return (next() >> 11) * 0x1.0p-53; }

    /** @return true with probability @p p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Draw an index from a discrete distribution given by
     * non-negative @p weights (need not be normalized).
     */
    std::size_t weighted(const std::vector<double> &weights);

    /**
     * Geometric-like draw: the mean-@p mean positive integer capped at
     * @p cap. Used for block lengths and loop trip counts.
     */
    uint32_t boundedGeometric(double mean, uint32_t cap);

    /**
     * Zipf-distributed draw over [0, n): rank r with probability
     * proportional to 1/(r+1)^s. Table built lazily per (n, s) call
     * site via ZipfTable; this overload is for small n only.
     */
    std::size_t zipf(std::size_t n, double s);

  private:
    static constexpr uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s_[4];
};

/**
 * Rng::boundedGeometric() at one fixed mean and cap, with the inverse
 * CDF's denominator, log1p(-1/mean), computed once instead of per
 * draw. The draws are the same.
 */
class BoundedGeometric
{
  public:
    BoundedGeometric(double mean, uint32_t cap);

    /** Draw with @p rng. */
    uint32_t
    operator()(Rng &rng) const
    {
        const uint32_t k =
            (uint32_t)std::floor(std::log1p(-rng.uniform()) / denom_) + 1;
        return std::min(k, cap_);
    }

  private:
    double denom_;
    uint32_t cap_;
};

/** Precomputed CDF for repeated Zipf draws over a fixed domain. */
class ZipfTable
{
  public:
    ZipfTable(std::size_t n, double s);

    /** Draw a rank in [0, n) using @p rng. */
    std::size_t sample(Rng &rng) const;

    std::size_t domain() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

} // namespace xbs

#endif // XBS_COMMON_RANDOM_HH
