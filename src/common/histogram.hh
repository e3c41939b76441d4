/**
 * @file
 * Integer-domain histogram used for block-length distributions
 * (Figure 1) and other small-domain counts. Unlike DistributionStat
 * this is a free-standing value type with exact integer buckets.
 */

#ifndef XBS_COMMON_HISTOGRAM_HH
#define XBS_COMMON_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace xbs
{

class Histogram
{
  public:
    /** Histogram over the integer domain [0, max_value]. */
    explicit Histogram(uint32_t max_value);

    /** Record @p count occurrences of @p value (clamped to domain). */
    void add(uint32_t value, uint64_t count = 1);

    /** Merge another histogram over the same domain. */
    void merge(const Histogram &other);

    uint64_t total() const { return total_; }
    uint64_t count(uint32_t value) const;
    uint32_t maxValue() const { return (uint32_t)bins_.size() - 1; }

    /** Mean of all recorded values. */
    double mean() const;

    /** Fraction of samples equal to @p value. */
    double fraction(uint32_t value) const;

    /** Smallest value v such that cdf(v) >= p, p in [0, 1]. */
    uint32_t percentile(double p) const;

    /// @{ Conventional summary percentiles (rollup reports).
    uint32_t p50() const { return percentile(0.50); }
    uint32_t p95() const { return percentile(0.95); }
    uint32_t p99() const { return percentile(0.99); }
    /// @}

    /** Render as an ASCII bar chart, one row per non-empty bin. */
    std::string render(const std::string &label,
                       unsigned width = 50) const;

    /// @{ Raw accumulator state, for comparing two histograms.
    const std::vector<uint64_t> &bins() const { return bins_; }
    double sumValue() const { return sum_; }
    /// @}

  private:
    std::vector<uint64_t> bins_;
    uint64_t total_ = 0;
    double sum_ = 0.0;
};

} // namespace xbs

#endif // XBS_COMMON_HISTOGRAM_HH
