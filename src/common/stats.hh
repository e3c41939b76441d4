/**
 * @file
 * A small statistics package in the spirit of gem5's Stats:
 * named scalar counters, averages, and distributions that register
 * themselves with a StatGroup and can be dumped as text.
 */

#ifndef XBS_COMMON_STATS_HH
#define XBS_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"

namespace xbs
{

class StatGroup;

/** Base class for all statistics; handles naming and registration. */
class StatBase
{
  public:
    StatBase(StatGroup *group, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Print "name value # desc" lines to @p os. */
    virtual void print(std::ostream &os,
                       const std::string &prefix) const = 0;

    /** Emit the statistic as a JSON member. */
    virtual void writeJson(JsonWriter &json) const = 0;

    /** Reset the statistic to its initial state. */
    virtual void reset() = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** Simple monotonically updated counter. */
class ScalarStat : public StatBase
{
  public:
    using StatBase::StatBase;

    ScalarStat &operator++() { ++value_; return *this; }
    ScalarStat &operator+=(uint64_t v) { value_ += v; return *this; }

    ScalarStat &
    operator--()
    {
        // Counters are unsigned: wrapping below zero would silently
        // corrupt every derived metric, so treat it as a simulator
        // bug rather than producing a ~2^64 value.
        xbs_assert(value_ > 0, "stat '%s' decremented below zero",
                   name().c_str());
        --value_;
        return *this;
    }

    void set(uint64_t v) { value_ = v; }

    uint64_t value() const { return value_; }

    void print(std::ostream &os, const std::string &prefix) const override;
    void writeJson(JsonWriter &json) const override
    {
        json.field(name(), value_);
    }
    void reset() override { value_ = 0; }

  private:
    uint64_t value_ = 0;
};

/** Running mean of sampled values. */
class AverageStat : public StatBase
{
  public:
    using StatBase::StatBase;

    void sample(double v) { sum_ += v; ++count_; }

    double mean() const { return count_ ? sum_ / (double)count_ : 0.0; }
    uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    void print(std::ostream &os, const std::string &prefix) const override;
    void writeJson(JsonWriter &json) const override
    {
        json.field(name(), mean());
    }
    void reset() override { sum_ = 0.0; count_ = 0; }

  private:
    double sum_ = 0.0;
    uint64_t count_ = 0;
};

/**
 * Derived statistic: a named formula over other stats, evaluated at
 * dump time. This is how code-only accessors like bandwidth() or
 * missRate() become visible in dump()/dumpJson() output (and
 * findable through StatGroup::find) without being stored anywhere.
 */
class FormulaStat : public StatBase
{
  public:
    using Fn = std::function<double()>;

    FormulaStat(StatGroup *group, std::string name, std::string desc,
                Fn fn)
        : StatBase(group, std::move(name), std::move(desc)),
          fn_(std::move(fn))
    {
    }

    double value() const { return fn_ ? fn_() : 0.0; }

    void print(std::ostream &os, const std::string &prefix) const override;
    void writeJson(JsonWriter &json) const override
    {
        json.field(name(), value());
    }

    /** Formulas carry no state; resetting the ingredients suffices. */
    void reset() override {}

  private:
    Fn fn_;
};

/**
 * Bucketed distribution over [min, max] with fixed-width buckets;
 * values outside the range land in underflow/overflow.
 */
class DistributionStat : public StatBase
{
  public:
    DistributionStat(StatGroup *group, std::string name,
                     std::string desc, double min, double max,
                     double bucket_size);

    void
    sample(double v, uint64_t count = 1)
    {
        samples_ += count;
        sum_ += v * (double)count;
        squares_ += v * v * (double)count;
        if (v < min_) {
            underflow_ += count;
        } else if (v >= max_) {
            overflow_ += count;
        } else {
            auto i = (std::size_t)((v - min_) / bucketSize_);
            if (i >= buckets_.size())
                i = buckets_.size() - 1;
            buckets_[i] += count;
        }
    }

    uint64_t samples() const { return samples_; }
    double mean() const;
    double stddev() const;
    uint64_t bucketCount(std::size_t i) const { return buckets_[i]; }
    std::size_t numBuckets() const { return buckets_.size(); }
    double bucketLow(std::size_t i) const
    {
        return min_ + (double)i * bucketSize_;
    }

    void print(std::ostream &os, const std::string &prefix) const override;
    void writeJson(JsonWriter &json) const override;
    void reset() override;

  private:
    double min_;
    double max_;
    double bucketSize_;
    std::vector<uint64_t> buckets_;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
    uint64_t samples_ = 0;
    double sum_ = 0.0;
    double squares_ = 0.0;
};

/**
 * A named collection of statistics. Groups may nest; a group prints
 * all of its stats (and its children's) with dotted-name prefixes.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    virtual ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Called by StatBase's constructor. */
    void registerStat(StatBase *stat);
    void registerChild(StatGroup *child);
    void unregisterChild(StatGroup *child);

    /** Dump all statistics under this group to @p os. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /** Dump all statistics under this group as a JSON object. */
    void dumpJson(JsonWriter &json, bool as_member = false) const;

    /** Reset all statistics under this group. */
    void resetStats();

    /** Find a stat by dotted path relative to this group, or null. */
    const StatBase *find(const std::string &path) const;

    const std::string &statName() const { return name_; }

    /// @{ Tree iteration (used by the interval-stats sampler).
    const std::vector<StatBase *> &stats() const { return stats_; }
    const std::vector<StatGroup *> &children() const
    {
        return children_;
    }
    /// @}

  private:
    std::string name_;
    StatGroup *parent_;
    std::vector<StatBase *> stats_;
    std::vector<StatGroup *> children_;
};

} // namespace xbs

#endif // XBS_COMMON_STATS_HH
