#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>

#include "common/logging.hh"

namespace xbs
{

StatBase::StatBase(StatGroup *group, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    xbs_assert(group != nullptr, "stat '%s' needs a group",
               name_.c_str());
    group->registerStat(this);
}

void
ScalarStat::print(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(44) << (prefix + name())
       << std::right << std::setw(16) << value_
       << "  # " << desc() << "\n";
}

void
AverageStat::print(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(44) << (prefix + name())
       << std::right << std::setw(16) << std::fixed
       << std::setprecision(4) << mean()
       << "  # " << desc() << "\n";
}

void
FormulaStat::print(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(44) << (prefix + name())
       << std::right << std::setw(16) << std::fixed
       << std::setprecision(4) << value()
       << "  # " << desc() << "\n";
}

DistributionStat::DistributionStat(StatGroup *group, std::string name,
                                   std::string desc, double min,
                                   double max, double bucket_size)
    : StatBase(group, std::move(name), std::move(desc)),
      min_(min), max_(max), bucketSize_(bucket_size)
{
    xbs_assert(max_ > min_ && bucketSize_ > 0.0,
               "bad distribution bounds");
    std::size_t n = (std::size_t)std::ceil((max_ - min_) / bucketSize_);
    buckets_.assign(std::max<std::size_t>(n, 1), 0);
}

double
DistributionStat::mean() const
{
    return samples_ ? sum_ / (double)samples_ : 0.0;
}

double
DistributionStat::stddev() const
{
    if (samples_ < 2)
        return 0.0;
    double m = mean();
    double var = squares_ / (double)samples_ - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

void
DistributionStat::print(std::ostream &os,
                        const std::string &prefix) const
{
    os << std::left << std::setw(44) << (prefix + name() + "::mean")
       << std::right << std::setw(16) << std::fixed
       << std::setprecision(4) << mean()
       << "  # " << desc() << "\n";
    os << std::left << std::setw(44) << (prefix + name() + "::stdev")
       << std::right << std::setw(16) << stddev() << "\n";
    os << std::left << std::setw(44) << (prefix + name() + "::samples")
       << std::right << std::setw(16) << samples_ << "\n";
    if (underflow_) {
        os << std::left << std::setw(44)
           << (prefix + name() + "::underflow")
           << std::right << std::setw(16) << underflow_ << "\n";
    }
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (!buckets_[i])
            continue;
        os << std::left << std::setw(44)
           << (prefix + name() + "::" + std::to_string((long long)
                   bucketLow(i)))
           << std::right << std::setw(16) << buckets_[i] << "\n";
    }
    if (overflow_) {
        os << std::left << std::setw(44)
           << (prefix + name() + "::overflow")
           << std::right << std::setw(16) << overflow_ << "\n";
    }
}

void
DistributionStat::writeJson(JsonWriter &json) const
{
    json.beginObject(name());
    json.field("mean", mean());
    json.field("stdev", stddev());
    json.field("samples", samples_);
    json.endObject();
}

void
DistributionStat::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    underflow_ = overflow_ = samples_ = 0;
    sum_ = squares_ = 0.0;
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name_(std::move(name)), parent_(parent)
{
    if (parent_)
        parent_->registerChild(this);
}

StatGroup::~StatGroup()
{
    if (parent_)
        parent_->unregisterChild(this);
}

void
StatGroup::registerStat(StatBase *stat)
{
    stats_.push_back(stat);
}

void
StatGroup::registerChild(StatGroup *child)
{
    children_.push_back(child);
}

void
StatGroup::unregisterChild(StatGroup *child)
{
    auto it = std::find(children_.begin(), children_.end(), child);
    if (it != children_.end())
        children_.erase(it);
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    std::string full = prefix.empty() ? name_ + "."
                                      : prefix + name_ + ".";
    for (const auto *s : stats_)
        s->print(os, full);
    for (const auto *c : children_)
        c->dump(os, full);
}

void
StatGroup::dumpJson(JsonWriter &json, bool as_member) const
{
    if (as_member)
        json.beginObject(name_);
    else
        json.beginObject();
    for (const auto *s : stats_)
        s->writeJson(json);
    for (const auto *c : children_)
        c->dumpJson(json, /*as_member=*/true);
    json.endObject();
}

void
StatGroup::resetStats()
{
    for (auto *s : stats_)
        s->reset();
    for (auto *c : children_)
        c->resetStats();
}

const StatBase *
StatGroup::find(const std::string &path) const
{
    auto dot = path.find('.');
    if (dot == std::string::npos) {
        for (const auto *s : stats_) {
            if (s->name() == path)
                return s;
        }
        return nullptr;
    }
    std::string head = path.substr(0, dot);
    std::string rest = path.substr(dot + 1);
    for (const auto *c : children_) {
        if (c->statName() == head)
            return c->find(rest);
    }
    return nullptr;
}

} // namespace xbs
