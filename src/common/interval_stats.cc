#include "common/interval_stats.hh"

#include "common/json.hh"
#include "common/logging.hh"

namespace xbs
{

IntervalSampler::IntervalSampler(const StatGroup &root,
                                 uint64_t interval)
    : interval_(interval ? interval : 1), nextBoundary_(interval_)
{
    walk(root, "");
    prev_.assign(stats_.size(), 0);
    for (std::size_t i = 0; i < stats_.size(); ++i)
        prev_[i] = stats_[i]->value();

    renamedIdx_ = findPath("frontend.renamedUops");
    deliveryCyclesIdx_ = findPath("frontend.deliveryCycles");
    deliveryUopsIdx_ = findPath("frontend.deliveryUops");
    buildUopsIdx_ = findPath("frontend.buildUops");
}

void
IntervalSampler::walk(const StatGroup &group, const std::string &prefix)
{
    std::string full = prefix + group.statName() + ".";
    for (const StatBase *s : group.stats()) {
        if (const auto *scalar = dynamic_cast<const ScalarStat *>(s)) {
            paths_.push_back(full + s->name());
            stats_.push_back(scalar);
        }
    }
    for (const StatGroup *c : group.children())
        walk(*c, full);
}

std::size_t
IntervalSampler::findPath(const std::string &suffix) const
{
    for (std::size_t i = 0; i < paths_.size(); ++i) {
        const std::string &p = paths_[i];
        if (p.size() >= suffix.size() &&
            p.compare(p.size() - suffix.size(), suffix.size(),
                      suffix) == 0) {
            return i;
        }
    }
    return (std::size_t)-1;
}

uint64_t
IntervalSampler::delta(std::size_t idx) const
{
    if (idx == (std::size_t)-1)
        return 0;
    return stats_[idx]->value() - prev_[idx];
}

void
IntervalSampler::emitWindow(uint64_t start_cycle, uint64_t end_cycle)
{
    if (os_) {
        // Headline window metrics from the not-yet-committed deltas.
        uint64_t d_renamed = delta(renamedIdx_);
        uint64_t d_delivery_cycles = delta(deliveryCyclesIdx_);
        uint64_t d_delivery_uops = delta(deliveryUopsIdx_);
        uint64_t d_build_uops = delta(buildUopsIdx_);
        uint64_t d_total_uops = d_delivery_uops + d_build_uops;

        JsonWriter json(*os_, /*pretty=*/false);
        json.beginObject();
        json.field("interval", windows_);
        json.field("startCycle", start_cycle);
        json.field("endCycle", end_cycle);
        json.field("cycles", end_cycle - start_cycle);
        json.field("bandwidth",
                   d_delivery_cycles
                       ? (double)d_renamed / (double)d_delivery_cycles
                       : 0.0);
        json.field("missRate",
                   d_total_uops
                       ? (double)d_build_uops / (double)d_total_uops
                       : 0.0);
        if (annotator_)
            annotator_(json);
        json.beginObject("deltas");
        for (std::size_t i = 0; i < stats_.size(); ++i) {
            uint64_t d = stats_[i]->value() - prev_[i];
            if (d)
                json.field(paths_[i], d);
        }
        json.endObject();
        json.endObject();
        *os_ << '\n';
    }

    for (std::size_t i = 0; i < stats_.size(); ++i)
        prev_[i] = stats_[i]->value();
    ++windows_;
    windowStart_ = end_cycle;
}

void
IntervalSampler::crossBoundaries(uint64_t cycle)
{
    while (cycle >= nextBoundary_) {
        emitWindow(windowStart_, nextBoundary_);
        nextBoundary_ += interval_;
    }
}

void
IntervalSampler::finish(uint64_t cycle)
{
    if (finished_)
        return;
    finished_ = true;
    tick(cycle);
    // Residual partial window (also emitted when empty so the stream
    // always covers [0, cycle] completely). A run ending exactly on a
    // boundary can still have uncommitted deltas — counters bumped
    // after the boundary tick — which must not be dropped, or the
    // sum-of-windows == aggregate guarantee breaks.
    bool pending = false;
    for (std::size_t i = 0; i < stats_.size() && !pending; ++i)
        pending = stats_[i]->value() != prev_[i];
    if (cycle > windowStart_ || windows_ == 0 || pending)
        emitWindow(windowStart_, cycle);
    if (os_)
        os_->flush();
}

} // namespace xbs
