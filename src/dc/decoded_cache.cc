#include "dc/decoded_cache.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace xbs
{

DecodedCache::DecodedCache(const DecodedCacheParams &params,
                           StatGroup *parent)
    : StatGroup("dc", parent), params_(params)
{
    xbs_assert(isPowerOf2(params_.windowBytes),
               "window bytes must be a power of two");
    xbs_assert(params_.lineUops >= 4, "line too small to be useful");
    unsigned lines = params_.capacityUops / params_.lineUops;
    xbs_assert(lines >= params_.ways, "capacity below one set");
    numSets_ = 1u << floorLog2(lines / params_.ways);
    lines_.resize((std::size_t)numSets_ * params_.ways);
}

uint64_t
DecodedCache::windowOf(uint64_t ip) const
{
    return ip & ~(uint64_t)(params_.windowBytes - 1);
}

std::size_t
DecodedCache::setOf(uint64_t window_ip) const
{
    return (std::size_t)foldedIndex(window_ip / params_.windowBytes,
                                    numSets_, 0);
}

DecodedCache::Line *
DecodedCache::findLine(uint64_t window_ip)
{
    std::size_t base = setOf(window_ip) * params_.ways;
    for (unsigned w = 0; w < params_.ways; ++w) {
        Line &l = lines_[base + w];
        if (l.valid && l.windowIp == window_ip)
            return &l;
    }
    return nullptr;
}

std::pair<const DecodedCache::Line *, std::size_t>
DecodedCache::lookup(uint64_t ip, int32_t entry_idx)
{
    ++lookups;
    Line *l = findLine(windowOf(ip));
    if (!l)
        return {nullptr, 0};
    for (std::size_t i = 0; i < l->insts.size(); ++i) {
        if (l->insts[i].staticIdx == entry_idx) {
            l->lru = ++clock_;
            ++hits;
            return {l, i};
        }
    }
    return {nullptr, 0};
}

void
DecodedCache::fill(const StaticInst &inst, int32_t static_idx)
{
    uint64_t window = windowOf(inst.ip);
    Line *l = findLine(window);
    if (!l) {
        std::size_t base = setOf(window) * params_.ways;
        Line *victim = &lines_[base];
        for (unsigned w = 0; w < params_.ways; ++w) {
            Line &cand = lines_[base + w];
            if (!cand.valid) {
                victim = &cand;
                break;
            }
            if (cand.lru < victim->lru)
                victim = &cand;
        }
        if (victim->valid)
            ++evictions;
        victim->clear();
        victim->valid = true;
        victim->windowIp = window;
        l = victim;
    }
    l->lru = ++clock_;

    for (const auto &di : l->insts) {
        if (di.staticIdx == static_idx)
            return;  // already cached
    }
    if (l->usedUops + inst.numUops > params_.lineUops) {
        ++fragDrops;  // fragmentation: no room in the fixed line
        return;
    }
    l->insts.push_back(DecodedInst{static_idx, inst.numUops});
    l->usedUops += inst.numUops;
    ++fills;
}

double
DecodedCache::fillFactor() const
{
    uint64_t used = 0, reserved = 0;
    for (const auto &l : lines_) {
        if (l.valid) {
            used += l.usedUops;
            reserved += params_.lineUops;
        }
    }
    return reserved ? (double)used / (double)reserved : 0.0;
}

void
DecodedCache::auditStorage(
    const std::function<void(AuditViolation)> &sink) const
{
    auto structural = [&](std::string what) {
        AuditViolation v;
        v.kind = AuditViolation::Kind::Structural;
        v.where = "dc.array";
        v.what = std::move(what);
        sink(std::move(v));
    };

    for (std::size_t i = 0; i < lines_.size(); ++i) {
        const Line &l = lines_[i];
        if (!l.valid)
            continue;
        std::string where = "line " + std::to_string(i) + ": ";
        if (l.windowIp != windowOf(l.windowIp)) {
            structural(where + "unaligned window tag");
            continue;
        }
        unsigned used = 0;
        for (const auto &di : l.insts) {
            if (di.staticIdx < 0 || di.numUops == 0) {
                structural(where + "bad cached instruction");
                break;
            }
            used += di.numUops;
        }
        if (used != l.usedUops)
            structural(where + "stored usedUops is stale");
        if (used > params_.lineUops) {
            structural(where + "line uses " + std::to_string(used) +
                       " of " + std::to_string(params_.lineUops) +
                       " reserved uop slots");
        }
    }
}

void
DecodedCache::reset()
{
    for (auto &l : lines_)
        l.clear();
    clock_ = 0;
    resetStats();
}

} // namespace xbs
