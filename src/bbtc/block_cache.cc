#include "bbtc/block_cache.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace xbs
{

BlockCache::BlockCache(const BlockCacheParams &params,
                       StatGroup *parent)
    : StatGroup("blockcache", parent), params_(params)
{
    unsigned frames = params_.capacityUops / params_.blockUops;
    xbs_assert(frames >= params_.ways, "capacity below one set");
    numSets_ = 1u << floorLog2(frames / params_.ways);
    blocks_.resize((std::size_t)numSets_ * params_.ways);
}

std::size_t
BlockCache::setOf(uint64_t ip) const
{
    return (std::size_t)foldedIndex(ip, numSets_, 1);
}

CachedBlock *
BlockCache::find(uint64_t ip)
{
    std::size_t base = setOf(ip) * params_.ways;
    for (unsigned w = 0; w < params_.ways; ++w) {
        CachedBlock &b = blocks_[base + w];
        if (b.valid && b.startIp == ip)
            return &b;
    }
    return nullptr;
}

const CachedBlock *
BlockCache::lookup(uint64_t ip)
{
    ++lookups;
    CachedBlock *b = find(ip);
    if (b) {
        b->lru = ++clock_;
        ++hits;
    }
    return b;
}

const CachedBlock *
BlockCache::probe(uint64_t ip) const
{
    std::size_t base = setOf(ip) * params_.ways;
    for (unsigned w = 0; w < params_.ways; ++w) {
        const CachedBlock &b = blocks_[base + w];
        if (b.valid && b.startIp == ip)
            return &b;
    }
    return nullptr;
}

void
BlockCache::insert(const CachedBlock &block)
{
    xbs_assert(block.valid && !block.insts.empty(),
               "inserting an empty block");
    xbs_assert(block.numUops <= params_.blockUops,
               "block exceeds its frame");
    if (CachedBlock *existing = find(block.startIp)) {
        *existing = block;
        existing->lru = ++clock_;
        return;
    }
    std::size_t base = setOf(block.startIp) * params_.ways;
    CachedBlock *victim = &blocks_[base];
    for (unsigned w = 0; w < params_.ways; ++w) {
        CachedBlock &b = blocks_[base + w];
        if (!b.valid) {
            victim = &b;
            break;
        }
        if (b.lru < victim->lru)
            victim = &b;
    }
    if (victim->valid)
        ++evictions;
    *victim = block;
    victim->lru = ++clock_;
    ++inserts;
}

void
BlockCache::auditStorage(
    const StaticCode &code,
    const std::function<void(AuditViolation)> &sink) const
{
    auto structural = [&](std::string what) {
        AuditViolation v;
        v.kind = AuditViolation::Kind::Structural;
        v.where = "bbtc.blocks";
        v.what = std::move(what);
        sink(std::move(v));
    };

    for (std::size_t set = 0; set < numSets_; ++set) {
        std::size_t base = set * params_.ways;
        for (unsigned w = 0; w < params_.ways; ++w) {
            const CachedBlock &b = blocks_[base + w];
            if (!b.valid)
                continue;
            std::string where = "block " +
                                std::to_string(base + w) + ": ";
            if (b.insts.empty()) {
                structural(where + "valid block with no instructions");
                continue;
            }
            unsigned uops = 0;
            bool indexed_ok = true;
            for (int32_t idx : b.insts) {
                if (idx < 0 || (std::size_t)idx >= code.size()) {
                    structural(where + "out-of-range static index");
                    indexed_ok = false;
                    break;
                }
                uops += code.inst(idx).numUops;
            }
            if (!indexed_ok)
                continue;
            if (b.startIp != code.inst(b.insts.front()).ip)
                structural(where + "tag does not match first inst");
            if (uops != b.numUops)
                structural(where + "stored uop count is stale");
            if (uops > params_.blockUops) {
                structural(where + "block of " + std::to_string(uops) +
                           " uops exceeds its " +
                           std::to_string(params_.blockUops) +
                           "-uop frame");
            }
            // Store-exactly-once: a second same-IP block in the set
            // would silently double pointer targets.
            for (unsigned w2 = w + 1; w2 < params_.ways; ++w2) {
                const CachedBlock &o = blocks_[base + w2];
                if (o.valid && o.startIp == b.startIp)
                    structural(where + "duplicate block for the IP");
            }
        }
    }
}

double
BlockCache::fillFactor() const
{
    uint64_t used = 0, reserved = 0;
    for (const auto &b : blocks_) {
        if (b.valid) {
            used += b.numUops;
            reserved += params_.blockUops;
        }
    }
    return reserved ? (double)used / (double)reserved : 0.0;
}

void
BlockCache::reset()
{
    for (auto &b : blocks_)
        b.clear();
    clock_ = 0;
    resetStats();
}

} // namespace xbs
