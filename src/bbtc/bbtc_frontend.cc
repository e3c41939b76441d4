#include "bbtc/bbtc_frontend.hh"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "frontend/control.hh"

namespace xbs
{

BbtcFrontend::BbtcFrontend(const FrontendParams &params,
                           const BbtcParams &bbtc_params)
    : Frontend("bbtc", params), bbtcParams_(bbtc_params),
      preds_(params_), pipe_(params_, metrics_, preds_),
      blocks_(bbtc_params.blocks, &root_)
{
    pipe_.attachAttrib(&attrib_);
    ttSets_ = 1u << floorLog2(std::max(
                  1u, bbtcParams_.traceTableEntries /
                          bbtcParams_.traceTableWays));
    tt_.resize((std::size_t)ttSets_ * bbtcParams_.traceTableWays);
    restartFill();
}

BbtcFrontend::TraceEntry *
BbtcFrontend::ttFind(uint64_t ip)
{
    std::size_t base = (std::size_t)foldedIndex(ip, ttSets_, 1) *
                       bbtcParams_.traceTableWays;
    for (unsigned w = 0; w < bbtcParams_.traceTableWays; ++w) {
        TraceEntry &e = tt_[base + w];
        if (e.valid && e.startIp == ip)
            return &e;
    }
    return nullptr;
}

void
BbtcFrontend::ttInsert(uint64_t start_ip,
                       const std::vector<uint64_t> &block_ips)
{
    if (TraceEntry *e = ttFind(start_ip)) {
        e->blockIps = block_ips;  // no path associativity
        e->lru = ++ttClock_;
        return;
    }
    std::size_t base =
        (std::size_t)foldedIndex(start_ip, ttSets_, 1) *
        bbtcParams_.traceTableWays;
    TraceEntry *victim = &tt_[base];
    for (unsigned w = 0; w < bbtcParams_.traceTableWays; ++w) {
        TraceEntry &e = tt_[base + w];
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lru < victim->lru)
            victim = &e;
    }
    victim->valid = true;
    victim->startIp = start_ip;
    victim->blockIps = block_ips;
    victim->lru = ++ttClock_;
}

bool
BbtcFrontend::feedFill(const Trace &trace, std::size_t rec)
{
    const StaticInst &si = trace.inst(rec);
    const int32_t idx = trace.record(rec).staticIdx;

    if (!fillBlock_.valid) {
        fillBlock_.valid = true;
        fillBlock_.startIp = si.ip;
        if (fillPtrs_.empty())
            fillStartIp_ = si.ip;
    }

    // A block ends at any control instruction or at its frame size.
    if (fillBlock_.numUops + si.numUops >
        bbtcParams_.blocks.blockUops) {
        blocks_.insert(fillBlock_);
        fillPtrs_.push_back(fillBlock_.startIp);
        fillBlock_.clear();
        fillBlock_.valid = true;
        fillBlock_.startIp = si.ip;
    }

    fillBlock_.insts.push_back(idx);
    fillBlock_.numUops += si.numUops;

    bool block_ends = si.isControl();
    bool trace_ends = false;
    if (block_ends) {
        blocks_.insert(fillBlock_);
        fillPtrs_.push_back(fillBlock_.startIp);
        fillBlock_.clear();
        trace_ends = si.endsTrace() ||
                     fillPtrs_.size() >= bbtcParams_.ptrsPerTrace;
    } else if (fillPtrs_.size() >= bbtcParams_.ptrsPerTrace) {
        trace_ends = true;
    }

    if (trace_ends && !fillPtrs_.empty()) {
        ttInsert(fillStartIp_, fillPtrs_);
        fillPtrs_.clear();
        // A quota-split may already have opened the next trace's
        // first block.
        fillStartIp_ = fillBlock_.valid ? fillBlock_.startIp : 0;
        return true;
    }
    return false;
}

unsigned
BbtcFrontend::supplyTrace(const Trace &trace, const TraceEntry &entry,
                          std::size_t &rec, unsigned &stall)
{
    unsigned supplied = 0;
    bool full = true;
    attrib_.clearDisruption();

    for (uint64_t block_ip : entry.blockIps) {
        if (rec >= trace.numRecords())
            break;
        if (trace.inst(rec).ip != block_ip) {
            // Path divergence at block granularity: partial hit.
            full = false;
            attrib_.noteDisruption(Cause::PartialHit);
            break;
        }
        const CachedBlock *blk = blocks_.lookup(block_ip);
        if (!blk) {
            // Pointer names an evicted block: supply stops; the
            // remainder comes from the legacy path.
            ++blockMisses;
            full = false;
            attrib_.noteDisruption(Cause::StructMiss);
            break;
        }

        bool diverged = false;
        for (int32_t bidx : blk->insts) {
            if (rec >= trace.numRecords() ||
                trace.record(rec).staticIdx != bidx) {
                diverged = true;
                attrib_.noteDisruption(Cause::PartialHit);
                break;
            }
            const StaticInst &si = trace.inst(rec);
            unsigned penalty = 0;
            if (si.isControl()) {
                penalty = predictControl(params_, metrics_, preds_,
                                         trace, rec,
                                         /*legacy_path=*/false,
                                         &attrib_);
            }
            oracleConsume(rec, bidx, si.numUops);
            supplied += si.numUops;
            ++rec;
            if (penalty > 0) {
                stall += penalty;
                diverged = true;
                break;
            }
        }
        if (diverged || stall > 0) {
            full = false;
            break;
        }
    }

    if (!full)
        ++partialHits;
    return supplied;
}

inline Frontend::Supply
BbtcFrontend::deliver(const Trace &trace, std::size_t &rec,
                      unsigned &stall, unsigned)
{
    ++traceLookups;
    TraceEntry *e = ttFind(trace.inst(rec).ip);
    if (!e)
        return {0, true, Cause::StructMiss};
    ++traceHits;
    e->lru = ++ttClock_;
    const unsigned got = supplyTrace(trace, *e, rec, stall);
    // A hit with nothing usable rebuilds.
    return {got, got == 0 && stall == 0, Cause::PartialHit};
}

inline bool
BbtcFrontend::fill(const Trace &trace, std::size_t first,
                   std::size_t end)
{
    bool completed = false;
    for (std::size_t i = first; i < end; ++i)
        completed |= feedFill(trace, i);
    return completed && end < trace.numRecords() &&
           ttFind(trace.inst(end).ip);
}

void
BbtcFrontend::run(const Trace &trace)
{
    runCycles(*this, trace, phArray_);
}

double
BbtcFrontend::pointerRedundancy() const
{
    std::unordered_map<uint64_t, uint32_t> counts;
    for (const auto &e : tt_) {
        if (!e.valid)
            continue;
        for (uint64_t ip : e.blockIps)
            ++counts[ip];
    }
    if (counts.empty())
        return 1.0;
    uint64_t total = 0;
    for (const auto &[ip, c] : counts)
        total += c;
    return (double)total / (double)counts.size();
}

} // namespace xbs
