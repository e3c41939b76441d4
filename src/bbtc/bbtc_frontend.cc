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

void
BbtcFrontend::restartFill()
{
    fillBlock_.clear();
    fillPtrs_.clear();
    fillStartIp_ = 0;
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

namespace
{

void
saveBlock(CkptSink &sink, const CachedBlock &b)
{
    sink.b(b.valid);
    sink.u64(b.startIp);
    sink.u64(b.lru);
    sink.u64(b.insts.size());
    for (int32_t idx : b.insts)
        sink.i32(idx);
    sink.u32(b.numUops);
}

void
loadBlock(CkptSource &src, CachedBlock &b)
{
    b.clear();
    b.valid = src.b();
    b.startIp = src.u64();
    b.lru = src.u64();
    uint64_t n = src.count(4);
    b.insts.reserve(src.ok() ? n : 0);
    for (uint64_t i = 0; src.ok() && i < n; ++i) {
        int32_t idx = src.i32();
        if (src.ok())
            b.insts.push_back(idx);
    }
    b.numUops = src.u32();
}

} // namespace

void
BbtcFrontend::saveState(CheckpointWriter &w) const
{
    Frontend::saveState(w);
    CkptSink sink;
    preds_.ckptSave(sink);
    pipe_.ckptSave(sink);
    blocks_.ckptSave(sink);

    sink.u64(tt_.size());
    for (const TraceEntry &e : tt_) {
        sink.b(e.valid);
        sink.u64(e.startIp);
        sink.u64(e.lru);
        sink.u64(e.blockIps.size());
        for (uint64_t ip : e.blockIps)
            sink.u64(ip);
    }
    sink.u64(ttClock_);

    saveBlock(sink, fillBlock_);
    sink.u64(fillPtrs_.size());
    for (uint64_t ip : fillPtrs_)
        sink.u64(ip);
    sink.u64(fillStartIp_);
    w.addSection("bbtc", sink.take());
}

Status
BbtcFrontend::restoreState(const CheckpointFile &f)
{
    Status st = Frontend::restoreState(f);
    if (!st.isOk())
        return st;
    const std::string *sec = f.section("bbtc");
    if (!sec) {
        return Status::error(StatusCode::Corrupt,
                             "checkpoint lacks a 'bbtc' section");
    }
    CkptSource src(*sec);
    preds_.ckptLoad(src);
    pipe_.ckptLoad(src);
    blocks_.ckptLoad(src);

    uint64_t n = src.count(25);
    src.require(n == tt_.size());
    for (uint64_t i = 0; src.ok() && i < n; ++i) {
        TraceEntry &e = tt_[i];
        e = TraceEntry{};
        e.valid = src.b();
        e.startIp = src.u64();
        e.lru = src.u64();
        // A quota-split step can append two pointers (the split tail
        // plus the ending block) before the trace commits, so a
        // committed entry may hold ptrsPerTrace + 1 pointers.
        uint64_t ni = src.count(8);
        src.require(ni <= bbtcParams_.ptrsPerTrace + 1);
        e.blockIps.reserve(src.ok() ? ni : 0);
        for (uint64_t j = 0; src.ok() && j < ni; ++j) {
            uint64_t ip = src.u64();
            if (src.ok())
                e.blockIps.push_back(ip);
        }
    }
    ttClock_ = src.u64();

    loadBlock(src, fillBlock_);
    fillPtrs_.clear();
    uint64_t np = src.count(8);
    src.require(np <= bbtcParams_.ptrsPerTrace);
    fillPtrs_.reserve(src.ok() ? np : 0);
    for (uint64_t i = 0; src.ok() && i < np; ++i) {
        uint64_t ip = src.u64();
        if (src.ok())
            fillPtrs_.push_back(ip);
    }
    fillStartIp_ = src.u64();
    if (!src.consumed()) {
        return Status::error(StatusCode::Corrupt,
                             "malformed checkpoint 'bbtc' section");
    }
    return Status::ok();
}

void
BbtcFrontend::run(const Trace &trace)
{
    const std::size_t num_records = trace.numRecords();
    std::size_t rec = 0;
    Mode mode = Mode::Build;
    unsigned buffer = 0;
    unsigned stall = 0;
    if (auto resume = takeResume()) {
        rec = (std::size_t)resume->rec;
        mode = resume->mode ? Mode::Delivery : Mode::Build;
        buffer = resume->buffer;
        stall = resume->stall;
    } else {
        restartFill();
        attrib_.enterBuild(Cause::ColdStart);
    }

    while ((rec < num_records || buffer > 0) && !stopRequested()) {
        maybeCheckpoint(rec, mode == Mode::Delivery ? 1 : 0, buffer,
                        stall);
        ++metrics_.cycles;
        metrics_.traceRecords.set(rec);
        observeCycle();

        if (stall > 0) {
            --stall;
            ++metrics_.stallCycles;
            attrib_.chargeSilentCycle();
            buffer -= std::min(buffer, params_.renamerWidth);
            continue;
        }

        if (mode == Mode::Delivery) {
            ++metrics_.deliveryCycles;
            if (buffer < params_.renamerWidth && rec < num_records) {
                ScopedPhase arrayTimer(prof_, phArray_);
                ++traceLookups;
                TraceEntry *e = ttFind(trace.inst(rec).ip);
                if (e) {
                    ++traceHits;
                    e->lru = ++ttClock_;
                    unsigned got = supplyTrace(trace, *e, rec, stall);
                    if (got == 0 && stall == 0 && buffer == 0) {
                        // Hit with nothing usable: rebuild.
                        mode = Mode::Build;
                        ++metrics_.modeSwitches;
                        restartFill();
                        attrib_.enterBuild(Cause::PartialHit);
                        --metrics_.deliveryCycles;
                        continue;
                    }
                    metrics_.deliveryUops += got;
                    buffer += got;
                } else if (buffer == 0) {
                    mode = Mode::Build;
                    ++metrics_.modeSwitches;
                    restartFill();
                    attrib_.enterBuild(Cause::StructMiss);
                    --metrics_.deliveryCycles;
                    continue;
                }
            }
            unsigned drained = std::min(buffer, params_.renamerWidth);
            metrics_.renamedUops += drained;
            buffer -= drained;
        } else {
            ++metrics_.buildCycles;
            attrib_.chargeBuildCycle();
            std::size_t prev = rec;
            ScopedPhase buildTimer(prof_, phBuild_);
            LegacyPipe::Result r = pipe_.cycle(trace, rec);
            metrics_.buildUops += r.uops;
            attrib_.chargeBuildUops(r.uops);
            stall += r.stall;
            bool completed = false;
            for (std::size_t i = prev; i < rec; ++i) {
                oracleConsume(i, kNoTarget, 0);
                completed |= feedFill(trace, i);
            }
            if (completed && rec < num_records &&
                ttFind(trace.inst(rec).ip)) {
                mode = Mode::Delivery;
            }
        }
    }
    metrics_.traceRecords.set(rec);
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
