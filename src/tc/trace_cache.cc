#include "tc/trace_cache.hh"

#include <algorithm>

#include "ckpt/serial.hh"
#include "common/bitops.hh"
#include "common/logging.hh"

namespace xbs
{

TraceCache::TraceCache(unsigned capacity_uops, unsigned ways,
                       const TraceLimits &limits, StatGroup *parent)
    : StatGroup("tc", parent), ways_(ways), limits_(limits)
{
    xbs_assert(ways >= 1, "TC needs at least one way");
    unsigned lines = capacity_uops / limits.maxUops;
    xbs_assert(lines >= ways, "TC capacity below one set");
    numSets_ = lines / ways;
    // Round down to a power of two for simple indexing.
    numSets_ = 1u << floorLog2(numSets_);
    lines_.resize((std::size_t)numSets_ * ways_);
}

std::size_t
TraceCache::setOf(uint64_t ip) const
{
    return (std::size_t)foldedIndex(ip, numSets_, 1);
}

std::vector<const TraceLine *>
TraceCache::lookupAll(uint64_t ip)
{
    ++lookups;
    std::vector<const TraceLine *> out;
    std::size_t base = setOf(ip) * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        TraceLine &l = lines_[base + w];
        if (l.valid && l.startIp == ip)
            out.push_back(&l);
    }
    if (!out.empty())
        ++hits;
    return out;
}

void
TraceCache::touch(const TraceLine *line)
{
    // lookupAll hands out pointers into lines_, so the const_cast
    // only strips the constness we added for the caller's benefit.
    const_cast<TraceLine *>(line)->lru = ++clock_;
}

const TraceLine *
TraceCache::lookup(uint64_t ip)
{
    ++lookups;
    std::size_t base = setOf(ip) * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        TraceLine &l = lines_[base + w];
        if (l.valid && l.startIp == ip) {
            l.lru = ++clock_;
            ++hits;
            return &l;
        }
    }
    return nullptr;
}

void
TraceCache::accountInsert(const TraceLine &line, const StaticCode &code)
{
    for (const auto &e : line.insts) {
        const StaticInst &si = code.inst(e.staticIdx);
        for (unsigned s = 0; s < si.numUops; ++s)
            ++residency_[makeUopId(si.ip, s)];
    }
    filledUops_ += line.numUops;
}

void
TraceCache::accountEvict(const TraceLine &line, const StaticCode &code)
{
    for (const auto &e : line.insts) {
        const StaticInst &si = code.inst(e.staticIdx);
        for (unsigned s = 0; s < si.numUops; ++s) {
            auto it = residency_.find(makeUopId(si.ip, s));
            xbs_assert(it != residency_.end() && it->second > 0,
                       "residency underflow");
            if (--it->second == 0)
                residency_.erase(it);
        }
    }
    filledUops_ -= line.numUops;
}

void
TraceCache::insert(const TraceLine &line, const StaticCode &code,
                   bool path_associative)
{
    xbs_assert(line.valid && !line.insts.empty(),
               "inserting an empty trace");
    xbs_assert(line.numUops <= limits_.maxUops, "trace too long");

    std::size_t base = setOf(line.startIp) * ways_;

    // Without path associativity a same-IP resident trace is
    // replaced; with it, only an identical-path trace is refreshed
    // and differing paths coexist in other ways ([Jaco97]).
    TraceLine *victim = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        TraceLine &l = lines_[base + w];
        if (!l.valid || l.startIp != line.startIp)
            continue;
        if (path_associative) {
            bool same_path =
                l.insts.size() == line.insts.size();
            for (std::size_t i = 0; same_path && i < l.insts.size();
                 ++i) {
                same_path = l.insts[i].staticIdx ==
                                line.insts[i].staticIdx &&
                            l.insts[i].taken == line.insts[i].taken;
            }
            if (!same_path)
                continue;
        }
        victim = &l;
        ++replacements;
        break;
    }
    if (!victim) {
        for (unsigned w = 0; w < ways_; ++w) {
            TraceLine &l = lines_[base + w];
            if (!l.valid) {
                victim = &l;
                break;
            }
            if (!victim || l.lru < victim->lru)
                victim = &l;
        }
        if (victim->valid)
            ++evictions;
    }

    if (victim->valid)
        accountEvict(*victim, code);

    *victim = line;
    victim->lru = ++clock_;
    accountInsert(*victim, code);
    ++inserts;
}

double
TraceCache::redundancy() const
{
    uint64_t instances = 0;
    for (const auto &[id, count] : residency_)
        instances += count;
    return residency_.empty()
               ? 1.0
               : (double)instances / (double)residency_.size();
}

double
TraceCache::fillFactor() const
{
    uint64_t reserved = 0;
    for (const auto &l : lines_) {
        if (l.valid)
            reserved += limits_.maxUops;
    }
    return reserved ? (double)filledUops_ / (double)reserved : 0.0;
}

void
TraceCache::auditStorage(
    const StaticCode &code,
    const std::function<void(AuditViolation)> &sink) const
{
    auto report = [&](AuditViolation::Kind kind, std::string what) {
        AuditViolation v;
        v.kind = kind;
        v.where = "tc.array";
        v.what = std::move(what);
        sink(std::move(v));
    };

    uint64_t filled = 0;
    std::unordered_map<UopId, uint32_t> counted;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        const TraceLine &l = lines_[i];
        if (!l.valid)
            continue;
        std::string where = "line " + std::to_string(i) + ": ";
        if (l.insts.empty()) {
            report(AuditViolation::Kind::Structural,
                   where + "valid line with no instructions");
            continue;
        }
        unsigned uops = 0;
        unsigned conds = 0;
        bool indexed_ok = true;
        for (const auto &e : l.insts) {
            if (e.staticIdx < 0 ||
                (std::size_t)e.staticIdx >= code.size()) {
                report(AuditViolation::Kind::Structural,
                       where + "out-of-range static index");
                indexed_ok = false;
                break;
            }
            const StaticInst &si = code.inst(e.staticIdx);
            uops += si.numUops;
            conds += si.cls == InstClass::CondBranch;
        }
        if (!indexed_ok)
            continue;
        if (l.startIp != code.inst(l.insts.front().staticIdx).ip) {
            report(AuditViolation::Kind::Structural,
                   where + "tag does not match the first instruction");
        }
        if (uops != l.numUops || conds != l.numCondBranches) {
            report(AuditViolation::Kind::Structural,
                   where + "stored uop/branch counts are stale");
        }
        if (uops > limits_.maxUops) {
            report(AuditViolation::Kind::Structural,
                   where + "trace of " + std::to_string(uops) +
                       " uops exceeds the " +
                       std::to_string(limits_.maxUops) + "-uop limit");
        }
        if (conds > limits_.maxCondBranches) {
            report(AuditViolation::Kind::Structural,
                   where + "trace holds " + std::to_string(conds) +
                       " conditional branches (limit " +
                       std::to_string(limits_.maxCondBranches) + ")");
        }
        filled += l.numUops;
        for (const auto &e : l.insts) {
            const StaticInst &si = code.inst(e.staticIdx);
            for (unsigned s = 0; s < si.numUops; ++s)
                ++counted[makeUopId(si.ip, s)];
        }
    }
    if (filled != filledUops_) {
        report(AuditViolation::Kind::Accounting,
               "filledUops counter " + std::to_string(filledUops_) +
                   " != physical " + std::to_string(filled));
    }
    if (counted != residency_) {
        report(AuditViolation::Kind::Accounting,
               "residency map disagrees with resident lines");
    }
}

void
ckptSaveTraceLine(CkptSink &sink, const TraceLine &line)
{
    sink.b(line.valid);
    sink.u64(line.startIp);
    sink.u64(line.lru);
    sink.u64(line.insts.size());
    for (const EmbeddedInst &e : line.insts) {
        sink.i32(e.staticIdx);
        sink.u8(e.taken);
    }
    sink.u32(line.numUops);
    sink.u32(line.numCondBranches);
}

void
ckptLoadTraceLine(CkptSource &src, TraceLine &line)
{
    line.clear();
    line.valid = src.b();
    line.startIp = src.u64();
    line.lru = src.u64();
    uint64_t n = src.count(5);
    line.insts.reserve(src.ok() ? n : 0);
    for (uint64_t i = 0; src.ok() && i < n; ++i) {
        EmbeddedInst e;
        e.staticIdx = src.i32();
        e.taken = src.u8();
        if (src.ok())
            line.insts.push_back(e);
    }
    line.numUops = src.u32();
    line.numCondBranches = src.u32();
}

void
TraceCache::ckptSave(CkptSink &sink) const
{
    sink.u64(lines_.size());
    for (const TraceLine &l : lines_)
        ckptSaveTraceLine(sink, l);
    sink.u64(clock_);

    std::vector<std::pair<UopId, uint32_t>> res(residency_.begin(),
                                                residency_.end());
    std::sort(res.begin(), res.end());
    sink.u64(res.size());
    for (const auto &[id, cnt] : res) {
        sink.u64(id);
        sink.u32(cnt);
    }
    sink.u64(filledUops_);
}

void
TraceCache::ckptLoad(CkptSource &src)
{
    uint64_t n = src.count(25);
    src.require(n == lines_.size());
    for (uint64_t i = 0; src.ok() && i < n; ++i)
        ckptLoadTraceLine(src, lines_[i]);
    clock_ = src.u64();

    residency_.clear();
    uint64_t nr = src.count(12);
    for (uint64_t i = 0; src.ok() && i < nr; ++i) {
        UopId id = src.u64();
        uint32_t cnt = src.u32();
        if (src.ok())
            residency_[id] = cnt;
    }
    filledUops_ = src.u64();
}

void
TraceCache::reset()
{
    for (auto &l : lines_)
        l.clear();
    residency_.clear();
    filledUops_ = 0;
    clock_ = 0;
    resetStats();
}

} // namespace xbs
