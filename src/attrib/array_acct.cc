#include "attrib/array_acct.hh"

#include <algorithm>

#include "common/json.hh"

namespace xbs
{

namespace
{

constexpr uint32_t kBuildToFirstHitMax = 4096;
constexpr uint32_t kHitsBeforeEvictMax = 512;

void
writeHeat(JsonWriter &json, const std::string &key,
          const std::vector<uint64_t> &heat, unsigned banks,
          std::size_t sets)
{
    json.beginArray(key);
    for (unsigned b = 0; b < banks; ++b) {
        json.beginArray();
        for (std::size_t s = 0; s < sets; ++s)
            json.field("", heat[(std::size_t)b * sets + s]);
        json.endArray();
    }
    json.endArray();
}

void
writeHistSummary(JsonWriter &json, const std::string &key,
                 const Histogram &h)
{
    json.beginObject(key);
    json.field("samples", h.total());
    json.field("mean", h.mean());
    json.field("p50", (uint64_t)h.p50());
    json.field("p95", (uint64_t)h.p95());
    json.field("p99", (uint64_t)h.p99());
    json.endObject();
}

} // namespace

ArrayAccounting::ArrayAccounting(StatGroup *parent,
                                 const ScalarStat *cycles,
                                 unsigned banks, std::size_t sets,
                                 std::size_t lines)
    : StatGroup("array", parent),
      headEvictions(this, "headEvictions",
                    "evicted lines that headed a variant"),
      nonHeadEvictions(this, "nonHeadEvictions",
                       "evicted lines that headed no variant"),
      zeroHitEvictions(this, "zeroHitEvictions",
                       "XBs evicted before their first delivery hit"),
      cycles_(cycles),
      banks_(banks),
      sets_(sets),
      shadowCapacity_(lines),
      allocHeat_((std::size_t)banks * sets, 0),
      evictHeat_((std::size_t)banks * sets, 0),
      conflictHeat_((std::size_t)banks * sets, 0),
      buildToFirstHit_(kBuildToFirstHitMax),
      hitsBeforeEvict_(kHitsBeforeEvictMax)
{
    constexpr unsigned kInitialSlotsLog2 = 10;
    slots_.assign(std::size_t{1} << kInitialSlotsLog2, Slot{});
    shift_ = 64 - kInitialSlotsLog2;
}

ArrayAccounting::Slot &
ArrayAccounting::slotFor(uint64_t tag)
{
    if (2 * (usedSlots_ + 1) > slots_.size()) {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        --shift_;
        const std::size_t m = slots_.size() - 1;
        for (const Slot &s : old) {
            if (!s.used)
                continue;
            std::size_t i = home(s.tag);
            while (slots_[i].used)
                i = (i + 1) & m;
            slots_[i] = s;
        }
    }
    const std::size_t m = slots_.size() - 1;
    std::size_t i = home(tag);
    while (slots_[i].used && slots_[i].tag != tag)
        i = (i + 1) & m;
    Slot &s = slots_[i];
    if (!s.used) {
        s.used = true;
        s.tag = tag;
        ++usedSlots_;
    }
    return s;
}

ArrayAccounting::Rec &
ArrayAccounting::recFor(Slot &s)
{
    if (s.rec == kNone) {
        if (freeRec_ != kNone) {
            s.rec = freeRec_;
            freeRec_ = recs_[freeRec_].older;
        } else {
            s.rec = (uint32_t)recs_.size();
            recs_.emplace_back();
        }
        recs_[s.rec] = Rec{};
        recs_[s.rec].tag = s.tag;
    }
    return recs_[s.rec];
}

void
ArrayAccounting::releaseIfIdle(Slot &s)
{
    Rec &r = recs_[s.rec];
    if (r.live || r.shadowed)
        return;
    r.older = freeRec_;
    freeRec_ = s.rec;
    s.rec = kNone;
}

void
ArrayAccounting::onAlloc(uint64_t tag, unsigned bank, std::size_t set)
{
    // Every fresh line of an XB opens (or refreshes) its lifetime
    // record; a live record keeps its original build stamp for
    // multi-line XBs and extensions.
    onBuild(tag);
    ++allocHeat_[cell(bank, set)];
}

void
ArrayAccounting::onEvict(uint64_t tag, unsigned bank, std::size_t set,
                         bool head, bool last_gone)
{
    ++evictHeat_[cell(bank, set)];
    if (head)
        ++headEvictions;
    else
        ++nonHeadEvictions;

    if (!last_gone)
        return;

    Slot &s = slotFor(tag);
    Rec &r = recFor(s);
    if (r.live) {
        hitsBeforeEvict_.add(
            (uint32_t)std::min<uint64_t>(r.hits, kHitsBeforeEvictMax));
        if (r.hits == 0)
            ++zeroHitEvictions;
        r.live = false;
        --liveTags_;
    }
    shadowInsert(s);
}

void
ArrayAccounting::onConflict(unsigned bank, std::size_t set)
{
    ++conflictHeat_[cell(bank, set)];
}

void
ArrayAccounting::onBuild(uint64_t tag)
{
    Slot &s = slotFor(tag);
    s.built = true;
    Rec &r = recFor(s);
    if (r.shadowed)
        shadowUnlink(r);
    // Rebuilding a resident tag extends it; keep the original
    // lifetime record so hits accumulate across extensions.
    if (!r.live) {
        r.live = true;
        r.buildCycle = now();
        r.firstHitCycle = 0;
        r.hits = 0;
        ++liveTags_;
    }
}

void
ArrayAccounting::noteFirstHit(uint64_t latency)
{
    buildToFirstHit_.add(
        (uint32_t)std::min<uint64_t>(latency, kBuildToFirstHitMax));
}

Cause
ArrayAccounting::classifyMiss(uint64_t tag) const
{
    const Slot *s = findSlot(tag);
    if (!s || !s->built)
        return Cause::XbcCompulsory;
    if (s->rec != kNone && recs_[s->rec].shadowed)
        return Cause::XbcConflict;
    return Cause::XbcCapacity;
}

void
ArrayAccounting::shadowInsert(Slot &s)
{
    Rec &r = recs_[s.rec];
    if (r.shadowed)
        shadowUnlink(r);
    r.shadowed = true;
    r.newer = kNone;
    r.older = shadowNewest_;
    if (shadowNewest_ != kNone)
        recs_[shadowNewest_].newer = s.rec;
    else
        shadowOldest_ = s.rec;
    shadowNewest_ = s.rec;
    ++shadowSize_;
    while (shadowSize_ > shadowCapacity_) {
        Rec &oldest = recs_[shadowOldest_];
        shadowUnlink(oldest);
        releaseIfIdle(*findSlot(oldest.tag));
    }
}

void
ArrayAccounting::shadowUnlink(Rec &r)
{
    if (r.newer != kNone)
        recs_[r.newer].older = r.older;
    else
        shadowNewest_ = r.older;
    if (r.older != kNone)
        recs_[r.older].newer = r.newer;
    else
        shadowOldest_ = r.newer;
    r.newer = r.older = kNone;
    r.shadowed = false;
    --shadowSize_;
}

void
ArrayAccounting::writeJson(JsonWriter &json) const
{
    json.beginObject("array");
    json.field("banks", (uint64_t)banks_);
    json.field("sets", (uint64_t)sets_);
    json.field("shadowCapacity", (uint64_t)shadowCapacity_);
    json.field("liveTags", (uint64_t)liveTags_);
    json.field("headEvictions", headEvictions.value());
    json.field("nonHeadEvictions", nonHeadEvictions.value());
    json.field("zeroHitEvictions", zeroHitEvictions.value());
    writeHistSummary(json, "buildToFirstHit", buildToFirstHit_);
    writeHistSummary(json, "hitsBeforeEvict", hitsBeforeEvict_);
    writeHeat(json, "allocsBySet", allocHeat_, banks_, sets_);
    writeHeat(json, "evictsBySet", evictHeat_, banks_, sets_);
    writeHeat(json, "conflictsBySet", conflictHeat_, banks_, sets_);
    json.endObject();
}

} // namespace xbs
