/**
 * @file
 * Per-structure accounting for the XBC data array.
 *
 * Subscribes to the array's structural events (ArrayEventSink) and
 * maintains:
 *
 *  - set/bank heatmaps: allocations and evictions per (bank, set)
 *    plus bank-conflict deferrals per (bank, set), emitted as
 *    bank-major JSON matrices;
 *  - per-XB lifetime records: build->first-hit latency and
 *    hits-before-evict histograms, head vs non-head eviction split;
 *  - the *evicted-tag shadow directory*: a bounded LRU of recently
 *    evicted tags, capacity equal to the array's total line count,
 *    that classifies an array miss as compulsory (tag never built),
 *    conflict (tag evicted recently enough to still be in the
 *    shadow), or capacity (evicted longer ago). This is the
 *    standard bounded-shadow approximation of the 3C model for a
 *    variant-grouped structure with no single canonical LRU stack.
 *
 * Storage is flat: an open-addressing table keyed by tag holds one
 * 16-byte slot per tag ever built (or shadowed), and only a tag that
 * is live or in the shadow owns a record in a pooled array; the
 * shadow LRU links those records by index. No event allocates once
 * the table and pool have grown to the working set.
 */

#ifndef XBS_ATTRIB_ARRAY_ACCT_HH
#define XBS_ATTRIB_ARRAY_ACCT_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "attrib/array_sink.hh"
#include "attrib/taxonomy.hh"
#include "common/histogram.hh"
#include "common/stats.hh"

namespace xbs
{

class JsonWriter;

class ArrayAccounting : public StatGroup, public ArrayEventSink
{
  public:
    /**
     * @param parent stat tree parent (the frontend's AttribRecorder)
     * @param cycles timestamp source (the frontend's cycle counter)
     * @param banks  array bank count (heatmap geometry)
     * @param sets   array set count
     * @param lines  total line count (shadow-directory capacity)
     */
    ArrayAccounting(StatGroup *parent, const ScalarStat *cycles,
                    unsigned banks, std::size_t sets,
                    std::size_t lines);

    /// @{ ArrayEventSink
    void onAlloc(uint64_t tag, unsigned bank,
                 std::size_t set) override;
    void onEvict(uint64_t tag, unsigned bank, std::size_t set,
                 bool head, bool last_gone) override;
    void onConflict(unsigned bank, std::size_t set) override;
    /// @}

    /** An XB with @p tag finished building (entered the array). */
    void onBuild(uint64_t tag);

    /** A delivery-mode lookup for @p tag hit the array. */
    void
    onHit(uint64_t tag)
    {
        const Slot *s = findSlot(tag);
        if (!s || s->rec == kNone || !recs_[s->rec].live)
            return;
        Rec &r = recs_[s->rec];
        if (r.hits == 0) {
            r.firstHitCycle = now();
            noteFirstHit(r.firstHitCycle - r.buildCycle);
        }
        ++r.hits;
    }

    /**
     * Classify a delivery-mode array miss for @p tag:
     * XbcCompulsory if the tag was never built, XbcConflict if it
     * sits in the evicted-tag shadow, XbcCapacity otherwise.
     */
    Cause classifyMiss(uint64_t tag) const;

    bool
    everBuilt(uint64_t tag) const
    {
        const Slot *s = findSlot(tag);
        return s && s->built;
    }
    bool
    inShadow(uint64_t tag) const
    {
        const Slot *s = findSlot(tag);
        return s && s->rec != kNone && recs_[s->rec].shadowed;
    }
    std::size_t shadowSize() const { return shadowSize_; }
    std::size_t liveTags() const { return liveTags_; }

    const Histogram &buildToFirstHit() const { return buildToFirstHit_; }
    const Histogram &hitsBeforeEvict() const { return hitsBeforeEvict_; }

    /** Emit the "array" JSON member (heatmaps + lifetime summary). */
    void writeJson(JsonWriter &json) const;

    ScalarStat headEvictions;
    ScalarStat nonHeadEvictions;
    ScalarStat zeroHitEvictions;

  private:
    static constexpr uint32_t kNone = UINT32_MAX;

    /** One tag of the table: ever built, and/or owning a record. */
    struct Slot
    {
        uint64_t tag = 0;
        uint32_t rec = kNone;  ///< index into recs_
        bool used = false;
        bool built = false;
    };

    /** A live or shadowed tag's lifetime record and LRU links. */
    struct Rec
    {
        uint64_t tag = 0;
        uint64_t buildCycle = 0;
        uint64_t firstHitCycle = 0;
        uint64_t hits = 0;
        uint32_t newer = kNone;  ///< shadow LRU neighbours (or the
        uint32_t older = kNone;  ///< free-list link when released)
        bool live = false;
        bool shadowed = false;
    };

    std::size_t cell(unsigned bank, std::size_t set) const
    {
        return (std::size_t)bank * sets_ + set;
    }

    /** Home slot of @p tag (Fibonacci hashing, linear probing). */
    std::size_t
    home(uint64_t tag) const
    {
        return (std::size_t)((tag * 0x9e3779b97f4a7c15ull) >> shift_);
    }
    const Slot *
    findSlot(uint64_t tag) const
    {
        const std::size_t m = slots_.size() - 1;
        for (std::size_t i = home(tag);; i = (i + 1) & m) {
            const Slot &s = slots_[i];
            if (!s.used)
                return nullptr;
            if (s.tag == tag)
                return &s;
        }
    }
    Slot *
    findSlot(uint64_t tag)
    {
        return const_cast<Slot *>(std::as_const(*this).findSlot(tag));
    }
    /** Find or insert @p tag's slot (may grow the table). */
    Slot &slotFor(uint64_t tag);
    /** @p s's record, taken from the pool if it has none. */
    Rec &recFor(Slot &s);
    /** Return @p s's record to the pool once it is neither live nor
     *  shadowed. */
    void releaseIfIdle(Slot &s);

    void shadowInsert(Slot &s);
    void shadowUnlink(Rec &r);
    void noteFirstHit(uint64_t latency);
    uint64_t now() const { return cycles_ ? cycles_->value() : 0; }

    const ScalarStat *cycles_;
    unsigned banks_;
    std::size_t sets_;
    std::size_t shadowCapacity_;

    std::vector<uint64_t> allocHeat_;    ///< bank-major [banks][sets]
    std::vector<uint64_t> evictHeat_;
    std::vector<uint64_t> conflictHeat_;

    std::vector<Slot> slots_;  ///< power-of-two size, at most half used
    unsigned shift_ = 64;      ///< 64 - log2(slots_.size())
    std::size_t usedSlots_ = 0;
    std::vector<Rec> recs_;
    uint32_t freeRec_ = kNone;
    std::size_t liveTags_ = 0;

    /** Shadow LRU of evicted tags' records, newest first. */
    uint32_t shadowNewest_ = kNone;
    uint32_t shadowOldest_ = kNone;
    std::size_t shadowSize_ = 0;

    Histogram buildToFirstHit_;
    Histogram hitsBeforeEvict_;
};

} // namespace xbs

#endif // XBS_ATTRIB_ARRAY_ACCT_HH
