/**
 * @file
 * The XBTB and its companion predictors (paper section 3.5).
 *
 * The XBTB is the only road into the XBC: since XBs are indexed by
 * their *ending* IP, a branch target IP cannot be looked up in the
 * XBC directly. Each entry describes one XB (keyed by its XB_IP) and
 * carries pointers (XB_IP, BANK_MASK, OFFSET) to the taken-path and
 * fall-through successors, the end-instruction type, and the 7-bit
 * bias counter driving branch promotion (section 3.8).
 *
 * The XiBTB predicts the successor of indirect-ended XBs; the XRSB
 * predicts the successor of return-ended XBs by stacking references
 * to the XBTB entries of the corresponding calls.
 */

#ifndef XBS_CORE_XBTB_HH
#define XBS_CORE_XBTB_HH

#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "common/stats.hh"
#include "core/params.hh"
#include "core/xb.hh"
#include "isa/types.hh"

namespace xbs
{

class Xbtb : public StatGroup
{
  public:
    struct Entry
    {
        bool valid = false;
        uint64_t xbIp = 0;
        uint64_t lru = 0;

        /** Class of the XB's ending instruction (Seq marks a
         *  quota-ended XB, whose successor is unconditional). */
        InstClass endType = InstClass::Seq;

        /** Taken-path successor; for calls, XB_func; for quota-ended
         *  and jump-ended XBs, the unconditional successor. */
        XbPointer taken;

        /** Fall-through successor; for calls, XB_ret. */
        XbPointer fallthrough;

        /// @{ Branch promotion state (7-bit counter, section 3.8).
        uint8_t counter = 64;
        bool promoted = false;
        bool promotedTaken = false;  ///< frequent direction
        /** Entry into XB_comb at this XB's first instruction. */
        XbPointer promotedPtr;
        /// @}

        void
        trainCounter(bool taken_dir)
        {
            if (taken_dir) {
                if (counter < 127)
                    ++counter;
            } else {
                if (counter > 0)
                    --counter;
            }
        }
    };

    Xbtb(unsigned entries, unsigned ways, StatGroup *parent);

    /** Predictive lookup (counted in hit/miss statistics). */
    Entry *
    lookup(uint64_t xb_ip, Entry *hint = nullptr)
    {
        ++lookups;
        Entry *e = find(xb_ip, hint);
        if (e) {
            ++hits;
            e->lru = ++clock_;
        }
        return e;
    }

    /**
     * Silent lookup for updates/linking (no statistics).
     *
     * @param hint an entry an earlier probe returned (host cache). It
     *        is returned without a probe while it still holds
     *        @p xb_ip: entries never move and an IP holds at most one
     *        entry, so it is then exactly what the probe would find.
     */
    Entry *
    find(uint64_t xb_ip, Entry *hint = nullptr)
    {
        if (hint && hint->valid && hint->xbIp == xb_ip)
            return hint;
        Entry *set = &entries_[setOf(xb_ip) * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (set[w].valid && set[w].xbIp == xb_ip)
                return &set[w];
        }
        return nullptr;
    }

    /**
     * Find-or-allocate the entry for @p xb_ip (LRU victim on
     * conflict); used by the XFU when an XB is built.
     */
    Entry &allocate(uint64_t xb_ip, InstClass end_type);

    unsigned numSets() const { return numSets_; }

    /// @{ Raw entry iteration for the fault-injection harness
    ///    (src/verify): XBTB contents are prediction hints, so
    ///    corrupting an entry must only cost performance.
    std::size_t entryCount() const { return entries_.size(); }
    Entry &entryAt(std::size_t i) { return entries_[i]; }
    std::size_t indexOf(const Entry &e) const
    {
        return (std::size_t)(&e - entries_.data());
    }
    /// @}

    void reset();

    ScalarStat lookups{this, "lookups", "XBTB predictive lookups"};
    ScalarStat hits{this, "hits", "XBTB lookup hits"};
    ScalarStat allocations{this, "allocations",
        "XBTB entries allocated"};
    ScalarStat entryEvictions{this, "entryEvictions",
        "valid XBTB entries replaced"};

  private:
    std::size_t
    setOf(uint64_t xb_ip) const
    {
        return (std::size_t)foldedIndex(xb_ip, numSets_, 0);
    }

    unsigned numSets_;
    unsigned ways_;
    std::vector<Entry> entries_;
    uint64_t clock_ = 0;
};

// Host caches (lookup hints, the promotion memo) stay outside the
// entry: find() scans a set's entries, so they must stay this dense.
static_assert(sizeof(Xbtb::Entry) <= 112, "Xbtb::Entry outgrew 112 bytes");

/** Indirect next-XB predictor: a tagged last-pointer table. */
class XiBtb : public StatGroup
{
  public:
    XiBtb(unsigned sets, unsigned ways, StatGroup *parent);

    /** Predicted successor pointer of the indirect-ended XB at
     *  @p xb_ip, or nullptr. */
    const XbPointer *predict(uint64_t xb_ip);

    /** Record the observed successor. */
    void update(uint64_t xb_ip, const XbPointer &ptr);

    struct Slot
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t lru = 0;
        XbPointer ptr;
    };

    /// @{ Raw slot iteration for the fault-injection harness.
    std::size_t slotCount() const { return slots_.size(); }
    Slot &slotAt(std::size_t i) { return slots_[i]; }
    /// @}

    void reset();

    ScalarStat lookups{this, "lookups", "XiBTB lookups"};
    ScalarStat hits{this, "hits", "XiBTB tag hits"};

  private:
    std::size_t setOf(uint64_t ip) const;

    unsigned numSets_;
    unsigned ways_;
    std::vector<Slot> slots_;
    uint64_t clock_ = 0;
};

/**
 * XRSB: return stack of call-XB references. Pushing happens when a
 * call-ended XB is fetched; popping yields the XBTB entry of the
 * matching call, whose fall-through pointer locates XB_ret.
 */
class Xrsb
{
  public:
    explicit Xrsb(unsigned depth);

    void push(uint64_t call_xb_ip);

    /** @return the call-XB ip, or 0 when empty (underflow). */
    uint64_t pop();

    unsigned size() const { return size_; }
    void reset();

  private:
    std::vector<uint64_t> stack_;
    unsigned topIdx_ = 0;
    unsigned size_ = 0;
};

} // namespace xbs

#endif // XBS_CORE_XBTB_HH
