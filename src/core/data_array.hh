/**
 * @file
 * The XBC data/tag arrays (paper sections 3.2-3.4, 3.9, 3.10).
 *
 * Physical model: numBanks banks, each a (numSets x ways) array of
 * bank lines holding up to bankUops uop slots. An XB spreads over up
 * to numBanks lines of one set, all tagged with the XB's ending IP.
 *
 * A *variant* is one readable XB image: an ordered list of bank lines
 * plus, per line, how many of its trailing (in logical order) uops
 * belong to this variant. Because the hardware stores uops in
 * reverse order (section 3.4), the shared portion of a line is always
 * a contiguous suffix of the logical sequence, so:
 *  - extending an XB at its head never relocates stored uops and
 *    never disturbs variants sharing the line (the tail counts stay
 *    anchored), and
 *  - complex XBs (section 3.3) share suffix lines - including a
 *    partially shared boundary line - between prefixes.
 *
 * The directory of variants is the model-level equivalent of the
 * hardware's bank masks + order fields; the XBTB stores (tag, mask,
 * offset) pointers, and a stale pointer is repaired by set search
 * (section 3.9) exactly as in the paper.
 *
 * Storage is flat and, once warm, allocation-free: bank lines hold
 * their slots inline, and each set keeps its variants (lines and uop
 * image inline) in insertion order, so a tag's lookup scans only its
 * own set and the first match wins. Residency is a dense counter per
 * static uop of the bound code. Erasing any variant shifts the rest
 * of its set, so no Variant reference survives a call that can evict.
 */

#ifndef XBS_CORE_DATA_ARRAY_HH
#define XBS_CORE_DATA_ARRAY_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "attrib/array_sink.hh"
#include "common/bitops.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "core/params.hh"
#include "core/xb.hh"
#include "frontend/oracle.hh"
#include "isa/static_inst.hh"

namespace xbs
{

class XbcDataArray : public StatGroup
{
  public:
    XbcDataArray(const XbcParams &params, StatGroup *parent);

    /** Reference to one physical bank line. */
    struct LineUse
    {
        uint8_t bank = 0;
        uint8_t way = 0;
        /** How many trailing (logical-order) uops of the line belong
         *  to this variant. */
        uint16_t count = 0;
    };

    using LineList = InlineVec<LineUse, kMaxBanks>;

    /** One readable XB image. */
    struct Variant
    {
        uint64_t tag = 0;         ///< ending-instruction IP
        uint32_t mask = 0;        ///< banks used (derived from lines)
        XbImage seq;              ///< cached logical uop sequence
        LineList lines;           ///< head line first
    };

    enum class InsertOutcome
    {
        Allocated,       ///< no same-tag XB existed; stored fresh
        AlreadyPresent,  ///< case 1: existing XB contains the new one
        Extended,        ///< case 2: existing XB grew at its head
        ComplexAdded,    ///< case 3: new prefix sharing the suffix
        IndependentAdded,///< case 3 fallback: stored without sharing
        PrefixNeeded     ///< PrefixSplit mode: caller must store the
                         ///< differing prefix as its own XB
    };

    /**
     * The XFU store operation (section 3.3).
     *
     * @param seq       the new XB's uops (logical order)
     * @param end_ip    IP of the ending instruction (tag)
     * @param prev_mask banks of the previously placed XB, for smart
     *                  build placement (0 = no preference)
     * @param out       filled with a pointer to the stored XB,
     *                  entering at seq's first instruction
     */
    InsertOutcome insert(const XbSeq &seq, uint64_t end_ip,
                         uint32_t prev_mask, XbPointer *out,
                         unsigned *common_out = nullptr,
                         bool allow_match = true);

    /** Result of a delivery lookup or set search. */
    struct Access
    {
        const Variant *variant = nullptr;
        std::size_t entryPos = 0;  ///< index into variant->seq
    };

    /**
     * Delivery lookup by XBTB pointer: variant selected by
     * (tag, mask) with the entry instruction present at an
     * instruction boundary. A failed lookup is an XBC miss; try
     * setSearch next.
     */
    Access
    lookup(uint64_t tag, uint32_t mask_bits, int32_t entry_idx)
    {
        for (const auto &v : sets_[setOf(tag)]) {
            if (v.tag != tag || v.mask != mask_bits)
                continue;
            // Entry must sit at an instruction boundary.
            for (std::size_t p = 0; p < v.seq.size(); ++p) {
                if (v.seq[p].staticIdx == entry_idx && v.seq[p].seq == 0)
                    return Access{&v, p};
            }
        }
        return Access{};
    }

    /**
     * Set search (section 3.9): find any resident variant of @p tag
     * whose sequence contains instruction @p entry_idx at an
     * instruction boundary. Costs a penalty cycle at the caller.
     */
    Access setSearch(uint64_t tag, int32_t entry_idx);

    /** setSearch without statistics (XFU-internal linking). */
    Access findQuiet(uint64_t tag, int32_t entry_idx);

    /** The longest resident variant of @p tag (the "full" XB image),
     *  or nullptr; used by branch promotion to read XB0's uops. */
    const Variant *longestVariant(uint64_t tag) const;

    /**
     * LRU touch for a supplied variant: lines from the entry onward
     * are marked accessed in order, head first, so a head line always
     * ends up least-recently-used among the XB's lines (the
     * section 3.10 eviction-order rule).
     *
     * @param entry_pos index into variant.seq where supply entered
     */
    void
    touch(const Variant &variant, std::size_t entry_pos)
    {
        const std::size_t set = setOf(variant.tag);
        // Find the first line the entry falls into.
        std::size_t pos = 0;
        std::size_t start_line = 0;
        for (std::size_t i = 0; i < variant.lines.size(); ++i) {
            if (entry_pos < pos + variant.lines[i].count) {
                start_line = i;
                break;
            }
            pos += variant.lines[i].count;
        }
        // Touch head-to-primary so the primary ends most recent and a
        // head line is always the first of the XB to age out.
        for (std::size_t i = start_line; i < variant.lines.size(); ++i)
            line(variant.lines[i], set).lru = ++clock_;
    }

    /**
     * Record a bank-conflict deferral of line @p line_pos of
     * @p variant while banks in @p free_banks_mask went unused
     * (section 3.10 dynamic placement); relocates the line once the
     * conflict counter crosses the threshold. A relocation can evict
     * and so move @p variant; it is read only before that.
     *
     * @return true if a relocation happened
     */
    bool noteConflict(const Variant &variant, std::size_t line_pos,
                      uint32_t free_banks_mask);

    /** Push an XB's lines to the bottom of the LRU order (used on
     *  promotion for XB0's original location). */
    void demoteLru(uint64_t tag, uint32_t mask);

    /// @{ Occupancy metrics.
    double redundancy() const;
    double fillFactor() const;
    uint64_t uniqueUopsResident() const { return uniqueUops_; }
    /// @}

    unsigned numSets() const { return numSets_; }
    std::size_t
    setOf(uint64_t tag) const
    {
        return (std::size_t)foldedIndex(tag, numSets_, 0);
    }

    /** Changes on every call that may change a set's variants (an
     *  insert, a relocation, a fault, reset): an answer
     *  read from the array at one version holds until it moves. */
    uint64_t version() const { return version_; }

    /** Attach (or detach, with nullptr) a structural-event observer
     *  (src/attrib's ArrayAccounting): allocation, eviction, and
     *  bank-conflict events with their (bank, set) coordinates. */
    void setEventSink(ArrayEventSink *sink) { sink_ = sink; }

    /**
     * Non-aborting structural audit: walks every variant and line,
     * checking the paper's invariants — single exit, the 16-uop
     * quota, reverse-order banking (the concatenated trailing line
     * slots must reproduce the variant's sequence), the head-first
     * LRU aging rule, complex-XB suffix sharing consistency, variant
     * uniqueness, and the residency/redundancy accounting against
     * the physical contents. Each violation is reported via @p sink;
     * the walk always completes.
     */
    void auditStorage(
        const std::function<void(AuditViolation)> &sink) const;

    /** Internal invariant check for tests; panics on violation
     *  (auditStorage() is the collecting form). */
    void checkInvariants() const;

    /// @{ Fault-injection interface (src/verify): deliberate,
    ///    bookkept state damage. The frontend must degrade
    ///    gracefully — the delivery oracle stays clean — because
    ///    array contents are only performance hints.
    /** Flat line count, for picking injection victims. */
    std::size_t lineCount() const { return lines_.size(); }

    /** Invalidate flat line @p idx exactly like an eviction
     *  (accounting and dependent variants updated).
     *  @return true if the line was valid. */
    bool faultInvalidateLine(std::size_t idx);

    /**
     * Corrupt one resident uop slot, modeling a data-array bit flip:
     * the stored static index of a random slot is changed
     * consistently (line, every variant sequence covering the slot,
     * and the residency accounting), so the structural books still
     * balance while the *content* no longer matches the program.
     * @return true if a victim slot was found.
     */
    bool faultCorruptSlot(Rng &rng);
    /// @}

    /// @{ Test-only tamper helpers for the oracle-of-the-oracle
    ///    tests: plant structural bugs WITHOUT fixing the books, so
    ///    auditStorage() must flag them. Each returns true if state
    ///    suitable for the plant was found.
    bool tamperDuplicateVariant();  ///< duplicate XB in the directory
    bool tamperSwapVariantLines();  ///< out-of-order bank lines
    bool tamperStaleHeadLru();      ///< head line newer than primary
    /// @}

    void reset();

    ScalarStat inserts{this, "inserts", "XBs handed to the array"};
    ScalarStat allocs{this, "allocs", "fresh XB allocations"};
    ScalarStat containedHits{this, "containedHits",
        "case-1 stores (existing XB contained the new one)"};
    ScalarStat extensions{this, "extensions",
        "case-2 stores (XB extended at its head)"};
    ScalarStat complexAdds{this, "complexAdds",
        "case-3 stores (complex XB prefix added)"};
    ScalarStat independentAdds{this, "independentAdds",
        "case-3 fallbacks stored without sharing"};
    ScalarStat evictions{this, "evictions", "bank lines evicted"};
    ScalarStat variantDrops{this, "variantDrops",
        "variants invalidated by line eviction"};
    ScalarStat setSearches{this, "setSearches",
        "set searches performed"};
    ScalarStat setSearchHits{this, "setSearchHits",
        "set searches that found the XB"};
    ScalarStat relocations{this, "relocations",
        "dynamic-placement line moves"};

  private:
    struct BankLine
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t lru = 0;
        uint32_t conflict = 0;
        /** Logical order, earliest first. */
        InlineVec<UopSlot, kMaxBankUops> slots;
    };

    BankLine &
    line(unsigned bank, std::size_t set, unsigned way)
    {
        return lines_[((std::size_t)bank * numSets_ + set) *
                          params_.ways + way];
    }
    const BankLine &
    line(unsigned bank, std::size_t set, unsigned way) const
    {
        return lines_[((std::size_t)bank * numSets_ + set) *
                          params_.ways + way];
    }
    BankLine &
    line(const LineUse &lu, std::size_t set)
    {
        return line(lu.bank, set, lu.way);
    }

    /** Remove variants of @p tag that reference (bank, way). Called
     *  exactly once per line eviction, so it also fires the event
     *  sink's onEvict with head/last-variant classification. */
    void dropVariantsUsing(uint64_t tag, std::size_t set,
                           unsigned bank, unsigned way);

    /**
     * Allocate (evicting if needed) a line in @p set for @p tag.
     *
     * @param used_banks banks this variant already occupies
     * @param avoid_mask banks to avoid if possible (smart placement)
     * @return the line position, or nullopt if every bank is used
     */
    std::optional<LineUse> allocLine(uint64_t tag, std::size_t set,
                                     uint32_t used_banks,
                                     uint32_t avoid_mask);

    /** Split the first @p uops of @p seq into head-partial chunks and
     *  allocate lines for them into @p placed (head first); false on
     *  bank exhaustion. */
    bool placeChunks(const XbSeq &seq, std::size_t uops, uint64_t tag,
                     std::size_t set, uint32_t used_banks,
                     uint32_t avoid_mask, LineList &placed);

    /** Static uop number of @p s in the bound code. A corrupted
     *  slot's foreign uop number is clamped to its instruction. */
    std::size_t
    uopNumber(const UopSlot &s) const
    {
        const StaticInst &si = code_->inst(s.staticIdx);
        return si.firstUop + std::min<unsigned>(s.seq, si.numUops - 1u);
    }

    void accountSlots(std::span<const UopSlot> slots, int delta);

    /** Derive the fill and residency books from the valid lines. */
    void recount();

    void rebuildMask(Variant &v);

    /** Re-stamp a variant's lines head-to-primary with fresh LRU
     *  values, restoring the head-first aging order after an
     *  extension or complex store re-shapes the variant. */
    void refreshLru(Variant &v);

    XbcParams params_;
    unsigned numSets_;
    std::vector<BankLine> lines_;   ///< [bank][set][way]
    /** Per set, its variants in insertion order. */
    std::vector<std::vector<Variant>> sets_;
    uint64_t clock_ = 0;
    uint64_t version_ = 0;

    /** Resident copies per static uop number. */
    std::vector<uint32_t> residency_;
    uint64_t uniqueUops_ = 0;
    uint64_t filledUops_ = 0;

  public:
    /** Register the code image so slots can be translated to static
     *  uop numbers for redundancy accounting, and recount residency
     *  from the lines. Must be called before first use. */
    void
    bindCode(const StaticCode *code)
    {
        code_ = code;
        recount();
    }

  private:
    const StaticCode *code_ = nullptr;

    ArrayEventSink *sink_ = nullptr;
};

} // namespace xbs

#endif // XBS_CORE_DATA_ARRAY_HH
