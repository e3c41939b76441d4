/**
 * @file
 * Decoded (uop) cache, the paper's section 2.2 alternative.
 *
 * The decoded cache removes decode latency by caching uops, but it is
 * still indexed by instruction address, so it inherits the IC's
 * bandwidth ceiling (one sequential run per cycle) and adds
 * fragmentation: because x86 instructions expand to a variable number
 * of uops, each line reserves a fixed number of uop slots for the
 * instructions that *start* in an aligned code window, and short or
 * sparse windows waste slots ("its hit rate is slightly reduced due
 * to fragmentation").
 */

#ifndef XBS_DC_DECODED_CACHE_HH
#define XBS_DC_DECODED_CACHE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.hh"
#include "frontend/oracle.hh"
#include "isa/static_inst.hh"
#include "isa/uop.hh"

namespace xbs
{

/** Geometry of the decoded cache. */
struct DecodedCacheParams
{
    /** Total capacity in uop slots (for like-for-like comparisons
     *  with the TC and XBC). */
    unsigned capacityUops = 32768;

    /** Aligned code-window bytes covered by one line. */
    unsigned windowBytes = 16;

    /** Uop slots reserved per line. */
    unsigned lineUops = 8;

    unsigned ways = 4;
};

class DecodedCache : public StatGroup
{
  public:
    DecodedCache(const DecodedCacheParams &params, StatGroup *parent);

    /** One cached decoded instruction. */
    struct DecodedInst
    {
        int32_t staticIdx = kNoTarget;
        uint8_t numUops = 0;
    };

    struct Line
    {
        bool valid = false;
        uint64_t windowIp = 0;   ///< aligned window base (tag)
        uint64_t lru = 0;
        std::vector<DecodedInst> insts;  ///< in address order
        unsigned usedUops = 0;

        void
        clear()
        {
            valid = false;
            windowIp = 0;
            insts.clear();
            usedUops = 0;
        }
    };

    /** Aligned window base of @p ip. */
    uint64_t windowOf(uint64_t ip) const;

    /**
     * Lookup the line for @p ip and the position of the instruction
     * with static index @p entry_idx inside it.
     *
     * @return {line, index into line->insts} or {nullptr, 0}
     */
    std::pair<const Line *, std::size_t>
    lookup(uint64_t ip, int32_t entry_idx);

    /**
     * Record a decoded instruction (fills lines in build mode). A
     * new window allocates a line; an instruction that does not fit
     * the line's uop budget is dropped (fragmentation loss).
     */
    void fill(const StaticInst &inst, int32_t static_idx);

    double fillFactor() const;
    unsigned numSets() const { return numSets_; }
    const DecodedCacheParams &params() const { return params_; }

    /** Non-aborting structural audit: window alignment, per-line uop
     *  budget, and stored usedUops consistency. Violations go to
     *  @p sink; the walk always completes. */
    void auditStorage(
        const std::function<void(AuditViolation)> &sink) const;

    void reset();

    ScalarStat lookups{this, "lookups", "decoded cache lookups"};
    ScalarStat hits{this, "hits", "decoded cache hits"};
    ScalarStat fills{this, "fills", "instructions filled"};
    ScalarStat fragDrops{this, "fragDrops",
        "instructions dropped for lack of line uop slots"};
    ScalarStat evictions{this, "evictions", "lines evicted"};

  private:
    std::size_t setOf(uint64_t window_ip) const;
    Line *findLine(uint64_t window_ip);

    DecodedCacheParams params_;
    unsigned numSets_;
    std::vector<Line> lines_;
    uint64_t clock_ = 0;
};

} // namespace xbs

#endif // XBS_DC_DECODED_CACHE_HH
