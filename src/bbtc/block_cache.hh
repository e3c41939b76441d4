/**
 * @file
 * Block cache for the block-based trace cache (paper section 2.4,
 * after [Blac99]): decoded basic blocks stored exactly once, indexed
 * by the block's starting IP. The BBTC's traces are sequences of
 * *pointers* into this cache, which moves the TC's redundancy from
 * uops to pointers at the cost of extra fragmentation (fixed-size
 * block frames).
 */

#ifndef XBS_BBTC_BLOCK_CACHE_HH
#define XBS_BBTC_BLOCK_CACHE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.hh"
#include "frontend/oracle.hh"
#include "isa/static_inst.hh"

namespace xbs
{

struct BlockCacheParams
{
    /** Total capacity in uop slots. */
    unsigned capacityUops = 32768;

    /** Uop slots reserved per block frame. */
    unsigned blockUops = 8;

    unsigned ways = 4;
};

/** One decoded basic block. */
struct CachedBlock
{
    bool valid = false;
    uint64_t startIp = 0;
    uint64_t lru = 0;
    std::vector<int32_t> insts;  ///< static indices, in order
    unsigned numUops = 0;

    void
    clear()
    {
        valid = false;
        startIp = 0;
        insts.clear();
        numUops = 0;
    }
};

class BlockCache : public StatGroup
{
  public:
    BlockCache(const BlockCacheParams &params, StatGroup *parent);

    /** @return the resident block starting at @p ip, or nullptr. */
    const CachedBlock *lookup(uint64_t ip);

    /** Probe without statistics or LRU update. */
    const CachedBlock *probe(uint64_t ip) const;

    /** Insert a block (replaces a same-IP block). */
    void insert(const CachedBlock &block);

    double fillFactor() const;
    unsigned numSets() const { return numSets_; }
    const BlockCacheParams &params() const { return params_; }

    /** Non-aborting structural audit: frame budget, stored uop
     *  counts, tag consistency, and the store-exactly-once rule (at
     *  most one block per start IP). Violations go to @p sink. */
    void auditStorage(
        const StaticCode &code,
        const std::function<void(AuditViolation)> &sink) const;

    void reset();

    ScalarStat lookups{this, "lookups", "block cache lookups"};
    ScalarStat hits{this, "hits", "block cache hits"};
    ScalarStat inserts{this, "inserts", "blocks inserted"};
    ScalarStat evictions{this, "evictions", "blocks evicted"};

  private:
    std::size_t setOf(uint64_t ip) const;
    CachedBlock *find(uint64_t ip);

    BlockCacheParams params_;
    unsigned numSets_;
    std::vector<CachedBlock> blocks_;
    uint64_t clock_ = 0;
};

} // namespace xbs

#endif // XBS_BBTC_BLOCK_CACHE_HH
