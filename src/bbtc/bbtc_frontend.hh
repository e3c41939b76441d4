/**
 * @file
 * Block-based trace cache frontend (paper section 2.4, [Blac99]):
 * traces of block *pointers* name decoded basic blocks stored once
 * in a block cache. Redundancy moves from uops to pointers;
 * fragmentation grows because storage is allocated in fixed block
 * frames.
 */

#ifndef XBS_BBTC_BBTC_FRONTEND_HH
#define XBS_BBTC_BBTC_FRONTEND_HH

#include <unordered_map>

#include "bbtc/block_cache.hh"
#include "frontend/frontend.hh"
#include "frontend/predictors.hh"
#include "ic/legacy_pipe.hh"

namespace xbs
{

struct BbtcParams
{
    BlockCacheParams blocks;

    /** Block pointers per trace-table entry. */
    unsigned ptrsPerTrace = 4;

    /** Trace-table geometry (entries = sets * ways). */
    unsigned traceTableEntries = 4096;
    unsigned traceTableWays = 4;
};

class BbtcFrontend : public Frontend
{
  public:
    BbtcFrontend(const FrontendParams &params,
                 const BbtcParams &bbtc_params);

    void run(const Trace &trace) override;

    const BlockCache &blockCache() const { return blocks_; }

    /** Mean pointer instances per distinct resident block pointer
     *  (the BBTC's redundancy lives here, not in uops). */
    double pointerRedundancy() const;

    ScalarStat traceLookups{&root_, "traceLookups",
        "trace-table lookups"};
    ScalarStat traceHits{&root_, "traceHits", "trace-table hits"};
    ScalarStat blockMisses{&root_, "blockMissesOnHit",
        "pointed-to blocks absent from the block cache"};
    ScalarStat partialHits{&root_, "partialHits",
        "trace supplies cut short by path divergence"};

  protected:
    void
    registerPhases(PhaseProfiler *prof) override
    {
        // The legacy pipe runs as this frontend's build path.
        pipe_.attachProfiler(prof, phBuild_);
    }

  private:
    friend class Frontend;  // runCycles drives the steps below

    struct TraceEntry
    {
        bool valid = false;
        uint64_t startIp = 0;
        uint64_t lru = 0;
        std::vector<uint64_t> blockIps;
    };

    TraceEntry *ttFind(uint64_t ip);
    void ttInsert(uint64_t start_ip,
                  const std::vector<uint64_t> &block_ips);

    /** Supply one trace entry along the actual path. */
    unsigned supplyTrace(const Trace &trace, const TraceEntry &entry,
                         std::size_t &rec, unsigned &stall);

    BbtcParams bbtcParams_;
    PredictorBank preds_;
    LegacyPipe pipe_;
    BlockCache blocks_;

    unsigned ttSets_;
    std::vector<TraceEntry> tt_;
    uint64_t ttClock_ = 0;

    /// @{ Fill state (build mode).
    CachedBlock fillBlock_;
    std::vector<uint64_t> fillPtrs_;
    uint64_t fillStartIp_ = 0;
    /// @}

    /// @{ Cycle-loop steps (Frontend::runCycles); deliver() and
    ///    fill() are defined inline in the .cc.
    bool
    coldStart()
    {
        restartFill();
        return true;
    }
    inline Supply deliver(const Trace &trace, std::size_t &rec,
                          unsigned &stall, unsigned buffer);
    void
    restartFill()
    {
        fillBlock_.clear();
        fillPtrs_.clear();
        fillStartIp_ = 0;
    }
    inline bool fill(const Trace &trace, std::size_t first,
                     std::size_t end);
    /// @}

    /** Feed one instruction; returns true when a trace completed. */
    bool feedFill(const Trace &trace, std::size_t rec);
};

} // namespace xbs

#endif // XBS_BBTC_BBTC_FRONTEND_HH
