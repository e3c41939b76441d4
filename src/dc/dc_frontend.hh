/**
 * @file
 * Decoded-cache frontend (paper section 2.2): uops are supplied
 * without decode latency, but the structure is still indexed by
 * instruction address, so bandwidth stays IC-like (one sequential
 * run per cycle, ending at every taken transfer) and fragmentation
 * costs hit rate.
 */

#ifndef XBS_DC_DC_FRONTEND_HH
#define XBS_DC_DC_FRONTEND_HH

#include "dc/decoded_cache.hh"
#include "frontend/frontend.hh"
#include "frontend/predictors.hh"
#include "ic/legacy_pipe.hh"

namespace xbs
{

class DcFrontend : public Frontend
{
  public:
    DcFrontend(const FrontendParams &params,
               const DecodedCacheParams &dc_params);

    void run(const Trace &trace) override;

    const DecodedCache &cache() const { return dc_; }

  protected:
    void
    registerPhases(PhaseProfiler *prof) override
    {
        // The legacy pipe runs as this frontend's build path.
        pipe_.attachProfiler(prof, phBuild_);
    }

  private:
    friend class Frontend;  // runCycles drives the steps below

    /// @{ Cycle-loop steps (Frontend::runCycles); fill() is defined
    ///    inline in the .cc. The DC has no fill unit to restart.
    bool coldStart() { return true; }
    Supply
    deliver(const Trace &trace, std::size_t &rec, unsigned &stall,
            unsigned)
    {
        return supplyRun(trace, rec, stall);
    }
    void restartFill() {}
    inline bool fill(const Trace &trace, std::size_t first,
                     std::size_t end);
    /// @}

    /** Supply one sequential run (at most renamerWidth uops) from
     *  the decoded cache; a miss when a lookup fails first. */
    Supply supplyRun(const Trace &trace, std::size_t &rec,
                     unsigned &stall);

    DecodedCacheParams dcParams_;
    PredictorBank preds_;
    LegacyPipe pipe_;
    DecodedCache dc_;
};

} // namespace xbs

#endif // XBS_DC_DC_FRONTEND_HH
