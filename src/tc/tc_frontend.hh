/**
 * @file
 * Trace-cache frontend (paper section 2.3): build mode fetches from
 * the legacy IC path while the fill unit assembles traces; delivery
 * mode supplies whole traces per cycle through a decoupling fetch
 * buffer drained at renamer bandwidth.
 */

#ifndef XBS_TC_TC_FRONTEND_HH
#define XBS_TC_TC_FRONTEND_HH

#include "frontend/frontend.hh"
#include "frontend/predictors.hh"
#include "ic/legacy_pipe.hh"
#include "tc/fill_unit.hh"
#include "tc/trace_cache.hh"

namespace xbs
{

/** TC-specific configuration. */
struct TcParams
{
    unsigned capacityUops = 32768;  ///< total uop capacity
    unsigned ways = 4;              ///< associativity (paper: 4)
    TraceLimits limits;             ///< 16 uops, 3 branches

    /** Keep building traces while in delivery mode as well
     *  (the basic model the paper compares against does not). */
    bool buildInDelivery = false;

    /**
     * Path associativity ([Jaco97] extension): allow several traces
     * with the same starting IP, distinguished by their embedded
     * paths, instead of the basic model's replace-on-conflict. The
     * frontend then selects the resident trace that matches the
     * predicted path best.
     */
    bool pathAssociative = false;
};

class TcFrontend : public Frontend
{
  public:
    TcFrontend(const FrontendParams &params, const TcParams &tc_params);

    void run(const Trace &trace) override;

    const TraceCache &cache() const { return tc_; }
    const TcParams &tcParams() const { return tcParams_; }

    /** Uops supplied by partially matching traces. */
    uint64_t partialHitUops() const { return partialHitUops_; }

  protected:
    void
    registerPhases(PhaseProfiler *prof) override
    {
        // The legacy pipe runs as this frontend's build path.
        pipe_.attachProfiler(prof, phBuild_);
    }

  private:
    friend class Frontend;  // runCycles drives the steps below

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
    void restartFill() { fill_.restart(); }
    inline bool fill(const Trace &trace, std::size_t first,
                     std::size_t end);
    /// @}

    /** Feed record @p i to the fill unit, installing the trace it
     *  completes; true when one completed. */
    inline bool feedFill(const Trace &trace, std::size_t i);

    /**
     * Supply one resident trace line along the actual path.
     * Advances @p rec; returns uops supplied and sets @p stall.
     */
    unsigned supplyLine(const Trace &trace, const TraceLine &line,
                        std::size_t &rec, unsigned &stall);

    /** Pick the trace to supply at record @p rec (path-associative
     *  selection when enabled, plain lookup otherwise). */
    const TraceLine *selectLine(const Trace &trace, std::size_t rec);

    TcParams tcParams_;
    PredictorBank preds_;
    LegacyPipe pipe_;
    TraceCache tc_;
    TcFillUnit fill_;
    uint64_t partialHitUops_ = 0;
};

} // namespace xbs

#endif // XBS_TC_TC_FRONTEND_HH
