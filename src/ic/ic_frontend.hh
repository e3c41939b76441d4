/**
 * @file
 * The instruction-cache baseline frontend (paper section 2.1): all
 * uops come from the legacy fetch/decode path, one sequential run per
 * cycle. It demonstrates the bandwidth ceiling the XBC and TC are
 * built to break.
 */

#ifndef XBS_IC_IC_FRONTEND_HH
#define XBS_IC_IC_FRONTEND_HH

#include "frontend/frontend.hh"
#include "frontend/predictors.hh"
#include "ic/legacy_pipe.hh"

namespace xbs
{

class IcFrontend : public Frontend
{
  public:
    explicit IcFrontend(const FrontendParams &params);

    void run(const Trace &trace) override;

    const PredictorBank &predictors() const { return preds_; }
    const InstCache &icache() const { return pipe_.icache(); }

  protected:
    void
    registerPhases(PhaseProfiler *prof) override
    {
        pipe_.attachProfiler(prof, phFetch_);
    }

  private:
    friend class Frontend;  // runCycles drives the steps below

    /// @{ Cycle-loop steps (Frontend::runCycles); deliver() is
    ///    defined inline in the .cc. The IC never switches: every
    ///    cycle delivers from the legacy pipe.
    bool coldStart() { return false; }
    inline Supply deliver(const Trace &trace, std::size_t &rec,
                          unsigned &stall, unsigned buffer);
    void restartFill() {}
    bool fill(const Trace &, std::size_t, std::size_t) { return true; }
    /// @}

    PredictorBank preds_;
    LegacyPipe pipe_;
};

} // namespace xbs

#endif // XBS_IC_IC_FRONTEND_HH
