/**
 * @file
 * The legacy fetch/decode pipeline: BTB-directed instruction-cache
 * fetch followed by variable-length decode.
 *
 * This engine is both the IC baseline frontend's supply path and the
 * build-mode path of the TC and XBC frontends. One call to cycle()
 * models one fetch cycle: a single sequential run of instructions
 * from the IC (single-ported: fetch ends at the first taken
 * transfer), bounded by the decode width and uop emission caps, with
 * penalty cycles reported for IC misses and mispredictions.
 */

#ifndef XBS_IC_LEGACY_PIPE_HH
#define XBS_IC_LEGACY_PIPE_HH

#include <cstddef>

#include "attrib/recorder.hh"
#include "frontend/metrics.hh"
#include "frontend/params.hh"
#include "frontend/predictors.hh"
#include "ic/inst_cache.hh"
#include "isa/decoder.hh"
#include "prof/phase_profiler.hh"
#include "trace/trace.hh"

namespace xbs
{

class LegacyPipe
{
  public:
    LegacyPipe(const FrontendParams &params, FrontendMetrics &metrics,
               PredictorBank &preds);

    /** Outcome of one fetch cycle. */
    struct Result
    {
        unsigned uops = 0;    ///< uops decoded and supplied
        unsigned insts = 0;   ///< instructions consumed
        unsigned stall = 0;   ///< penalty cycles to charge afterwards
    };

    /**
     * Run one fetch/decode cycle along the actual path.
     *
     * @param trace the driving trace
     * @param rec   cursor into the trace; advanced past consumed
     *              instructions
     */
    Result cycle(const Trace &trace, std::size_t &rec);

    InstCache &icache() { return icache_; }
    const InstCache &icache() const { return icache_; }
    const InstCache &l2() const { return l2_; }

    void
    reset()
    {
        icache_.reset();
        l2_.reset();
    }

    /** Register the "predict" sub-phase under @p parent and time the
     *  branch-prediction work inside cycle(). nullptr detaches. */
    void
    attachProfiler(PhaseProfiler *prof, unsigned parent)
    {
        prof_ = prof;
        phPredict_ = prof ? prof->definePhase("predict", parent)
                          : PhaseProfiler::kNoPhase;
    }

    /** Attach (or detach, with nullptr) the owning frontend's
     *  attribution recorder: IC/L2 fill stalls and predictor
     *  penalties are noted with their root cause (src/attrib). */
    void attachAttrib(AttribRecorder *attrib) { attrib_ = attrib; }

  private:
    /**
     * Predict and train on the control instruction at record @p rec;
     * returns the penalty (0 when everything was predicted right).
     */
    unsigned handleControl(const Trace &trace, std::size_t rec);

    const FrontendParams &params_;
    FrontendMetrics &metrics_;
    PredictorBank &preds_;
    InstCache icache_;
    InstCache l2_;   ///< unified L2 backing the IC's code fetches
    Decoder decoder_;

    PhaseProfiler *prof_ = nullptr;
    unsigned phPredict_ = PhaseProfiler::kNoPhase;

    AttribRecorder *attrib_ = nullptr;
};

} // namespace xbs

#endif // XBS_IC_LEGACY_PIPE_HH
