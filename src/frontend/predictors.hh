/**
 * @file
 * The predictor complement every frontend carries: a direction
 * predictor (GSHARE), a BTB for taken direct transfers, a return
 * stack, and an indirect-target predictor. The XBC wires these same
 * primitives at XB granularity (XBP / XBTB pointers / XRSB / XiBTB).
 */

#ifndef XBS_FRONTEND_PREDICTORS_HH
#define XBS_FRONTEND_PREDICTORS_HH

#include "bpred/btb.hh"
#include "bpred/direction.hh"
#include "frontend/params.hh"

namespace xbs
{

struct PredictorBank
{
    explicit PredictorBank(const FrontendParams &p)
        : gshare(p.gshareHistoryBits),
          btb(p.btbSets, p.btbWays),
          rsb(p.rsbDepth),
          indirect(p.indirectSets, p.indirectWays)
    {
    }

    GsharePredictor gshare;
    Btb btb;
    ReturnStack rsb;
    IndirectPredictor indirect;

    void
    reset()
    {
        gshare.reset();
        btb.reset();
        rsb.reset();
        indirect.reset();
    }
};

} // namespace xbs

#endif // XBS_FRONTEND_PREDICTORS_HH
