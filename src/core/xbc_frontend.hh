/**
 * @file
 * The XBC frontend: the whole structure of the paper's Figure 6.
 *
 * Delivery mode: the XBTB chain (XBTB entries + XBP direction
 * prediction + XiBTB + XRSB) provides up to fetchXbsPerCycle XB
 * pointers per cycle; the banked data array supplies their uops
 * subject to bank conflicts and the 16-uop fetch width; a decoupling
 * buffer (the XBQ) drains into the renamer at 8 uops/cycle.
 *
 * Build mode: the legacy IC path supplies uops while the XFU builds
 * XBs; delivery resumes when a completed XB's successor pointer
 * resolves to a resident XB (XBTB hit + XBC hit).
 *
 * Branch promotion (section 3.8) is driven here: 7-bit counters in
 * the XBTB entries, combination of XB0 with its frequent successor
 * into XB_comb (an extension / complex store in the data array),
 * supply through embedded promoted branches without consuming a
 * prediction, wrong-path redirection through XB0's retained entry,
 * and de-promotion on misbehavior.
 */

#ifndef XBS_CORE_XBC_FRONTEND_HH
#define XBS_CORE_XBC_FRONTEND_HH

#include "attrib/array_acct.hh"
#include "core/data_array.hh"
#include "core/fill_unit.hh"
#include "core/out_mux.hh"
#include "core/params.hh"
#include "core/priority_encoder.hh"
#include "core/xbtb.hh"
#include "frontend/frontend.hh"
#include "frontend/predictors.hh"
#include "ic/legacy_pipe.hh"

namespace xbs
{

class XbcFrontend : public Frontend
{
  public:
    XbcFrontend(const FrontendParams &params,
                const XbcParams &xbc_params);

    void run(const Trace &trace) override;

    /// @{ Warm-state checkpoint/restore (src/ckpt).
    void saveState(CheckpointWriter &w) const override;
    Status restoreState(const CheckpointFile &f) override;
    /// @}

    const XbcDataArray &dataArray() const { return array_; }
    const Xbtb &xbtbUnit() const { return xbtb_; }
    const XbcFillUnit &fillUnit() const { return fill_; }
    const OutMux &outMux() const { return outMux_; }
    const PriorityEncoder &priorityEncoder() const { return prio_; }
    const XbcParams &xbcParams() const { return xbcParams_; }

    /** Structure accounting (heatmaps, lifetimes, shadow 3C). */
    const ArrayAccounting *arrayAccounting() const override
    {
        return &arrayAcct_;
    }

    /// @{ Verification interface (src/verify): mutable access for
    ///    the fault injectors and the invariant auditor's tamper
    ///    tests. Not used by the model itself.
    XbcDataArray &mutableDataArray() { return array_; }
    Xbtb &mutableXbtb() { return xbtb_; }
    XiBtb &mutableXibtb() { return xibtb_; }
    XbcFillUnit &mutableFillUnit() { return fill_; }
    /// @}

    /// @{ XBC-specific statistics.
    ScalarStat xbSupplies{&root_, "xbSupplies",
        "XB supply operations started"};
    ScalarStat xbContinuations{&root_, "xbContinuations",
        "partial-XB continuations (conflict/width deferrals)"};
    ScalarStat bankConflictDefers{&root_, "bankConflictDefers",
        "supplies cut short by a bank conflict"};
    ScalarStat widthDefers{&root_, "widthDefers",
        "supplies cut short by the 16-uop fetch width"};
    ScalarStat promotions{&root_, "promotions",
        "branches promoted (XBs combined)"};
    ScalarStat depromotions{&root_, "depromotions",
        "promoted branches demoted for misbehaving"};
    ScalarStat promotedSupplied{&root_, "promotedSupplied",
        "embedded promoted branches supplied without prediction"};
    ScalarStat promotedWrongPath{&root_, "promotedWrongPath",
        "promoted branches that took the infrequent path"};
    ScalarStat setSearchPenalties{&root_, "setSearchPenalties",
        "cycles lost to set searches"};
    ScalarStat staleSupplies{&root_, "staleSupplies",
        "supplies aborted on stale XB content"};
    ScalarStat buildExits{&root_, "buildExits",
        "successful build->delivery transitions"};
    /// @}

  protected:
    void
    registerPhases(PhaseProfiler *prof) override
    {
        // The legacy pipe runs as this frontend's build path.
        pipe_.attachProfiler(prof, phBuild_);
    }

  private:
    enum class Mode { Build, Delivery };

    /** Which pointer of the previously executed XB the next XB's
     *  location must be written into (paper's XBTB update chain). */
    struct PrevLink
    {
        enum class Kind
        {
            None,
            Taken,       ///< taken / unconditional / call-target slot
            Fallthrough, ///< not-taken slot
            Indirect,    ///< XiBTB entry
            ReturnLink,  ///< fall-through slot of the call's entry
        };
        Kind kind = Kind::None;
        uint64_t xbIp = 0;
    };

    /** Outcome of resolving an XB-ending control instruction. */
    struct EndResult
    {
        XbPointer next;       ///< where delivery continues (if valid)
        unsigned penalty = 0; ///< bubble cycles
        bool toBuild = false; ///< must switch to build mode
    };

    /** Resolve the XB end at record @p end_rec: predict, train,
     *  promote, set prev link, and produce the next pointer. */
    EndResult handleXbEnd(const Trace &trace, std::size_t end_rec);

    /** Write @p ptr into the previously executed XB's pointer slot. */
    void linkPrev(const XbPointer &ptr);

    /** Attempt branch promotion for the cond-ended XB of @p entry. */
    void maybePromote(Xbtb::Entry &entry);

    /** Handle an XFU completion in build mode (linking, XRSB,
     *  counters, and the build->delivery exit check). The exit is
     *  only legal for the completion at the cycle's final consumed
     *  record, so the delivery cursor and cur_ agree. */
    void handleCompletion(const Trace &trace,
                          const XbcFillUnit::Completion &comp,
                          std::size_t rec, bool can_exit, Mode &mode);

    /**
     * Supply one XB (or its continuation) in a delivery cycle.
     * Updates the cursor, the cycle's bank grants (via the priority
     * encoder) and fetched-uop count, and the frontend's
     * cur_/stall/mode intent.
     *
     * @return uops supplied (0 means the slot did no work)
     */
    unsigned supplySlot(const Trace &trace, std::size_t &rec,
                        unsigned &fetched, unsigned &stall);

    /** One build-mode cycle (legacy fetch + XFU feeding). */
    void buildCycle(const Trace &trace, std::size_t &rec,
                    unsigned &stall, Mode &mode);

    XbcParams xbcParams_;
    PredictorBank preds_;   ///< gshare doubles as the XBP
    LegacyPipe pipe_;
    XbcDataArray array_;
    Xbtb xbtb_;
    XiBtb xibtb_;
    Xrsb xrsb_;
    XbcFillUnit fill_;
    OutMux outMux_;
    PriorityEncoder prio_;
    ArrayAccounting arrayAcct_;

    /** Per-cycle line contributions for the OUT_MUX model. */
    std::vector<MuxInput> cycleMux_;

    XbPointer cur_;
    bool curIsContinuation_ = false;
    PrevLink prev_;
    unsigned completionsSinceCheck_ = 0;
};

} // namespace xbs

#endif // XBS_CORE_XBC_FRONTEND_HH
