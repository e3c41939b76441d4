/**
 * @file
 * The XBC fill unit, XFU (paper section 3.3).
 *
 * In build mode the XFU receives decoded uops, accumulates them in a
 * fill buffer until an end-of-XB condition (conditional branch,
 * indirect branch, call, return, or the 16-uop quota), then performs
 * the XBC store: the data array resolves the three same-tag overlap
 * cases; in PrefixSplit mode the XFU itself stores the differing
 * prefix as an independent XB chained through the XBTB.
 */

#ifndef XBS_CORE_FILL_UNIT_HH
#define XBS_CORE_FILL_UNIT_HH

#include "core/data_array.hh"
#include "core/params.hh"
#include "core/xbtb.hh"
#include "trace/trace.hh"

namespace xbs
{

class XbcFillUnit : public StatGroup
{
  public:
    XbcFillUnit(const XbcParams &params, XbcDataArray &array,
                Xbtb &xbtb, StatGroup *parent);

    /** Abandon the current partial XB and start fresh. */
    void restart();

    /** Result of feeding one instruction. */
    struct Completion
    {
        bool completed = false;
        uint64_t endIp = 0;      ///< tag of the completed XB
        InstClass endType = InstClass::Seq;
        std::size_t endRec = 0;  ///< trace record of the ending inst
        XbPointer startPtr;      ///< pointer entering at the XB start
        XbcDataArray::InsertOutcome outcome =
            XbcDataArray::InsertOutcome::Allocated;
    };

    /**
     * Feed the executed instruction at record @p rec. If it completes
     * an XB, the XB is stored and its XBTB entry allocated.
     */
    Completion feed(const Trace &trace, std::size_t rec);

    bool active() const { return !seq_.empty(); }

    ScalarStat xbsBuilt{this, "xbsBuilt", "XBs completed by the XFU"};
    ScalarStat quotaEnded{this, "quotaEnded",
        "XBs ended by the uop quota"};
    ScalarStat prefixSplits{this, "prefixSplits",
        "prefixes stored as independent XBs (PrefixSplit mode)"};

  private:
    /**
     * Store @p seq ending at @p end_ip, recursively splitting the
     * prefix when the array reports PrefixNeeded.
     *
     * @return pointer entering at seq's first instruction
     */
    XbPointer store(const Trace &trace, const XbSeq &seq,
                    uint64_t end_ip, InstClass end_type,
                    XbcDataArray::InsertOutcome *outcome);

    XbcParams params_;
    XbcDataArray &array_;
    Xbtb &xbtb_;

    XbSeq seq_;
    int32_t lastIdx_ = kNoTarget;  ///< static idx of last fed inst
    uint32_t prevMask_ = 0;        ///< banks of the last placed XB
};

} // namespace xbs

#endif // XBS_CORE_FILL_UNIT_HH
