/**
 * @file
 * The OUT_MUX reorder/align network (paper section 3.7).
 *
 * Each delivery cycle the banks produce up to one line each; the
 * first mux layer reorders the lines according to the XB order and
 * the bank order within each XB, and the second layer compacts the
 * partially used lines into a dense uop sequence for the renamer.
 * The paper's point is that a careful two-layer design does this in
 * a single cycle; the model checks the single-cycle feasibility
 * conditions (at most one line per bank, total width within the
 * 16-uop OUT_MUX) and gathers wiring statistics that a circuit
 * designer would care about (segments per cycle, alignment shift
 * distances). The supply path routes each claimed line segment as it
 * is granted and closes the cycle once; no per-cycle plan is built.
 */

#ifndef XBS_CORE_OUT_MUX_HH
#define XBS_CORE_OUT_MUX_HH

#include <cstdlib>

#include "common/stats.hh"
#include "core/params.hh"

namespace xbs
{

class OutMux : public StatGroup
{
  public:
    OutMux(const XbcParams &params, StatGroup *parent)
        : StatGroup("outmux", parent), params_(params)
    {
    }

    /**
     * Route one bank line's contribution of @p count uops into this
     * cycle's aligned output. Segments arrive in supply order (the
     * priority encoder's grant order); a repeated bank is a shared
     * read that the mux fans out to a second segment.
     *
     * @return the segment's offset in the compacted sequence; panics
     *         if the cycle is physically infeasible (width overflow)
     */
    unsigned
    route(unsigned bank, unsigned count)
    {
        xbs_assert(bank < params_.numBanks, "bank out of range");
        xbs_assert(count >= 1 && count <= params_.bankUops,
                   "segment count out of range");
        const unsigned dst = routed_;
        // Alignment shift: distance between the segment's natural
        // position (its bank's fixed slice of the raw 16-wide read)
        // and its compacted position.
        shift.sample(std::abs((int)(bank * params_.bankUops) - (int)dst));
        routed_ += count;
        xbs_assert(routed_ <= params_.xbQuotaUops,
                   "OUT_MUX width exceeded");
        ++segments;
        return dst;
    }

    /** End the delivery cycle; one that routed a segment counts. */
    void
    closeCycle()
    {
        if (routed_ == 0)
            return;
        ++cycles;
        occupancy.sample((double)routed_);
        routed_ = 0;
    }

    ScalarStat cycles{this, "cycles", "cycles planned"};
    ScalarStat segments{this, "segments", "line segments routed"};
    AverageStat occupancy{this, "occupancy",
        "uops per planned cycle"};
    DistributionStat shift{this, "shift",
        "alignment shift distance in uop slots", 0, 17, 1};

  private:
    XbcParams params_;
    unsigned routed_ = 0;  ///< uops routed so far this cycle
};

} // namespace xbs

#endif // XBS_CORE_OUT_MUX_HH
