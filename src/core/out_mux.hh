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
 * distances).
 */

#ifndef XBS_CORE_OUT_MUX_HH
#define XBS_CORE_OUT_MUX_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "core/params.hh"
#include "core/xb.hh"

namespace xbs
{

/** One bank line's contribution to a cycle's output. */
struct MuxInput
{
    uint8_t bank = 0;
    uint8_t count = 0;  ///< uops read from this line
};

/** Where a contribution lands in the aligned output. */
struct MuxSegment
{
    uint8_t bank = 0;
    uint8_t count = 0;
    uint8_t dstOffset = 0;  ///< position in the compacted sequence
};

/** One cycle's placement: every segment carries at least one uop of
 *  the at most kMaxXbUops-wide output, so it fits inline. */
using MuxPlan = InlineVec<MuxSegment, kMaxXbUops>;

class OutMux : public StatGroup
{
  public:
    OutMux(const XbcParams &params, StatGroup *parent);

    /**
     * Compute the reorder+align plan for one cycle.
     *
     * @param inputs per-line contributions, already in supply order
     *        (the priority encoder's output). A repeated bank means
     *        a shared read fanned out to two segments.
     * @return dense placement; panics if the cycle is physically
     *         infeasible (width overflow)
     */
    MuxPlan plan(const std::vector<MuxInput> &inputs);

    ScalarStat cycles{this, "cycles", "cycles planned"};
    ScalarStat segments{this, "segments", "line segments routed"};
    AverageStat occupancy{this, "occupancy",
        "uops per planned cycle"};
    DistributionStat shift{this, "shift",
        "alignment shift distance in uop slots", 0, 17, 1};

  private:
    XbcParams params_;
};

} // namespace xbs

#endif // XBS_CORE_OUT_MUX_HH
