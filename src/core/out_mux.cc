#include "core/out_mux.hh"

#include <cmath>

#include "common/logging.hh"

namespace xbs
{

OutMux::OutMux(const XbcParams &params, StatGroup *parent)
    : StatGroup("outmux", parent), params_(params)
{
}

MuxPlan
OutMux::plan(const std::vector<MuxInput> &inputs)
{
    MuxPlan out;

    // A bank may appear more than once only when the priority
    // encoder granted a *shared* read (the same physical line
    // feeding two output segments, e.g. a one-XB loop supplied
    // twice in a cycle); the mux fans the single read out.
    unsigned dst = 0;
    for (const auto &in : inputs) {
        xbs_assert(in.bank < params_.numBanks, "bank out of range");
        xbs_assert(in.count >= 1 && in.count <= params_.bankUops,
                   "segment count out of range");

        MuxSegment seg;
        seg.bank = in.bank;
        seg.count = in.count;
        seg.dstOffset = (uint8_t)dst;

        // Alignment shift: distance between the segment's natural
        // position (its bank's fixed slice of the raw 16-wide read)
        // and its compacted position.
        unsigned natural = in.bank * params_.bankUops;
        shift.sample(std::abs((int)natural - (int)dst));

        dst += in.count;
        xbs_assert(dst <= params_.xbQuotaUops,
                   "OUT_MUX width exceeded");
        out.push_back(seg);  // in bounds: dst counts >= 1 per segment
    }

    ++cycles;
    segments += inputs.size();
    occupancy.sample((double)dst);
    return out;
}

} // namespace xbs
