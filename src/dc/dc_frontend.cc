#include "dc/dc_frontend.hh"

#include <algorithm>

#include "frontend/control.hh"

namespace xbs
{

DcFrontend::DcFrontend(const FrontendParams &params,
                       const DecodedCacheParams &dc_params)
    : Frontend("dcfe", params), dcParams_(dc_params), preds_(params_),
      pipe_(params_, metrics_, preds_), dc_(dcParams_, &root_)
{
    pipe_.attachAttrib(&attrib_);
}

Frontend::Supply
DcFrontend::supplyRun(const Trace &trace, std::size_t &rec,
                      unsigned &stall)
{
    bool miss = false;
    unsigned supplied = 0;
    const DecodedCache::Line *line = nullptr;
    uint64_t cur_window = ~0ULL;

    while (rec < trace.numRecords() &&
           supplied < params_.renamerWidth) {
        const StaticInst &si = trace.inst(rec);
        uint64_t window = dc_.windowOf(si.ip);
        if (window != cur_window) {
            if (cur_window != ~0ULL) {
                // A sequential run may cross into the next window
                // only once per cycle (single-ported array).
                break;
            }
            auto [l, pos] = dc_.lookup(si.ip,
                                       trace.record(rec).staticIdx);
            (void)pos;
            if (!l) {
                miss = supplied == 0;
                break;
            }
            attrib_.clearDisruption();
            line = l;
            cur_window = window;
        } else {
            // Same window: the instruction must be present in the
            // line (fragmentation drops punch holes).
            bool present = false;
            for (const auto &di : line->insts) {
                if (di.staticIdx == trace.record(rec).staticIdx) {
                    present = true;
                    break;
                }
            }
            if (!present) {
                miss = supplied == 0;
                break;
            }
        }

        if (supplied + si.numUops > params_.renamerWidth)
            break;

        oracleConsume(rec, trace.record(rec).staticIdx, si.numUops);
        supplied += si.numUops;
        bool redirects = si.isControl() &&
                         !(si.cls == InstClass::CondBranch &&
                           trace.record(rec).taken == 0);
        if (si.isControl()) {
            stall += predictControl(params_, metrics_, preds_, trace,
                                    rec, /*legacy_path=*/true,
                                    &attrib_);
        }
        ++rec;
        if (redirects || stall > 0)
            break;
    }
    return {supplied, miss, Cause::StructMiss};
}

inline bool
DcFrontend::fill(const Trace &trace, std::size_t first,
                 std::size_t end)
{
    for (std::size_t i = first; i < end; ++i)
        dc_.fill(trace.inst(i), trace.record(i).staticIdx);
    // Return to delivery as soon as the next instruction's window is
    // cached (no trace/XB build boundary here).
    return end < trace.numRecords() &&
           dc_.lookup(trace.inst(end).ip, trace.record(end).staticIdx)
               .first;
}

void
DcFrontend::run(const Trace &trace)
{
    runCycles(*this, trace, phArray_);
}

} // namespace xbs
