#include "ic/ic_frontend.hh"

namespace xbs
{

IcFrontend::IcFrontend(const FrontendParams &params)
    : Frontend("ic", params), preds_(params),
      pipe_(params_, metrics_, preds_)
{
    pipe_.attachAttrib(&attrib_);
}

inline Frontend::Supply
IcFrontend::deliver(const Trace &trace, std::size_t &rec,
                    unsigned &stall, unsigned)
{
    const std::size_t first = rec;
    LegacyPipe::Result r = pipe_.cycle(trace, rec);
    for (std::size_t i = first; i < rec; ++i)
        oracleConsume(i, kNoTarget, 0);
    stall += r.stall;
    // The IC baseline has no decoded-cache structure; count its
    // supply as "delivery" so bandwidth() reports its uops/cycle.
    return {r.uops};
}

void
IcFrontend::run(const Trace &trace)
{
    runCycles(*this, trace, phFetch_);
}

} // namespace xbs
