#include "ic/ic_frontend.hh"

namespace xbs
{

IcFrontend::IcFrontend(const FrontendParams &params)
    : Frontend("ic", params), preds_(params),
      pipe_(params_, metrics_, preds_)
{
    pipe_.attachAttrib(&attrib_);
}

void
IcFrontend::saveState(CheckpointWriter &w) const
{
    Frontend::saveState(w);
    CkptSink sink;
    preds_.ckptSave(sink);
    pipe_.ckptSave(sink);
    w.addSection("ic", sink.take());
}

Status
IcFrontend::restoreState(const CheckpointFile &f)
{
    Status st = Frontend::restoreState(f);
    if (!st.isOk())
        return st;
    const std::string *sec = f.section("ic");
    if (!sec) {
        return Status::error(StatusCode::Corrupt,
                             "checkpoint lacks an 'ic' section");
    }
    CkptSource src(*sec);
    preds_.ckptLoad(src);
    pipe_.ckptLoad(src);
    if (!src.consumed()) {
        return Status::error(StatusCode::Corrupt,
                             "malformed checkpoint 'ic' section");
    }
    return Status::ok();
}

void
IcFrontend::run(const Trace &trace)
{
    std::size_t rec = 0;
    if (auto resume = takeResume())
        rec = (std::size_t)resume->rec;
    while (rec < trace.numRecords() && !stopRequested()) {
        maybeCheckpoint(rec, 0, 0, 0);
        std::size_t prev = rec;
        LegacyPipe::Result r;
        {
            ScopedPhase timer(prof_, phFetch_);
            r = pipe_.cycle(trace, rec);
        }
        for (std::size_t i = prev; i < rec; ++i)
            oracleConsume(i, kNoTarget, 0);
        metrics_.traceRecords.set(rec);
        ++metrics_.cycles;
        // The IC baseline has no decoded-cache structure; count its
        // supply as "delivery" so bandwidth() reports its uops/cycle.
        ++metrics_.deliveryCycles;
        metrics_.deliveryUops += r.uops;
        metrics_.renamedUops += r.uops;
        metrics_.cycles += r.stall;
        metrics_.stallCycles += r.stall;
        attrib_.chargeSilentCycles(r.stall);
        observeCycle();
    }
}

} // namespace xbs
