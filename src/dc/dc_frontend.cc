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

unsigned
DcFrontend::supplyRun(const Trace &trace, std::size_t &rec,
                      unsigned &stall, bool &miss)
{
    miss = false;
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
    return supplied;
}

void
DcFrontend::saveState(CheckpointWriter &w) const
{
    Frontend::saveState(w);
    CkptSink sink;
    preds_.ckptSave(sink);
    pipe_.ckptSave(sink);
    dc_.ckptSave(sink);
    w.addSection("dc", sink.take());
}

Status
DcFrontend::restoreState(const CheckpointFile &f)
{
    Status st = Frontend::restoreState(f);
    if (!st.isOk())
        return st;
    const std::string *sec = f.section("dc");
    if (!sec) {
        return Status::error(StatusCode::Corrupt,
                             "checkpoint lacks a 'dc' section");
    }
    CkptSource src(*sec);
    preds_.ckptLoad(src);
    pipe_.ckptLoad(src);
    dc_.ckptLoad(src);
    if (!src.consumed()) {
        return Status::error(StatusCode::Corrupt,
                             "malformed checkpoint 'dc' section");
    }
    return Status::ok();
}

void
DcFrontend::run(const Trace &trace)
{
    const std::size_t num_records = trace.numRecords();
    std::size_t rec = 0;
    Mode mode = Mode::Build;
    unsigned stall = 0;
    if (auto resume = takeResume()) {
        rec = (std::size_t)resume->rec;
        mode = resume->mode ? Mode::Delivery : Mode::Build;
        stall = resume->stall;
    } else {
        attrib_.enterBuild(Cause::ColdStart);
    }

    while (rec < num_records && !stopRequested()) {
        maybeCheckpoint(rec, mode == Mode::Delivery ? 1 : 0, 0, stall);
        ++metrics_.cycles;
        observeCycle();
        if (stall > 0) {
            --stall;
            ++metrics_.stallCycles;
            attrib_.chargeSilentCycle();
            continue;
        }

        if (mode == Mode::Delivery) {
            bool miss = false;
            unsigned got;
            {
                ScopedPhase timer(prof_, phArray_);
                got = supplyRun(trace, rec, stall, miss);
            }
            metrics_.traceRecords.set(rec);
            if (miss) {
                mode = Mode::Build;
                ++metrics_.modeSwitches;
                attrib_.enterBuild(Cause::StructMiss);
                --metrics_.cycles;  // re-issue this cycle as build
                continue;
            }
            ++metrics_.deliveryCycles;
            metrics_.deliveryUops += got;
            metrics_.renamedUops += got;
        } else {
            ++metrics_.buildCycles;
            attrib_.chargeBuildCycle();
            std::size_t prev = rec;
            ScopedPhase timer(prof_, phBuild_);
            LegacyPipe::Result r = pipe_.cycle(trace, rec);
            metrics_.buildUops += r.uops;
            attrib_.chargeBuildUops(r.uops);
            stall += r.stall;
            for (std::size_t i = prev; i < rec; ++i) {
                oracleConsume(i, kNoTarget, 0);
                dc_.fill(trace.inst(i), trace.record(i).staticIdx);
            }
            metrics_.traceRecords.set(rec);
            // Return to delivery as soon as the next instruction's
            // window is cached (no trace/XB build boundary here).
            if (rec < num_records &&
                dc_.lookup(trace.inst(rec).ip,
                           trace.record(rec).staticIdx)
                    .first) {
                mode = Mode::Delivery;
            }
        }
    }
}

} // namespace xbs
