#include "tc/tc_frontend.hh"

#include "common/logging.hh"
#include "frontend/control.hh"

namespace xbs
{

TcFrontend::TcFrontend(const FrontendParams &params,
                       const TcParams &tc_params)
    : Frontend("tc", params), tcParams_(tc_params), preds_(params_),
      pipe_(params_, metrics_, preds_),
      tc_(tc_params.capacityUops, tc_params.ways, tc_params.limits,
          &root_),
      fill_(tc_params.limits)
{
    pipe_.attachAttrib(&attrib_);
}

const TraceLine *
TcFrontend::selectLine(const Trace &trace, std::size_t rec)
{
    if (!tcParams_.pathAssociative)
        return tc_.lookup(trace.inst(rec).ip);

    // Path-associative selection: among the same-IP candidates, take
    // the one whose embedded path matches the actual path longest
    // (a perfect next-trace selector, the upper bound of [Jaco97]).
    auto candidates = tc_.lookupAll(trace.inst(rec).ip);
    const TraceLine *best = nullptr;
    std::size_t best_match = 0;
    for (const TraceLine *l : candidates) {
        std::size_t m = 0;
        for (; m < l->insts.size() &&
               rec + m < trace.numRecords(); ++m) {
            if (trace.record(rec + m).staticIdx !=
                l->insts[m].staticIdx) {
                break;
            }
        }
        if (!best || m > best_match) {
            best = l;
            best_match = m;
        }
    }
    if (best)
        tc_.touch(best);
    return best;
}

unsigned
TcFrontend::supplyLine(const Trace &trace, const TraceLine &line,
                       std::size_t &rec, unsigned &stall)
{
    unsigned supplied = 0;
    bool full_match = true;
    attrib_.clearDisruption();

    for (const auto &e : line.insts) {
        if (rec >= trace.numRecords())
            break;
        if (trace.record(rec).staticIdx != e.staticIdx) {
            // The resident trace was built along a different path
            // than the one executing now: partial hit.
            full_match = false;
            attrib_.noteDisruption(Cause::PartialHit);
            break;
        }

        const StaticInst &si = trace.inst(rec);
        const bool actual_taken = trace.record(rec).taken != 0;
        unsigned penalty = 0;
        bool trace_diverges = false;

        if (si.isControl()) {
            penalty = predictControl(params_, metrics_, preds_, trace,
                                     rec, /*legacy_path=*/false,
                                     &attrib_);
            if (si.cls == InstClass::CondBranch && penalty == 0 &&
                (e.taken != 0) != actual_taken) {
                // Predictor right, embedded path wrong: supply stops
                // after the branch, next lookup resumes at the
                // actual target. No bubble: the disagreement is
                // known at prediction time.
                trace_diverges = true;
            }
        }

        oracleConsume(rec, e.staticIdx, si.numUops);
        supplied += si.numUops;
        ++rec;

        if (penalty > 0) {
            stall += penalty;
            full_match = false;
            break;
        }
        if (trace_diverges) {
            full_match = false;
            attrib_.noteDisruption(Cause::PartialHit);
            break;
        }
    }

    if (!full_match)
        partialHitUops_ += supplied;
    return supplied;
}

void
TcFrontend::saveState(CheckpointWriter &w) const
{
    Frontend::saveState(w);
    CkptSink sink;
    preds_.ckptSave(sink);
    pipe_.ckptSave(sink);
    tc_.ckptSave(sink);
    fill_.ckptSave(sink);
    sink.u64(partialHitUops_);
    w.addSection("tc", sink.take());
}

Status
TcFrontend::restoreState(const CheckpointFile &f)
{
    Status st = Frontend::restoreState(f);
    if (!st.isOk())
        return st;
    const std::string *sec = f.section("tc");
    if (!sec) {
        return Status::error(StatusCode::Corrupt,
                             "checkpoint lacks a 'tc' section");
    }
    CkptSource src(*sec);
    preds_.ckptLoad(src);
    pipe_.ckptLoad(src);
    tc_.ckptLoad(src);
    fill_.ckptLoad(src);
    partialHitUops_ = src.u64();
    if (!src.consumed()) {
        return Status::error(StatusCode::Corrupt,
                             "malformed checkpoint 'tc' section");
    }
    return Status::ok();
}

void
TcFrontend::run(const Trace &trace)
{
    const std::size_t num_records = trace.numRecords();
    std::size_t rec = 0;
    Mode mode = Mode::Build;
    unsigned buffer = 0;   // undelivered uops sitting in the XBQ-like
                           // fetch buffer, drained 8/cycle
    unsigned stall = 0;
    if (auto resume = takeResume()) {
        rec = (std::size_t)resume->rec;
        mode = resume->mode ? Mode::Delivery : Mode::Build;
        buffer = resume->buffer;
        stall = resume->stall;
    } else {
        fill_.restart();
        attrib_.enterBuild(Cause::ColdStart);
    }

    while ((rec < num_records || buffer > 0) && !stopRequested()) {
        maybeCheckpoint(rec, mode == Mode::Delivery ? 1 : 0, buffer,
                        stall);
        ++metrics_.cycles;
        metrics_.traceRecords.set(rec);
        observeCycle();

        if (stall > 0) {
            // Fetch-silent bubble; the buffer keeps draining, but
            // neither the uops nor the cycle count toward the
            // steady-state bandwidth metric.
            --stall;
            ++metrics_.stallCycles;
            attrib_.chargeSilentCycle();
            buffer -= std::min(buffer, params_.renamerWidth);
            continue;
        }

        if (mode == Mode::Delivery) {
            ++metrics_.deliveryCycles;

            if (buffer < params_.renamerWidth && rec < num_records) {
                ScopedPhase arrayTimer(prof_, phArray_);
                const TraceLine *line = selectLine(trace, rec);
                if (line) {
                    std::size_t prev = rec;
                    unsigned got =
                        supplyLine(trace, *line, rec, stall);
                    metrics_.deliveryUops += got;
                    buffer += got;
                    if (tcParams_.buildInDelivery) {
                        // [Frie97]-style alternative fill policy:
                        // keep (re)building traces from the supplied
                        // stream so partial-hit paths get their own
                        // traces without a build-mode excursion.
                        for (std::size_t i = prev; i < rec; ++i) {
                            fill_.feed(trace, i,
                                       [&](const TraceLine &l) {
                                           tc_.insert(
                                               l, trace.code(),
                                               tcParams_
                                                   .pathAssociative);
                                       });
                        }
                    }
                } else if (buffer == 0) {
                    mode = Mode::Build;
                    ++metrics_.modeSwitches;
                    fill_.restart();
                    attrib_.enterBuild(Cause::StructMiss);
                    // This cycle becomes the first build cycle.
                    --metrics_.deliveryCycles;
                    ++metrics_.buildCycles;
                    attrib_.chargeBuildCycle();
                    std::size_t prev = rec;
                    ScopedPhase buildTimer(prof_, phBuild_);
                    LegacyPipe::Result r = pipe_.cycle(trace, rec);
                    metrics_.buildUops += r.uops;
                    attrib_.chargeBuildUops(r.uops);
                    stall += r.stall;
                    bool completed = false;
                    for (std::size_t i = prev; i < rec; ++i) {
                        oracleConsume(i, kNoTarget, 0);
                        completed |= fill_.feed(
                            trace, i, [&](const TraceLine &l) {
                                tc_.insert(l, trace.code(),
                                           tcParams_.pathAssociative);
                            });
                    }
                    if (completed && rec < num_records &&
                        tc_.lookup(trace.inst(rec).ip)) {
                        mode = Mode::Delivery;
                    }
                    continue;
                }
            }
            {
                unsigned drained =
                    std::min(buffer, params_.renamerWidth);
                metrics_.renamedUops += drained;
                buffer -= drained;
            }
        } else {
            ++metrics_.buildCycles;
            attrib_.chargeBuildCycle();
            std::size_t prev = rec;
            ScopedPhase buildTimer(prof_, phBuild_);
            LegacyPipe::Result r = pipe_.cycle(trace, rec);
            metrics_.buildUops += r.uops;
            attrib_.chargeBuildUops(r.uops);
            stall += r.stall;
            bool completed = false;
            for (std::size_t i = prev; i < rec; ++i) {
                oracleConsume(i, kNoTarget, 0);
                completed |= fill_.feed(
                    trace, i, [&](const TraceLine &l) {
                        tc_.insert(l, trace.code(),
                                   tcParams_.pathAssociative);
                    });
            }
            if (completed && rec < num_records &&
                tc_.lookup(trace.inst(rec).ip)) {
                mode = Mode::Delivery;
            }
        }
    }
    metrics_.traceRecords.set(rec);
}

} // namespace xbs
