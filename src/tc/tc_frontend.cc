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

inline bool
TcFrontend::feedFill(const Trace &trace, std::size_t i)
{
    return fill_.feed(trace, i, [&](const TraceLine &l) {
        tc_.insert(l, trace.code(), tcParams_.pathAssociative);
    });
}

inline Frontend::Supply
TcFrontend::deliver(const Trace &trace, std::size_t &rec,
                    unsigned &stall, unsigned)
{
    const TraceLine *line = selectLine(trace, rec);
    if (!line)
        return {0, true, Cause::StructMiss};
    const std::size_t first = rec;
    const unsigned got = supplyLine(trace, *line, rec, stall);
    if (tcParams_.buildInDelivery) {
        // [Frie97]-style alternative fill policy: keep (re)building
        // traces from the supplied stream so partial-hit paths get
        // their own traces without a build-mode excursion.
        for (std::size_t i = first; i < rec; ++i)
            feedFill(trace, i);
    }
    return {got};
}

inline bool
TcFrontend::fill(const Trace &trace, std::size_t first,
                 std::size_t end)
{
    bool completed = false;
    for (std::size_t i = first; i < end; ++i)
        completed |= feedFill(trace, i);
    return completed && end < trace.numRecords() &&
           tc_.lookup(trace.inst(end).ip);
}

void
TcFrontend::run(const Trace &trace)
{
    runCycles(*this, trace, phArray_);
}

} // namespace xbs
