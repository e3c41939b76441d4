#include "verify/inject.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/xbc_frontend.hh"
#include "isa/types.hh"

namespace xbs
{

const char *
injectKindName(InjectKind kind)
{
    switch (kind) {
      case InjectKind::XbtbFlip: return "xbtb-flip";
      case InjectKind::XfuDrop: return "xfu-drop";
      case InjectKind::LineKill: return "line-kill";
      case InjectKind::SlotCorrupt: return "slot-corrupt";
      case InjectKind::TraceFlip: return "trace-flip";
      case InjectKind::TraceTrunc: return "trace-trunc";
      case InjectKind::Hang: return "hang";
    }
    return "?";
}

Expected<InjectPlan>
parseInjectSpec(const std::string &spec)
{
    InjectPlan plan;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string tok = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (tok.empty()) {
            return Status::error(
                "empty action in inject spec '" + spec + "'");
        }

        InjectAction action;
        std::string kind = tok;
        std::size_t at = tok.find('@');
        if (at != std::string::npos) {
            kind = tok.substr(0, at);
            std::string num = tok.substr(at + 1);
            if (num.empty() ||
                num.find_first_not_of("0123456789") !=
                    std::string::npos) {
                return Status::error("bad period in inject action '" +
                                     tok + "'");
            }
            action.period = std::stoull(num);
            if (action.period == 0) {
                return Status::error(
                    "inject action '" + tok +
                    "' needs a non-zero period");
            }
        }

        if (kind == "xbtb-flip") {
            action.kind = InjectKind::XbtbFlip;
        } else if (kind == "xfu-drop") {
            action.kind = InjectKind::XfuDrop;
        } else if (kind == "line-kill") {
            action.kind = InjectKind::LineKill;
        } else if (kind == "slot-corrupt") {
            action.kind = InjectKind::SlotCorrupt;
        } else if (kind == "trace-flip") {
            action.kind = InjectKind::TraceFlip;
        } else if (kind == "trace-trunc") {
            action.kind = InjectKind::TraceTrunc;
        } else if (kind == "hang") {
            action.kind = InjectKind::Hang;
        } else {
            return Status::error("unknown inject kind '" + kind +
                                 "' (see --help for the grammar)");
        }
        if (action.period == 0) {
            bool trace_domain =
                action.kind == InjectKind::TraceFlip ||
                action.kind == InjectKind::TraceTrunc;
            action.period = trace_domain ? 8 : 10000;
        }
        plan.actions.push_back(action);

        if (comma == spec.size())
            break;
    }
    if (plan.actions.empty())
        return Status::error("empty inject spec");
    return plan;
}

Trace
FaultInjector::prepareTrace(const Trace &in)
{
    std::vector<TraceRecord> records;
    records.reserve(in.numRecords());
    for (std::size_t i = 0; i < in.numRecords(); ++i)
        records.push_back(in.record(i));

    for (const auto &a : plan_.actions) {
        if (a.kind == InjectKind::TraceFlip) {
            // Flip the direction of random conditional-branch
            // records. The record *stream* stays the authority on
            // the executed path, so the trace remains digestible;
            // predictors and embedded directions now disagree with
            // it, exercising the divergence paths.
            for (uint64_t n = 0; n < a.period && !records.empty();
                 ++n) {
                std::size_t i =
                    (std::size_t)rng_.below(records.size());
                const StaticInst &si =
                    in.code().inst(records[i].staticIdx);
                if (si.cls == InstClass::CondBranch) {
                    records[i].taken ^= 1;
                    ++injections_;
                    ++counts_[(int)InjectKind::TraceFlip];
                }
            }
        } else if (a.kind == InjectKind::TraceTrunc) {
            // Cut the stream at a random point in its back half,
            // modeling a trace producer dying mid-capture.
            if (records.size() > 2) {
                std::size_t keep =
                    records.size() / 2 +
                    (std::size_t)rng_.below(records.size() / 2);
                records.resize(std::max<std::size_t>(keep, 1));
                ++injections_;
                ++counts_[(int)InjectKind::TraceTrunc];
            }
        }
    }
    return Trace(in.codePtr(), std::move(records),
                 in.name() + "+injected");
}

void
FaultInjector::onCycle(Frontend &fe, uint64_t cycle)
{
    for (const auto &a : plan_.actions) {
        if (a.kind == InjectKind::TraceFlip ||
            a.kind == InjectKind::TraceTrunc) {
            continue;  // not cycle domain
        }
        if (cycle % a.period != 0)
            continue;
        if (apply(a.kind, fe)) {
            ++injections_;
            ++counts_[(int)a.kind];
        }
    }
}

bool
FaultInjector::apply(InjectKind kind, Frontend &fe)
{
    if (kind == InjectKind::Hang) {
        // Wedge here, mid-cycle: alive (signal handlers still set
        // their flags) but retiring nothing, so the drain flag a
        // SIGTERM raises is never seen and only the watchdog's
        // SIGKILL, after the grace period, ends the process. Sleep
        // rather than spin so a CI negative check doesn't burn a
        // core while it waits out the deadline.
        for (;;) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
    }

    auto *xbc = dynamic_cast<XbcFrontend *>(&fe);
    if (!xbc)
        return false;  // cycle-domain kinds target the XBC units

    switch (kind) {
      case InjectKind::XbtbFlip: {
        // Flip a bit in a valid prediction pointer: either an XBTB
        // successor/promotion pointer or an XiBTB slot. A corrupted
        // pointer must be rejected by the entryIdx check or miss the
        // array, never change the delivered stream.
        Xbtb &xbtb = xbc->mutableXbtb();
        XiBtb &xibtb = xbc->mutableXibtb();
        bool use_xibtb = rng_.chance(0.25) && xibtb.slotCount() > 0;
        for (unsigned attempt = 0; attempt < 32; ++attempt) {
            if (use_xibtb) {
                auto &slot = xibtb.slotAt(
                    (std::size_t)rng_.below(xibtb.slotCount()));
                if (!slot.valid || !slot.ptr.valid)
                    continue;
                slot.ptr.entryIdx ^=
                    (int32_t)(1 << rng_.below(8));
                return true;
            }
            auto &e = xbtb.entryAt(
                (std::size_t)rng_.below(xbtb.entryCount()));
            if (!e.valid)
                continue;
            XbPointer *ptrs[3] = {&e.taken, &e.fallthrough,
                                  &e.promotedPtr};
            XbPointer *p = ptrs[rng_.below(3)];
            if (!p->valid)
                continue;
            if (rng_.chance(0.5))
                p->xbIp ^= 1ull << rng_.below(16);
            else
                p->entryIdx ^= (int32_t)(1 << rng_.below(8));
            return true;
        }
        return false;
      }
      case InjectKind::XfuDrop:
        xbc->mutableFillUnit().restart();
        return true;
      case InjectKind::LineKill: {
        XbcDataArray &arr = xbc->mutableDataArray();
        for (unsigned attempt = 0; attempt < 32; ++attempt) {
            if (arr.faultInvalidateLine(
                    (std::size_t)rng_.below(arr.lineCount()))) {
                return true;
            }
        }
        return false;
      }
      case InjectKind::SlotCorrupt:
        return xbc->mutableDataArray().faultCorruptSlot(rng_);
      default:
        return false;
    }
}

std::string
FaultInjector::summary() const
{
    std::string out;
    for (int k = 0; k < kInjectKindCount; ++k) {
        if (!counts_[k])
            continue;
        if (!out.empty())
            out += ", ";
        out += std::string(injectKindName((InjectKind)k)) + " x" +
               std::to_string(counts_[k]);
    }
    return out.empty() ? "none applied" : out;
}

} // namespace xbs
