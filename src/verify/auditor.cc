#include "verify/auditor.hh"

#include <string>

#include "bbtc/bbtc_frontend.hh"
#include "core/xbc_frontend.hh"
#include "dc/dc_frontend.hh"
#include "tc/tc_frontend.hh"

namespace xbs
{

void
InvariantAuditor::attach(Frontend &fe, const Trace &trace)
{
    trace_ = &trace;
    violations_.clear();
    mergedOracle_ = 0;
    lastWalk_ = 0;
    watchdogFired_ = false;
    oracle_.begin(&trace);
    fe.attachOracle(&oracle_);
    fe.attachCycleObserver(this);
}

void
InvariantAuditor::onCycle(Frontend &fe, uint64_t cycle)
{
    if (opts_.interval && cycle - lastWalk_ >= opts_.interval) {
        lastWalk_ = cycle;
        structuralWalk(fe, cycle);
    }
    // Bounded-slowdown watchdog: a fault injection must degrade into
    // the IC path, not a livelock. Report once.
    if (trace_ && !watchdogFired_ && trace_->numRecords() &&
        cycle > opts_.maxCyclesPerRecord * trace_->numRecords() +
                    10000) {
        AuditViolation v;
        v.kind = AuditViolation::Kind::Accounting;
        v.where = "auditor";
        v.what = "run exceeded the bounded-slowdown ceiling (" +
                 std::to_string(cycle) + " cycles for " +
                 std::to_string(trace_->numRecords()) + " records)";
        v.cycle = cycle;
        add(std::move(v));
        watchdogFired_ = true;
    }
}

void
InvariantAuditor::auditNow(Frontend &fe, uint64_t cycle)
{
    structuralWalk(fe, cycle);
}

void
InvariantAuditor::structuralWalk(Frontend &fe, uint64_t cycle)
{
    auto sink = [&](AuditViolation v) {
        v.cycle = cycle;
        add(std::move(v));
    };

    if (auto *xbc = dynamic_cast<XbcFrontend *>(&fe)) {
        xbc->dataArray().auditStorage(sink);
    } else if (auto *tc = dynamic_cast<TcFrontend *>(&fe)) {
        if (trace_)
            tc->cache().auditStorage(trace_->code(), sink);
    } else if (auto *dc = dynamic_cast<DcFrontend *>(&fe)) {
        dc->cache().auditStorage(sink);
    } else if (auto *bbtc = dynamic_cast<BbtcFrontend *>(&fe)) {
        if (trace_)
            bbtc->blockCache().auditStorage(trace_->code(), sink);
    }
    // IcFrontend has no decoded-cache structure; the delivery oracle
    // is the whole audit there.
}

void
InvariantAuditor::finishRun(Frontend &fe)
{
    uint64_t cycle = fe.metrics().cycles.value();
    structuralWalk(fe, cycle);
    oracle_.finish(cycle);

    // Metrics crosscheck: every uop reaches the frontend through
    // exactly one of the two supply paths, so their sum must equal
    // the trace total whenever the stream itself checked out.
    if (trace_ && oracle_.violations().empty()) {
        uint64_t supplied = fe.metrics().deliveryUops.value() +
                            fe.metrics().buildUops.value();
        if (supplied != trace_->totalUops()) {
            AuditViolation v;
            v.kind = AuditViolation::Kind::Accounting;
            v.where = "auditor";
            v.what = "deliveryUops + buildUops = " +
                     std::to_string(supplied) + ", trace has " +
                     std::to_string(trace_->totalUops());
            v.cycle = cycle;
            add(std::move(v));
        }
    }

    // The per-cycle contract (docs/MODEL.md): every simulated cycle
    // is exactly one of delivery, build or stall.
    const FrontendMetrics &m = fe.metrics();
    const uint64_t categorized = m.deliveryCycles.value() +
                                 m.buildCycles.value() +
                                 m.stallCycles.value();
    if (categorized != m.cycles.value()) {
        AuditViolation v;
        v.kind = AuditViolation::Kind::Accounting;
        v.where = "auditor";
        v.what = "deliveryCycles + buildCycles + stallCycles = " +
                 std::to_string(categorized) + ", cycles = " +
                 std::to_string(m.cycles.value());
        v.cycle = cycle;
        add(std::move(v));
    }

    // Merge the oracle's findings into the unified report.
    for (; mergedOracle_ < oracle_.violations().size();
         ++mergedOracle_) {
        if (violations_.size() < opts_.maxViolations)
            violations_.push_back(oracle_.violations()[mergedOracle_]);
    }

    fe.attachOracle(nullptr);
    fe.detachCycleObserver(this);
}

void
InvariantAuditor::add(AuditViolation v)
{
    if (violations_.size() < opts_.maxViolations)
        violations_.push_back(std::move(v));
}

std::size_t
InvariantAuditor::countOf(AuditViolation::Kind kind) const
{
    std::size_t n = 0;
    for (const auto &v : violations_)
        n += v.kind == kind;
    // Oracle findings not yet merged (before finishRun).
    if (kind == AuditViolation::Kind::Oracle)
        n += oracle_.violations().size() - mergedOracle_;
    return n;
}

void
InvariantAuditor::report(std::ostream &os) const
{
    if (ok()) {
        os << "audit: clean (" << oracle_.recordsConsumed()
           << " records, " << oracle_.uopsConsumed()
           << " uops checked)\n";
        return;
    }
    os << "audit: " << violations_.size() << " violation(s)"
       << " [oracle " << countOf(AuditViolation::Kind::Oracle)
       << ", structural " << countOf(AuditViolation::Kind::Structural)
       << ", accounting " << countOf(AuditViolation::Kind::Accounting)
       << "]\n";
    for (const auto &v : violations_) {
        os << "  [" << auditKindName(v.kind) << "] " << v.where
           << " @cycle " << v.cycle << ": " << v.what << "\n";
    }
}

} // namespace xbs
