/**
 * @file
 * The invariant auditor: an attachable oracle that checks a frontend
 * run end to end.
 *
 * Two layers:
 *  - the delivery oracle (frontend/oracle.hh) replays the trace
 *    architecturally and checks the frontends' supplied stream
 *    against it (in order, exactly once, content matching the static
 *    code);
 *  - periodic structural walks audit the decoded-cache structures
 *    against the paper's invariants (XBC: single exit, 16-uop quota,
 *    reverse-order banking, head-first aging, suffix-sharing
 *    consistency, redundancy accounting; TC/DC/BBTC: build limits and
 *    accounting).
 *
 * Violations are collected into a structured report — the auditor
 * never aborts the run, so it stays usable under fault injection.
 */

#ifndef XBS_VERIFY_AUDITOR_HH
#define XBS_VERIFY_AUDITOR_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "frontend/frontend.hh"
#include "frontend/oracle.hh"
#include "trace/trace.hh"

namespace xbs
{

struct AuditorOptions
{
    /** Cycles between structural walks (0 = end-of-run only). */
    uint64_t interval = 100000;

    /** Cap on collected violations (a corrupted structure would
     *  otherwise flood the report with repeats). */
    std::size_t maxViolations = 256;

    /** Bounded-slowdown ceiling: cycles per trace record the run may
     *  spend before the auditor flags a livelock. Generous — a clean
     *  run spends low single digits. */
    uint64_t maxCyclesPerRecord = 200;
};

class InvariantAuditor : public CycleObserver
{
  public:
    explicit InvariantAuditor(const AuditorOptions &opts = {})
        : opts_(opts)
    {
    }

    /**
     * Arm the auditor for one run of @p fe over @p trace: attaches
     * the delivery oracle and the per-cycle observer and resets all
     * collected state. Call before fe.run(trace); pair with
     * finishRun(fe) afterwards.
     */
    void attach(Frontend &fe, const Trace &trace);

    /** End-of-run checks (final structural walk, oracle coverage,
     *  metrics crosscheck) and detach from @p fe. */
    void finishRun(Frontend &fe);

    /** CycleObserver: periodic structural walks. */
    void onCycle(Frontend &fe, uint64_t cycle) override;

    /** Run a structural walk immediately (test hook). */
    void auditNow(Frontend &fe, uint64_t cycle = 0);

    bool ok() const { return violations_.empty() && oracleClean(); }

    /** All collected violations (oracle ones merged by finishRun). */
    const std::vector<AuditViolation> &violations() const
    {
        return violations_;
    }

    /** Number of collected violations of @p kind. */
    std::size_t countOf(AuditViolation::Kind kind) const;

    /** Human-readable report ("audit: clean" or the violation list
     *  with per-kind totals). */
    void report(std::ostream &os) const;

    const DeliveryOracle &oracle() const { return oracle_; }

  private:
    bool oracleClean() const
    {
        return oracle_.violations().size() == mergedOracle_;
    }

    void structuralWalk(Frontend &fe, uint64_t cycle);
    void add(AuditViolation v);

    AuditorOptions opts_;
    DeliveryOracle oracle_;
    const Trace *trace_ = nullptr;
    std::vector<AuditViolation> violations_;
    std::size_t mergedOracle_ = 0;  ///< oracle violations merged in
    uint64_t lastWalk_ = 0;
    bool watchdogFired_ = false;
};

} // namespace xbs

#endif // XBS_VERIFY_AUDITOR_HH
