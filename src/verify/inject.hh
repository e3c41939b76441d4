/**
 * @file
 * Deterministic fault injection for robustness testing.
 *
 * The frontends' decoded-cache structures (XBTB, XiBTB, data array,
 * XFU, trace tables) are performance hints: no corruption in them may
 * ever change the delivered uop stream, only degrade bandwidth
 * (gracefully, through the IC path). The injector damages exactly
 * those structures mid-run, deterministically from a seed, so the
 * delivery oracle can verify the claim.
 *
 * Injection spec grammar (the --inject=<spec> CLI flag):
 *
 *   spec    := action ("," action)*
 *   action  := kind ("@" period)?
 *   kind    := "xbtb-flip" | "xfu-drop" | "line-kill"
 *            | "slot-corrupt" | "trace-flip" | "trace-trunc"
 *            | "hang" | "ckpt-flip"
 *
 * Cycle-domain kinds fire every `period` cycles (default 10000):
 *   xbtb-flip     flip a bit in a valid XBTB/XiBTB pointer
 *   xfu-drop      restart the fill unit, dropping the XB in flight
 *   line-kill     invalidate a random data-array line (bookkept)
 *   slot-corrupt  corrupt a resident uop slot's content consistently
 *   hang          wedge the process at the firing cycle: sleep
 *                 forever without retiring another uop (SIGTERM only
 *                 sets the drain flag, which the loop ignores, so
 *                 only SIGKILL ends it). Works on every frontend;
 *                 exists to exercise the sweep watchdog's
 *                 wall-clock deadline (TERM, grace, KILL).
 *
 * Trace-domain kinds perturb the input before the run; `period` is
 * the number of records affected (default 8):
 *   trace-flip    flip the taken bit of random cond-branch records
 *   trace-trunc   truncate the record stream at a random point
 * The run and the oracle both ground on the *injected* trace: the
 * simulator must digest it without aborting or losing instructions.
 *
 * Checkpoint-domain kind; `period` is the number of bits flipped
 * (default 1):
 *   ckpt-flip     flip seeded random bits of the checkpoint container
 *                 bytes in memory, after read and before parse (the
 *                 user's file on disk is never touched). The format
 *                 guarantees every flip is caught by the magic check,
 *                 a section CRC, or the guard hash, so the restore
 *                 must fail with a typed Corrupt status — never
 *                 crash, and never restore silently wrong state.
 */

#ifndef XBS_VERIFY_INJECT_HH
#define XBS_VERIFY_INJECT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/status.hh"
#include "frontend/frontend.hh"
#include "trace/trace.hh"

namespace xbs
{

enum class InjectKind
{
    XbtbFlip,
    XfuDrop,
    LineKill,
    SlotCorrupt,
    TraceFlip,
    TraceTrunc,
    Hang,
    CkptFlip,
};

/** Number of InjectKind values (per-kind count arrays). */
constexpr int kInjectKindCount = 8;

const char *injectKindName(InjectKind kind);

struct InjectAction
{
    InjectKind kind = InjectKind::XbtbFlip;
    /** Cycle-domain kinds: cycles between firings. Trace-domain
     *  kinds: number of records affected. */
    uint64_t period = 0;
};

struct InjectPlan
{
    std::vector<InjectAction> actions;

    bool
    hasTraceActions() const
    {
        for (const auto &a : actions) {
            if (a.kind == InjectKind::TraceFlip ||
                a.kind == InjectKind::TraceTrunc) {
                return true;
            }
        }
        return false;
    }

    bool
    hasCkptActions() const
    {
        for (const auto &a : actions) {
            if (a.kind == InjectKind::CkptFlip)
                return true;
        }
        return false;
    }
};

/** Parse an --inject spec; errors name the offending token. */
Expected<InjectPlan> parseInjectSpec(const std::string &spec);

class FaultInjector : public CycleObserver
{
  public:
    FaultInjector(const InjectPlan &plan, uint64_t seed)
        : plan_(plan), rng_(seed ? seed : 1)
    {
    }

    /**
     * Apply the plan's trace-domain actions to @p in and return the
     * injected trace (a copy of @p in when none apply). Run the
     * frontend — and ground the oracle — on the returned trace.
     */
    Trace prepareTrace(const Trace &in);

    /**
     * Apply the plan's ckpt-flip actions to checkpoint container
     * bytes in memory (a copy of @p bytes when none apply): each
     * action flips `period` seeded random bits. The source file is
     * never modified.
     */
    std::string prepareCheckpointBytes(const std::string &bytes);

    /** CycleObserver: applies due cycle-domain actions to @p fe
     *  (XBC-specific kinds are no-ops on other frontends). */
    void onCycle(Frontend &fe, uint64_t cycle) override;

    /** Total faults actually applied (including trace records). */
    uint64_t injections() const { return injections_; }

    /** One-line per-kind summary for reports. */
    std::string summary() const;

    const InjectPlan &plan() const { return plan_; }

  private:
    bool apply(InjectKind kind, Frontend &fe);

    InjectPlan plan_;
    Rng rng_;
    uint64_t injections_ = 0;
    uint64_t counts_[kInjectKindCount] = {};
};

} // namespace xbs

#endif // XBS_VERIFY_INJECT_HH
