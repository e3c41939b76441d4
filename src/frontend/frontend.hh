/**
 * @file
 * Abstract frontend interface: a structure that consumes a dynamic
 * trace and reports cycle/uop metrics. Concrete implementations are
 * IcFrontend, TcFrontend, and XbcFrontend.
 *
 * The simulator is trace-driven with oracle resteer: the frontend
 * always follows the actual dynamic path, consults its predictors
 * along it, and charges penalty bubbles whenever a prediction
 * disagrees with the actual outcome. This matches the methodology of
 * standalone frontend studies (hit rates and bandwidth are exact;
 * wrong-path fetch effects are out of scope, as in the paper).
 *
 * Observability: every frontend accepts an IntervalSampler for
 * windowed statistics. It is pay-for-use: with nothing attached, the
 * per-cycle cost is one branch.
 */

#ifndef XBS_FRONTEND_FRONTEND_HH
#define XBS_FRONTEND_FRONTEND_HH

#include <algorithm>
#include <csignal>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "attrib/recorder.hh"
#include "ckpt/checkpoint.hh"
#include "common/interval_stats.hh"
#include "common/stats.hh"
#include "frontend/metrics.hh"
#include "frontend/oracle.hh"
#include "frontend/params.hh"
#include "prof/phase_profiler.hh"
#include "trace/trace.hh"

namespace xbs
{

class Frontend;

/**
 * Per-cycle observer ticked from every frontend's run loop right
 * after the cycle counter advances. The invariant auditor and the
 * fault injectors (src/verify) hang off this; with none attached the
 * cost is one branch per cycle.
 */
class CycleObserver
{
  public:
    virtual ~CycleObserver() = default;
    virtual void onCycle(Frontend &fe, uint64_t cycle) = 0;
};

/**
 * Snapshot of a frontend run loop's scalar state at a checkpoint
 * cycle boundary. The field meanings are frontend-specific (each
 * run() documents its encoding); the base class only stores and
 * round-trips them.
 */
struct RunLoopState
{
    uint64_t rec = 0;     ///< next trace record to process
    uint32_t mode = 0;    ///< mode-FSM state (frontend encoding)
    uint32_t buffer = 0;  ///< buffered uops / auxiliary counter
    uint32_t stall = 0;   ///< pending stall cycles
};

class Frontend
{
  public:
    Frontend(std::string name, const FrontendParams &params)
        : root_(std::move(name)), metrics_(&root_), params_(params)
    {
    }

    virtual ~Frontend() = default;

    Frontend(const Frontend &) = delete;
    Frontend &operator=(const Frontend &) = delete;

    /** Simulate the whole trace, accumulating metrics. */
    virtual void run(const Trace &trace) = 0;

    /** Human-readable structure name ("ic", "tc", "xbc"). */
    const std::string &name() const { return root_.statName(); }

    const FrontendMetrics &metrics() const { return metrics_; }
    FrontendMetrics &metrics() { return metrics_; }

    /** Root stat group (frontends hang structure stats below it). */
    StatGroup &statRoot() { return root_; }
    const StatGroup &statRoot() const { return root_; }

    const FrontendParams &params() const { return params_; }

    /** Root-cause attribution recorder (src/attrib). */
    AttribRecorder &attrib() { return attrib_; }
    const AttribRecorder &attrib() const { return attrib_; }

    /** XBC structure accounting, when this frontend has one. */
    virtual const ArrayAccounting *arrayAccounting() const
    {
        return nullptr;
    }

    /** Attach (or detach, with nullptr) an interval sampler ticked
     *  once per simulated cycle during run(). */
    void attachSampler(IntervalSampler *sampler)
    {
        sampler_ = sampler;
    }

    /**
     * Attach an external stop request (typically a sig_atomic_t set
     * by a SIGINT/SIGTERM handler; see common/signals.hh). Every run
     * loop polls it at the cycle boundary and returns early when it
     * goes nonzero, leaving metrics and observation state consistent
     * so a supervisor-terminated job still flushes usable partial
     * output. nullptr detaches.
     */
    void attachStopFlag(const volatile std::sig_atomic_t *flag)
    {
        stopFlag_ = flag;
    }

    /** True once the attached stop flag has been raised. */
    bool stopRequested() const
    {
        return stopFlag_ && *stopFlag_ != 0;
    }

    /// @{ Verification hooks (src/verify): per-cycle observers and
    ///    the delivery oracle the supply paths report records to.
    void
    attachCycleObserver(CycleObserver *obs)
    {
        if (obs && std::find(observers_.begin(), observers_.end(),
                             obs) == observers_.end()) {
            observers_.push_back(obs);
        }
    }

    void
    detachCycleObserver(CycleObserver *obs)
    {
        observers_.erase(std::remove(observers_.begin(),
                                     observers_.end(), obs),
                         observers_.end());
    }

    /** Attach (or detach, with nullptr) the delivery oracle. The
     *  caller owns it and calls begin()/finish() around run(). */
    void attachOracle(DeliveryOracle *oracle) { oracle_ = oracle; }
    DeliveryOracle *oracle() { return oracle_; }
    /// @}

    /**
     * Attach (or detach, with nullptr) a host-time phase profiler
     * (src/prof). Registers this frontend's standard phase tree —
     * fetch (legacy IC pipe), build (structure construction), array
     * (decoded-structure delivery) — and lets the concrete frontend
     * hook component sub-phases ("predict") via registerPhases().
     * Detached, every instrumented scope costs one branch.
     */
    void
    attachProfiler(PhaseProfiler *prof)
    {
        prof_ = prof;
        phFetch_ = phBuild_ = phArray_ = PhaseProfiler::kNoPhase;
        if (prof) {
            phFetch_ = prof->definePhase("fetch");
            phBuild_ = prof->definePhase("build");
            phArray_ = prof->definePhase("array");
        }
        registerPhases(prof);
    }

    PhaseProfiler *profiler() { return prof_; }

    /**
     * Flush observation state after run(): emits the sampler's final
     * partial window. Drivers that attached a sampler call this once
     * per run before reading the outputs.
     */
    void
    finishObservation()
    {
        if (sampler_)
            sampler_->finish(metrics_.cycles.value());
    }

    /// @{ Warm-state checkpoint/restore (src/ckpt).

    /** Callback fired at the checkpoint cycle, with the run loop
     *  parked at a cycle boundary; typically serializes the frontend
     *  via saveState() and writes the container to disk. */
    using CkptHook = std::function<Status(Frontend &)>;

    /**
     * Arm a one-shot checkpoint: the first cycle boundary at or
     * after @p cycle fires @p hook (">=", not "==": run loops may
     * advance the cycle counter by more than one). The run then
     * continues normally — cutting a live-point does not perturb
     * the simulated outcome.
     */
    void
    armCheckpoint(uint64_t cycle, CkptHook hook)
    {
        ckptAt_ = cycle;
        ckptHook_ = std::move(hook);
        ckptArmed_ = true;
        ckptTaken_ = false;
        ckptStatus_ = Status::ok();
    }

    bool checkpointArmed() const { return ckptArmed_; }

    /** True once an armed checkpoint has fired during run(). */
    bool checkpointTaken() const { return ckptTaken_; }

    /** Outcome of the checkpoint hook (ok until fired). */
    const Status &checkpointStatus() const { return ckptStatus_; }

    /**
     * Serialize the complete warm state into @p w. The base class
     * contributes the sections every frontend shares — "stats" (the
     * whole stat tree, including cycle/uop metrics), "attrib" (the
     * attribution recorder) and "loop" (the parked run-loop scalars);
     * overrides call this first and then append one frontend-specific
     * section holding predictors, pipes, and storage structures.
     *
     * Only valid while the run loop is parked at a cycle boundary
     * (inside a checkpoint hook) or before/after run().
     */
    virtual void
    saveState(CheckpointWriter &w) const
    {
        {
            CkptSink sink;
            saveStatTree(root_, sink);
            w.addSection("stats", sink.take());
        }
        {
            CkptSink sink;
            attrib_.ckptSave(sink);
            w.addSection("attrib", sink.take());
        }
        {
            CkptSink sink;
            sink.u64(loopState_.rec);
            sink.u32(loopState_.mode);
            sink.u32(loopState_.buffer);
            sink.u32(loopState_.stall);
            w.addSection("loop", sink.take());
        }
    }

    /**
     * Restore warm state from a parsed checkpoint and queue the
     * run-loop resume point consumed by the next run() call. All-or-
     * nothing per the class contract: any missing or malformed
     * section returns Corrupt and the frontend must then be treated
     * as unusable (callers fall back to a cold start with a fresh
     * frontend, never this one).
     */
    virtual Status
    restoreState(const CheckpointFile &f)
    {
        const std::string *stats = f.section("stats");
        if (!stats) {
            return Status::error(StatusCode::Corrupt,
                                 "checkpoint lacks a 'stats' section");
        }
        {
            CkptSource src(*stats);
            Status st = loadStatTree(root_, src);
            if (!st.isOk())
                return st;
            if (!src.consumed()) {
                return Status::error(
                    StatusCode::Corrupt,
                    "malformed checkpoint 'stats' section");
            }
        }
        const std::string *attrib = f.section("attrib");
        if (!attrib) {
            return Status::error(
                StatusCode::Corrupt,
                "checkpoint lacks an 'attrib' section");
        }
        {
            CkptSource src(*attrib);
            attrib_.ckptLoad(src);
            if (!src.consumed()) {
                return Status::error(
                    StatusCode::Corrupt,
                    "malformed checkpoint 'attrib' section");
            }
        }
        const std::string *loop = f.section("loop");
        if (!loop) {
            return Status::error(StatusCode::Corrupt,
                                 "checkpoint lacks a 'loop' section");
        }
        {
            CkptSource src(*loop);
            RunLoopState st;
            st.rec = src.u64();
            st.mode = src.u32();
            st.buffer = src.u32();
            st.stall = src.u32();
            if (!src.consumed()) {
                return Status::error(
                    StatusCode::Corrupt,
                    "malformed checkpoint 'loop' section");
            }
            resume_ = st;
        }
        return Status::ok();
    }

    /** True when a restore is queued and the next run() will resume
     *  mid-trace instead of cold-starting. */
    bool hasResume() const { return resume_.has_value(); }
    /// @}

  protected:
    /** Derived frontends register component sub-phases here (e.g.
     *  LegacyPipe's "predict" under fetch); called with nullptr on
     *  detach so components drop their phase handles too. */
    virtual void registerPhases(PhaseProfiler *prof) { (void)prof; }

    /** Per-cycle observation hook; run loops call this right after
     *  advancing metrics_.cycles. One branch when nothing attached. */
    void
    observeCycle()
    {
        if (sampler_)
            sampler_->tick(metrics_.cycles.value());
        if (!observers_.empty()) {
            for (CycleObserver *obs : observers_)
                obs->onCycle(*this, metrics_.cycles.value());
        }
    }

    /**
     * Checkpoint trigger, called by every run loop at the top of the
     * cycle loop (before the cycle counter advances) with the loop's
     * live scalars. When the armed cycle has been reached the scalars
     * are parked in loopState_, the hook runs, and the trigger
     * disarms; the run loop then continues unchanged.
     */
    void
    maybeCheckpoint(uint64_t rec, uint32_t mode, uint32_t buffer,
                    uint32_t stall)
    {
        if (!ckptArmed_ || metrics_.cycles.value() < ckptAt_)
            return;
        ckptArmed_ = false;
        loopState_.rec = rec;
        loopState_.mode = mode;
        loopState_.buffer = buffer;
        loopState_.stall = stall;
        ckptTaken_ = true;
        if (ckptHook_)
            ckptStatus_ = ckptHook_(*this);
    }

    /** Consume the queued resume point (run() entry: present after a
     *  successful restoreState, in place of cold-start init). */
    std::optional<RunLoopState>
    takeResume()
    {
        std::optional<RunLoopState> r = std::move(resume_);
        resume_.reset();
        return r;
    }

    /** Report a delivered record to the oracle, if attached. See
     *  DeliveryOracle::consume for the cached_idx convention. */
    void
    oracleConsume(std::size_t rec, int32_t cached_idx,
                  unsigned cached_uops)
    {
        if (oracle_) {
            oracle_->consume(rec, cached_idx, cached_uops,
                             metrics_.cycles.value());
        }
    }

    StatGroup root_;
    FrontendMetrics metrics_;
    FrontendParams params_;
    AttribRecorder attrib_{&root_};

    /// @{ Host-time profiling (null/kNoPhase when detached).
    PhaseProfiler *prof_ = nullptr;
    unsigned phFetch_ = PhaseProfiler::kNoPhase;
    unsigned phBuild_ = PhaseProfiler::kNoPhase;
    unsigned phArray_ = PhaseProfiler::kNoPhase;
    /// @}

    /// @{ Checkpoint plumbing (see armCheckpoint/maybeCheckpoint).
    RunLoopState loopState_;
    std::optional<RunLoopState> resume_;
    /// @}

  private:
    uint64_t ckptAt_ = 0;
    CkptHook ckptHook_;
    bool ckptArmed_ = false;
    bool ckptTaken_ = false;
    Status ckptStatus_;

    IntervalSampler *sampler_ = nullptr;
    std::vector<CycleObserver *> observers_;
    DeliveryOracle *oracle_ = nullptr;
    const volatile std::sig_atomic_t *stopFlag_ = nullptr;
};

} // namespace xbs

#endif // XBS_FRONTEND_FRONTEND_HH
