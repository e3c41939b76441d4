/**
 * @file
 * Abstract frontend interface: a structure that consumes a dynamic
 * trace and reports cycle/uop metrics. Concrete implementations are
 * IcFrontend, DcFrontend, TcFrontend, BbtcFrontend and XbcFrontend,
 * and all five run the one cycle loop below (runCycles).
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
#include <string>
#include <vector>

#include "attrib/recorder.hh"
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
 * Per-cycle observer ticked by the cycle loop (runCycles) right
 * after the cycle counter advances: exactly once per simulated cycle.
 * The invariant auditor and the fault injectors (src/verify) hang off
 * this; with none attached the cost is one branch per cycle.
 */
class CycleObserver
{
  public:
    virtual ~CycleObserver() = default;
    virtual void onCycle(Frontend &fe, uint64_t cycle) = 0;
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
     * by a SIGINT/SIGTERM handler; see common/signals.hh). The cycle
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

  protected:
    /** Derived frontends register component sub-phases here (e.g.
     *  LegacyPipe's "predict" under fetch); called with nullptr on
     *  detach so components drop their phase handles too. */
    virtual void registerPhases(PhaseProfiler *prof) { (void)prof; }

    /** One delivery cycle's supply from a frontend's structure. */
    struct Supply
    {
        unsigned uops = 0;  ///< uops supplied into the buffer
        bool miss = false;  ///< nothing to supply: build mode next
        Cause cause = Cause::StructMiss;  ///< fallback for enterBuild
    };

    /**
     * The per-cycle contract of docs/MODEL.md, once for every
     * frontend: the cycle counter, the observers, the stop flag, the
     * fetch-silent bubble, the renamer drain, the delivery->build
     * switch and the build cycle. Each cycle advances the counter by
     * one and is exactly one of delivery, build or stall.
     *
     * @p fe supplies the paper-specific steps, defined inline next to
     * its run() so that they inline here:
     *  - `bool coldStart()`: reset per-run state; true to start in
     *    build mode;
     *  - `Supply deliver(trace, rec, stall, buffer)`: one delivery
     *    cycle's supply, advancing @c rec and adding any penalty to
     *    @c stall; called while records remain and @c buffer holds
     *    fewer than renamerWidth uops;
     *  - `void restartFill()`: a delivery->build switch;
     *  - `bool fill(trace, first, end)`: feed records [first, end),
     *    just fetched by the legacy pipe @c pipe_, to the fill unit;
     *    true when delivery resumes.
     *
     * @param ph_deliver phase timing the delivery step
     */
    template <class Fe>
    void
    runCycles(Fe &fe, const Trace &trace, unsigned ph_deliver)
    {
        const std::size_t num_records = trace.numRecords();
        std::size_t rec = 0;
        unsigned buffer = 0;  // undelivered uops in the decoupling
                              // buffer, drained renamerWidth per cycle
        unsigned stall = 0;
        bool delivery = !fe.coldStart();
        if (!delivery)
            attrib_.enterBuild(Cause::ColdStart);

        while ((rec < num_records || buffer > 0) && !stopRequested()) {
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

            if (delivery) {
                // Fetch waits while the buffer holds a renamer's worth.
                Supply s;
                if (buffer < params_.renamerWidth && rec < num_records) {
                    ScopedPhase timer(prof_, ph_deliver);
                    s = fe.deliver(trace, rec, stall, buffer);
                }
                if (!s.miss || buffer > 0) {
                    ++metrics_.deliveryCycles;
                    metrics_.deliveryUops += s.uops;
                    buffer += s.uops;
                    const unsigned drained =
                        std::min(buffer, params_.renamerWidth);
                    metrics_.renamedUops += drained;
                    buffer -= drained;
                    continue;
                }
                // The one switch rule: a delivery cycle with nothing
                // to supply and nothing buffered is the first build
                // cycle.
                delivery = false;
                ++metrics_.modeSwitches;
                fe.restartFill();
                attrib_.enterBuild(s.cause);
            }

            ++metrics_.buildCycles;
            attrib_.chargeBuildCycle();
            const std::size_t first = rec;
            ScopedPhase timer(prof_, phBuild_);
            const auto r = fe.pipe_.cycle(trace, rec);
            metrics_.buildUops += r.uops;
            attrib_.chargeBuildUops(r.uops);
            stall += r.stall;
            for (std::size_t i = first; i < rec; ++i)
                oracleConsume(i, kNoTarget, 0);
            delivery = fe.fill(trace, first, rec);
        }
        metrics_.traceRecords.set(rec);
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

  private:
    /** Per-cycle observation hook, called right after the cycle
     *  counter advances. One branch when nothing is attached. */
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

    IntervalSampler *sampler_ = nullptr;
    std::vector<CycleObserver *> observers_;
    DeliveryOracle *oracle_ = nullptr;
    const volatile std::sig_atomic_t *stopFlag_ = nullptr;
};

} // namespace xbs

#endif // XBS_FRONTEND_FRONTEND_HH
