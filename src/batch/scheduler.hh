/**
 * @file
 * The sweep supervisor: a bounded pool of isolated child processes
 * under a watchdog.
 *
 * Lifecycle of one job (see docs/MODEL.md "Batch execution"):
 *
 *     pending -> running -> { ok | usage | data | audit }   final
 *                        -> { timeout | crash }  -> retry (bounded,
 *                               exponential backoff) -> ... -> final
 *                        -> interrupted (supervisor drain; the
 *                               attempt is free and the job is
 *                               re-queued by --resume)
 *
 * The watchdog enforces a per-job wall-clock deadline, the sweep's
 * only hang guard: SIGTERM first (a healthy xbsim drains at the next
 * cycle boundary and flushes partial output), SIGKILL after a grace
 * period for children too wedged to react. Either way the attempt is
 * a `timeout` and is retried like any transient failure. The deadline
 * does not care why a child is slow: one hung before main, one
 * wedged mid-run and one that is merely long all end the same way,
 * so --timeout must cover the slowest healthy job. SIGINT/SIGTERM on
 * the supervisor itself stops launching, TERMs the workers, waits
 * for them, and finalizes the journal — the sweep is resumable from
 * exactly that point.
 *
 * Every transition is journaled before the next action, so a SIGKILL
 * of the supervisor at any instant loses at most the in-flight
 * attempts, never a completed result.
 */

#ifndef XBS_BATCH_SCHEDULER_HH
#define XBS_BATCH_SCHEDULER_HH

#include <chrono>
#include <csignal>
#include <functional>
#include <vector>

#include "batch/job.hh"
#include "batch/journal.hh"
#include "batch/subprocess.hh"

namespace xbs
{

struct SchedulerOptions
{
    std::string xbsimPath;       ///< child binary
    unsigned workers = 2;        ///< --jobs N
    double timeoutSec = 300.0;   ///< per-job wall-clock deadline
    unsigned maxRetries = 1;     ///< extra attempts for transients
    unsigned backoffMs = 200;    ///< base retry delay (doubles)
    double graceSec = 2.0;       ///< SIGTERM -> SIGKILL escalation
    unsigned pollMs = 10;        ///< supervisor poll interval

    /** Raised by a signal handler to request a drain (see
     *  common/signals.hh); nullptr disables. */
    const volatile std::sig_atomic_t *stopFlag = nullptr;

    /** Progress callback, fired at each job's final transition. */
    std::function<void(const JobRecord &)> onFinal;

    /** Extra child flags appended to every launch (e.g. interval
     *  stats output paths); nullptr/empty disables. */
    std::function<std::vector<std::string>(const JobSpec &)> extraArgs;
};

class SweepScheduler
{
  public:
    /** @param journal optional (tests may run journal-less). */
    SweepScheduler(SchedulerOptions opts, std::vector<JobSpec> jobs,
                   SweepJournal *journal);

    /**
     * Apply a replayed journal before run(): jobs with a final event
     * are marked done (their recorded outcome and metrics stand);
     * jobs with launches or transient results but no final are
     * re-queued. Returns the last seq seen so the journal can
     * continue numbering.
     */
    uint64_t restore(const std::vector<JournalEvent> &events);

    /**
     * Run the sweep to completion or until drained by the stop flag.
     * Always returns (graceful degradation): individual failures are
     * recorded, never propagated.
     *
     * @return false when the sweep was interrupted mid-flight
     */
    bool run();

    const std::vector<JobRecord> &records() const { return records_; }

    /** Every job finished with class Ok. */
    bool allOk() const;

    /** Jobs finished (final) so far. */
    std::size_t doneCount() const;

    /** Transient retries performed by this supervisor instance. */
    unsigned totalRetries() const { return retries_; }

    bool interrupted() const { return interrupted_; }

  private:
    using Clock = std::chrono::steady_clock;

    struct Running
    {
        Child child;
        std::size_t idx = 0;       ///< index into records_
        int attempt = 1;
        Clock::time_point start;
        Clock::time_point deadline;
        bool termSent = false;
        Clock::time_point killAt;
        bool timedOut = false;
    };

    /** One supervisor iteration: honor the stop flag, launch
     *  eligible pending jobs into free slots, and pump/reap/watchdog
     *  the running children. run() is this in a sleep loop. */
    void step();
    void launch(std::size_t idx);
    std::size_t pickPending(Clock::time_point now);
    void handleExit(Running &run, int raw_status);
    void finalize(std::size_t idx, JobClass cls, bool has_metrics,
                  const JobMetrics &metrics);
    void journalAppend(JournalEvent &event);
    bool stopRequested() const
    {
        return opts_.stopFlag && *opts_.stopFlag != 0;
    }

    SchedulerOptions opts_;
    std::vector<JobRecord> records_;
    SweepJournal *journal_;

    std::vector<std::size_t> pending_;  ///< FIFO of records_ indices
    std::vector<Clock::time_point> eligibleAt_;  ///< backoff gates
    std::vector<Running> running_;
    unsigned retries_ = 0;
    bool draining_ = false;
    bool interrupted_ = false;
};

} // namespace xbs

#endif // XBS_BATCH_SCHEDULER_HH
