/**
 * @file
 * The sweep supervisor: a bounded pool of isolated child processes
 * under a watchdog.
 *
 * Every attempt of a job is a forked child that runs the cell body
 * (SchedulerOptions::cellBody) and exits with its result. Before each
 * fork the supervisor may make the job's input resident (prepare),
 * so the child reads it copy-on-write instead of rebuilding it.
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
 * only hang guard: SIGTERM first (a healthy simulator cell drains at
 * the next cycle boundary and flushes partial output), SIGKILL after
 * a grace period for children too wedged to react. Either way the
 * attempt is a `timeout` and is retried like any transient failure.
 * The deadline starts at the fork and does not care why a child is
 * slow: one hung at start, one wedged mid-run and one that is merely
 * long all end the same way, so --timeout must cover the slowest
 * healthy job. SIGINT/SIGTERM on the supervisor itself stops
 * launching, TERMs the workers, waits for them, and finalizes the
 * journal — the sweep is resumable from exactly that point.
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

    /** The cell: runs in the forked child of every attempt, and its
     *  return value is the child's exit code. Required. */
    std::function<int(const JobSpec &)> cellBody;

    /** Supervisor side: make the input of @p queue's first job
     *  resident. @p queue holds the jobs not yet forked, in launch
     *  order: the job about to fork first, or, while no launch is
     *  possible, the next one. Not called once the stop flag has
     *  been seen; a watchdog poll follows every call. Optional. */
    std::function<void(const std::vector<const JobSpec *> &queue)>
        prepare;
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

    /**
     * The sweep's exit code: kExitInterrupted after a drain, else
     * kExitOk when every job is ok and kExitDegraded when some
     * failed. Graceful degradation: failures degrade the exit code,
     * never abort the matrix, and the report still covers it all.
     */
    int exitCode() const;

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
     *  eligible pending jobs into free slots, prepare the next one,
     *  and poll the running children after each of these. run() is
     *  this in a sleep loop. */
    void step();
    /** Pump, reap and watchdog the running children. */
    void poll();
    void launch(std::size_t idx);
    /** Run opts_.prepare over @p first (if any) then the pending
     *  jobs. */
    void prepare(const JobSpec *first);
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
