#include "batch/scheduler.hh"

#include <algorithm>
#include <thread>

#include <signal.h>
#include <sys/wait.h>

#include "common/json.hh"
#include "common/logging.hh"

namespace xbs
{

namespace
{

/** Parse the result JSON a cell prints on stdout (the members
 *  `xbsim --json` prints). */
bool
parseChildMetrics(const std::string &out, JobMetrics *metrics)
{
    JsonValue v;
    if (!parseJson(out, &v, nullptr) || !v.isObject() ||
        !v.find("bandwidth")) {
        return false;
    }
    *metrics = readJobMetricsFields(v);
    return true;
}

/** First non-empty line of a child's stderr, for failure notes. */
std::string
firstLineOf(const std::string &text)
{
    std::size_t start = text.find_first_not_of("\r\n");
    if (start == std::string::npos)
        return "";
    std::size_t end = text.find_first_of("\r\n", start);
    return text.substr(start, end == std::string::npos
                                  ? std::string::npos
                                  : end - start);
}

} // anonymous namespace

SweepScheduler::SweepScheduler(SchedulerOptions opts,
                               std::vector<JobSpec> jobs,
                               SweepJournal *journal)
    : opts_(std::move(opts)), journal_(journal)
{
    records_.reserve(jobs.size());
    for (JobSpec &spec : jobs) {
        JobRecord rec;
        rec.spec = std::move(spec);
        records_.push_back(std::move(rec));
    }
    eligibleAt_.assign(records_.size(), Clock::time_point::min());
    for (std::size_t i = 0; i < records_.size(); ++i)
        pending_.push_back(i);
}

uint64_t
SweepScheduler::restore(const std::vector<JournalEvent> &events)
{
    uint64_t last_seq = 0;
    for (const JournalEvent &ev : events) {
        last_seq = std::max(last_seq, ev.seq);
        auto it = std::find_if(records_.begin(), records_.end(),
                               [&](const JobRecord &r) {
                                   return r.spec.id == ev.job;
                               });
        if (it == records_.end())
            continue;  // journal mentions a job not in the manifest
        JobRecord &rec = *it;
        switch (ev.kind) {
          case JournalEvent::Kind::Launch:
            break;  // a launch without a result consumed nothing
          case JournalEvent::Kind::Result:
            // Drain-interrupted attempts are free (their outcome is
            // the supervisor's doing, not the job's); everything
            // else consumed one attempt.
            if (ev.cls != JobClass::Interrupted) {
                ++rec.attempts;
                rec.exitCode = ev.exitCode;
                rec.termSignal = ev.termSignal;
                rec.seconds = ev.seconds;
                rec.hasUsage = ev.hasUsage;
                rec.usage = ev.usage;
            }
            break;
          case JournalEvent::Kind::Final:
            rec.done = true;
            rec.replayed = true;
            rec.cls = ev.cls;
            rec.attempts = ev.attempt;
            rec.exitCode = ev.exitCode;
            rec.termSignal = ev.termSignal;
            rec.seconds = ev.seconds;
            rec.hasMetrics = ev.hasMetrics;
            rec.metrics = ev.metrics;
            rec.hasUsage = ev.hasUsage;
            rec.usage = ev.usage;
            rec.note = ev.note;
            break;
        }
    }
    // Re-queue only unfinished jobs, in matrix order.
    pending_.clear();
    for (std::size_t i = 0; i < records_.size(); ++i) {
        if (!records_[i].done)
            pending_.push_back(i);
    }
    return last_seq;
}

void
SweepScheduler::journalAppend(JournalEvent &event)
{
    if (!journal_)
        return;
    if (Status st = journal_->append(event); !st.isOk()) {
        // A dying journal must not kill the sweep; the results in
        // memory still produce a report. Resume fidelity degrades,
        // which the warning makes visible.
        xbs_warn("journal append failed: %s",
                 st.toString().c_str());
    }
}

void
SweepScheduler::launch(std::size_t idx)
{
    JobRecord &rec = records_[idx];
    const int attempt = rec.attempts + 1;

    JournalEvent ev;
    ev.kind = JournalEvent::Kind::Launch;
    ev.job = rec.spec.id;
    ev.attempt = attempt;
    journalAppend(ev);

    prepare(&rec.spec);
    const JobSpec &spec = rec.spec;
    Expected<Child> child =
        forkChild([this, &spec] { return opts_.cellBody(spec); });
    // The deadline starts here: the supervisor's own preparation is
    // never charged to the cell.
    const auto now = Clock::now();
    if (!child.ok()) {
        // fork/pipe failure. The typed status splits the verdict:
        // transient host exhaustion (fork EAGAIN, fd-table ENFILE,
        // ENOMEM) classifies Resource and retries with backoff —
        // exactly the case where waiting helps — while everything
        // else finalizes as Spawn (deterministic enough that
        // retrying won't help and might be the thing melting the
        // box).
        const JobClass cls = child.status().transient()
                                 ? JobClass::Resource
                                 : JobClass::Spawn;
        JournalEvent res;
        res.kind = JournalEvent::Kind::Result;
        res.job = rec.spec.id;
        res.attempt = attempt;
        res.cls = cls;
        res.note = child.status().toString();
        journalAppend(res);
        rec.attempts = attempt;
        rec.note = child.status().toString();
        if (jobClassRetryable(cls) && !draining_ &&
            (unsigned)rec.attempts <= opts_.maxRetries) {
            const auto delay = std::chrono::milliseconds(
                (int64_t)opts_.backoffMs << (rec.attempts - 1));
            eligibleAt_[idx] = now + delay;
            pending_.push_back(idx);
            ++retries_;
            return;
        }
        finalize(idx, cls, false, JobMetrics{});
        return;
    }

    Running run;
    run.child = child.take();
    run.idx = idx;
    run.attempt = attempt;
    run.start = now;
    run.deadline =
        now + std::chrono::microseconds(
                  (int64_t)(opts_.timeoutSec * 1e6));
    running_.push_back(std::move(run));
}

void
SweepScheduler::prepare(const JobSpec *first)
{
    if (!opts_.prepare)
        return;
    std::vector<const JobSpec *> queue;
    if (first)
        queue.push_back(first);
    for (std::size_t i : pending_)
        queue.push_back(&records_[i].spec);
    opts_.prepare(queue);
}

void
SweepScheduler::finalize(std::size_t idx, JobClass cls,
                         bool has_metrics, const JobMetrics &metrics)
{
    JobRecord &rec = records_[idx];
    rec.done = true;
    rec.cls = cls;
    rec.hasMetrics = has_metrics;
    rec.metrics = metrics;

    JournalEvent ev;
    ev.kind = JournalEvent::Kind::Final;
    ev.job = rec.spec.id;
    ev.attempt = rec.attempts;
    ev.cls = cls;
    ev.exitCode = rec.exitCode;
    ev.termSignal = rec.termSignal;
    ev.seconds = rec.seconds;
    ev.hasMetrics = has_metrics;
    ev.metrics = metrics;
    ev.hasUsage = rec.hasUsage;
    ev.usage = rec.usage;
    ev.note = rec.note;
    journalAppend(ev);

    if (opts_.onFinal)
        opts_.onFinal(rec);
}

void
SweepScheduler::handleExit(Running &run, int raw_status)
{
    JobRecord &rec = records_[run.idx];
    const bool exited = WIFEXITED(raw_status);
    const int exit_code = exited ? WEXITSTATUS(raw_status) : -1;
    const int term_signal =
        WIFSIGNALED(raw_status) ? WTERMSIG(raw_status) : 0;
    const double seconds =
        std::chrono::duration<double>(Clock::now() - run.start)
            .count();

    JobClass cls =
        classifyOutcome(run.timedOut, exited, exit_code, term_signal);
    // A drain (supervisor shutdown) turns the kill-induced outcomes
    // into Interrupted: the attempt is free and --resume re-runs the
    // job. A child that still finished with a deterministic verdict
    // keeps it.
    if (draining_ && !run.timedOut &&
        (cls == JobClass::Crash || cls == JobClass::Interrupted)) {
        cls = JobClass::Interrupted;
    }

    JobMetrics metrics;
    const bool has_metrics =
        cls == JobClass::Ok &&
        parseChildMetrics(run.child.out, &metrics);

    rec.exitCode = exited ? exit_code : -1;
    rec.termSignal = term_signal;
    rec.seconds = seconds;
    rec.hasUsage = run.child.hasUsage;
    if (rec.hasUsage) {
        rec.usage.maxRssKb = run.child.maxRssKb;
        rec.usage.userSec = run.child.userSec;
        rec.usage.sysSec = run.child.sysSec;
        rec.usage.inBlock = run.child.inBlock;
        rec.usage.outBlock = run.child.outBlock;
    }
    if (cls != JobClass::Ok)
        rec.note = sanitizeNote(firstLineOf(run.child.err));

    JournalEvent ev;
    ev.kind = JournalEvent::Kind::Result;
    ev.job = rec.spec.id;
    ev.attempt = run.attempt;
    ev.cls = cls;
    ev.exitCode = rec.exitCode;
    ev.termSignal = term_signal;
    ev.seconds = seconds;
    ev.hasMetrics = has_metrics;
    ev.metrics = metrics;
    ev.hasUsage = rec.hasUsage;
    ev.usage = rec.usage;
    ev.note = rec.note;
    journalAppend(ev);

    if (cls == JobClass::Interrupted && draining_) {
        // No final event: the journal shows an open attempt and
        // --resume re-queues the job.
        return;
    }

    rec.attempts = run.attempt;

    if (jobClassRetryable(cls) && !draining_ &&
        (unsigned)rec.attempts <= opts_.maxRetries) {
        // Exponential backoff: base * 2^(attempt-1).
        const auto delay = std::chrono::milliseconds(
            (int64_t)opts_.backoffMs << (rec.attempts - 1));
        eligibleAt_[run.idx] = Clock::now() + delay;
        pending_.push_back(run.idx);
        ++retries_;
        return;
    }

    finalize(run.idx, cls, has_metrics, metrics);
}

/** Pop the first pending job whose backoff has elapsed (matrix/FIFO
 *  order), or return records_.size() if none is eligible. */
std::size_t
SweepScheduler::pickPending(Clock::time_point now)
{
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [&](std::size_t idx) {
                               return eligibleAt_[idx] <= now;
                           });
    if (it == pending_.end())
        return records_.size();
    const std::size_t idx = *it;
    pending_.erase(it);
    return idx;
}

void
SweepScheduler::step()
{
    const auto grace = std::chrono::microseconds(
        (int64_t)(opts_.graceSec * 1e6));

    if (!draining_ && stopRequested()) {
        draining_ = true;
        interrupted_ = true;
        const auto now = Clock::now();
        for (Running &run : running_) {
            signalChild(run.child, SIGTERM);
            run.termSent = true;
            run.killAt = now + grace;
        }
    }
    poll();
    if (draining_)
        return;

    // Launch into free slots. A launch may wait on prepare(), so the
    // children are polled after each one, and a stop requested
    // meanwhile ends the launching; the next step drains.
    while (running_.size() < opts_.workers && !stopRequested()) {
        const std::size_t idx = pickPending(Clock::now());
        if (idx >= records_.size())
            break;
        launch(idx);
        poll();
    }
    // No launch is possible now: prepare the next job's input while
    // the workers run, so its fork does not wait.
    if (opts_.prepare && !pending_.empty() && !stopRequested()) {
        prepare(nullptr);
        poll();
    }
}

void
SweepScheduler::poll()
{
    const auto grace = std::chrono::microseconds(
        (int64_t)(opts_.graceSec * 1e6));
    for (std::size_t i = 0; i < running_.size();) {
        Running &run = running_[i];
        pumpChild(run.child);
        int raw = 0;
        if (reapChild(run.child, &raw)) {
            handleExit(run, raw);
            running_.erase(running_.begin() + (long)i);
            continue;
        }
        const auto now = Clock::now();
        if (!run.termSent && now >= run.deadline) {
            // Watchdog: ask nicely first so the child can flush
            // partial output, then escalate.
            run.timedOut = true;
            run.termSent = true;
            run.killAt = now + grace;
            signalChild(run.child, SIGTERM);
        } else if (run.termSent && now >= run.killAt) {
            signalChild(run.child, SIGKILL);
            run.killAt = Clock::time_point::max();
        }
        ++i;
    }
}

bool
SweepScheduler::run()
{
    for (;;) {
        step();
        if (running_.empty() && (draining_ || pending_.empty()))
            break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts_.pollMs));
    }
    return !interrupted_;
}

bool
SweepScheduler::allOk() const
{
    return std::all_of(records_.begin(), records_.end(),
                       [](const JobRecord &r) {
                           return r.done && r.cls == JobClass::Ok;
                       });
}

int
SweepScheduler::exitCode() const
{
    if (interrupted_)
        return kExitInterrupted;
    return allOk() ? kExitOk : kExitDegraded;
}

std::size_t
SweepScheduler::doneCount() const
{
    return (std::size_t)std::count_if(
        records_.begin(), records_.end(),
        [](const JobRecord &r) { return r.done; });
}

} // namespace xbs
