#include "batch/scheduler.hh"

#include <algorithm>
#include <thread>

#include <signal.h>
#include <sys/wait.h>

namespace xbs
{

JobMetrics
readJobMetricsFields(const JsonValue &v)
{
    JobMetrics m;
    if (const JsonValue *f = v.find("bandwidth"))
        m.bandwidth = f->asNumber();
    if (const JsonValue *f = v.find("missRate"))
        m.missRate = f->asNumber();
    if (const JsonValue *f = v.find("overallIpc"))
        m.overallIpc = f->asNumber();
    if (const JsonValue *f = v.find("cycles"))
        m.cycles = f->asUint();
    if (const JsonValue *f = v.find("totalUops"))
        m.totalUops = f->asUint();
    if (const JsonValue *f = v.find("attrib"))
        m.attrib = parseAttribRollup(*f);
    return m;
}

namespace
{

using Clock = std::chrono::steady_clock;

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

/** @p seconds after @p now, saturated at the clock's end: a span
 *  too long for the clock means "never". */
Clock::time_point
after(Clock::time_point now, double seconds)
{
    const Clock::duration left = Clock::time_point::max() - now;
    const std::chrono::duration<double> span(seconds);
    if (span >= left)
        return Clock::time_point::max();
    // Below `left` in double, so the cast fits; rounding may still
    // reach it.
    const auto ticks = std::chrono::duration_cast<Clock::duration>(span);
    return ticks >= left ? Clock::time_point::max() : now + ticks;
}

} // anonymous namespace

SweepScheduler::SweepScheduler(SchedulerOptions opts,
                               std::vector<JobSpec> jobs)
    : opts_(std::move(opts))
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

void
SweepScheduler::launch(std::size_t idx)
{
    JobRecord &rec = records_[idx];
    const int attempt = rec.attempts + 1;

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
    run.deadline = after(now, opts_.timeoutSec);
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
    // into Interrupted: the job is left unfinished (notRun in the
    // report). A child that still finished with a deterministic
    // verdict keeps it.
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

    if (cls == JobClass::Interrupted && draining_)
        return;

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
    if (!draining_ && stopRequested()) {
        draining_ = true;
        interrupted_ = true;
        const auto kill_at = after(Clock::now(), opts_.graceSec);
        for (Running &run : running_) {
            signalChild(run.child, SIGTERM);
            run.termSent = true;
            run.killAt = kill_at;
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
            run.killAt = after(now, opts_.graceSec);
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
