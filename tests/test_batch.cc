/**
 * @file
 * Tests for the fault-tolerant sweep engine: exit-code taxonomy,
 * typed resource-exhaustion errors, journal round-trip and torn-tail
 * tolerance, timeout classification against a genuinely hung child,
 * retry/backoff accounting, resume semantics (no completed job
 * re-executed, no pending job lost), simulator cells forked from a
 * trace the supervisor built once or building their own, and the
 * crash-point recovery matrix (this test binary doubles as the
 * victim process).
 *
 * Scripted children are tiny /bin/sh scripts the tests write
 * themselves, exec'd from the forked cell body, so each failure mode
 * (hang, crash, deterministic exit code) is exact and fast.
 * Simulator cells run the real cell body, and their metrics are
 * checked against the xbsim binary's.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <string>

#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "batch/cells.hh"
#include "batch/job.hh"
#include "batch/journal.hh"
#include "batch/report.hh"
#include "batch/scheduler.hh"
#include "batch/subprocess.hh"
#include "common/crashpoint.hh"
#include "common/fs.hh"
#include "common/json.hh"
#include "sim/cell.hh"
#include "verify/crash_matrix.hh"
#include "verify/inject.hh"
#include "test_helpers.hh"
#include "workload/catalog.hh"

using namespace xbs;

namespace
{

/** Write an executable /bin/sh script. */
std::string
writeScript(const std::string &dir, const std::string &name,
            const std::string &body)
{
    const std::string path = dir + "/" + name;
    {
        std::ofstream os(path);
        os << "#!/bin/sh\n" << body;
    }
    ::chmod(path.c_str(), 0755);
    return path;
}

/** A 1xN matrix of jobs against the tc frontend. */
std::vector<JobSpec>
makeJobs(int n)
{
    std::vector<std::string> workloads;
    for (int i = 0; i < n; ++i) {
        std::string name = "w";
        name += std::to_string(i);
        workloads.push_back(std::move(name));
    }
    return buildJobMatrix(workloads, {"tc"}, {32768}, 1000);
}

/** A cell body that execs @p script with the job's xbsim flags. */
std::function<int(const JobSpec &)>
execCell(const std::string &script)
{
    return [script](const JobSpec &job) {
        std::vector<std::string> argv = {script};
        for (std::string &flag : job.run.toArgv())
            argv.push_back(std::move(flag));
        std::vector<char *> cargv;
        for (std::string &arg : argv)
            cargv.push_back(arg.data());
        cargv.push_back(nullptr);
        ::execv(script.c_str(), cargv.data());
        return 127;  // exec failed
    };
}

SchedulerOptions
fastOptions(const std::string &script)
{
    SchedulerOptions opts;
    opts.cellBody = execCell(script);
    opts.workers = 2;
    opts.timeoutSec = 5.0;
    opts.maxRetries = 0;
    opts.backoffMs = 10;
    opts.graceSec = 0.2;
    opts.pollMs = 2;
    return opts;
}

const char *kOkJson =
    "echo '{\"bandwidth\": 2.5, \"missRate\": 0.125, "
    "\"overallIpc\": 2.0, \"cycles\": 100, \"totalUops\": 250}'\n";

std::string
selfExe()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    EXPECT_GT(n, 0);
    buf[n > 0 ? n : 0] = '\0';
    return buf;
}

} // anonymous namespace

// ---------------------------------------------------------------
// Exit-code taxonomy
// ---------------------------------------------------------------

TEST(JobClassify, ExitCodeTaxonomy)
{
    EXPECT_EQ(classifyOutcome(false, true, 0, 0), JobClass::Ok);
    EXPECT_EQ(classifyOutcome(false, true, 1, 0), JobClass::Usage);
    EXPECT_EQ(classifyOutcome(false, true, 2, 0), JobClass::Data);
    EXPECT_EQ(classifyOutcome(false, true, 3, 0), JobClass::Audit);
    EXPECT_EQ(classifyOutcome(false, true, 5, 0), JobClass::Interrupted);
    EXPECT_EQ(classifyOutcome(false, true, 127, 0), JobClass::Spawn);
    // Unknown exit codes and signal deaths are crashes.
    EXPECT_EQ(classifyOutcome(false, true, 42, 0), JobClass::Crash);
    EXPECT_EQ(classifyOutcome(false, false, -1, SIGSEGV), JobClass::Crash);
    // A watchdog kill is a timeout no matter what the child managed
    // to report on the way down.
    EXPECT_EQ(classifyOutcome(true, true, 0, 0), JobClass::Timeout);
    EXPECT_EQ(classifyOutcome(true, false, -1, SIGKILL), JobClass::Timeout);
}

TEST(JobClassify, OnlyTransientsRetry)
{
    EXPECT_TRUE(jobClassRetryable(JobClass::Timeout));
    EXPECT_TRUE(jobClassRetryable(JobClass::Crash));
    EXPECT_FALSE(jobClassRetryable(JobClass::Ok));
    EXPECT_FALSE(jobClassRetryable(JobClass::Usage));
    EXPECT_FALSE(jobClassRetryable(JobClass::Data));
    EXPECT_FALSE(jobClassRetryable(JobClass::Audit));
    EXPECT_FALSE(jobClassRetryable(JobClass::Spawn));
    EXPECT_FALSE(jobClassRetryable(JobClass::Interrupted));
}

TEST(JobClassify, NamesRoundTrip)
{
    for (JobClass cls :
         {JobClass::Ok, JobClass::Usage, JobClass::Data,
          JobClass::Audit, JobClass::Interrupted, JobClass::Timeout,
          JobClass::Crash, JobClass::Spawn}) {
        Expected<JobClass> back = jobClassFromName(jobClassName(cls));
        ASSERT_TRUE(back.ok());
        EXPECT_EQ(back.value(), cls);
    }
    EXPECT_FALSE(jobClassFromName("bogus").ok());
}

TEST(JobClassify, SanitizeNoteStripsControlBytes)
{
    // Control characters from a child's binary stderr must not reach
    // the journal (one JSON record per line) or the report table.
    EXPECT_EQ(sanitizeNote("plain note"), "plain note");
    EXPECT_EQ(sanitizeNote(std::string("a\x01" "b\x1f" "c\x7f" "d")),
              "a b c d");
    EXPECT_EQ(sanitizeNote("tab\tand\rreturn"), "tab and return");
    EXPECT_EQ(sanitizeNote(""), "");
    // UTF-8 continuation bytes (>= 0x80) pass through untouched.
    EXPECT_EQ(sanitizeNote("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JobClassify, SanitizeNoteBoundsLength)
{
    const std::string note = sanitizeNote(std::string(500, 'x'));
    EXPECT_EQ(note.size(), 160u + 3u);
    EXPECT_EQ(note.substr(note.size() - 3), "...");
    EXPECT_EQ(sanitizeNote(std::string(500, 'x'), 10), "xxxxxxxxxx...");
    // At or below the bound: returned verbatim, no ellipsis.
    EXPECT_EQ(sanitizeNote(std::string(160, 'y')),
              std::string(160, 'y'));
}

// ---------------------------------------------------------------
// Typed resource exhaustion: ENOSPC is transient
// ---------------------------------------------------------------

TEST(TypedErrors, EnospcAppendIsTransientResource)
{
    // /dev/full gives a deterministic ENOSPC on write.
    if (::access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "/dev/full not available";
    AppendLog log;
    Status st = log.open("/dev/full");
    if (!st.isOk())
        GTEST_SKIP() << "cannot open /dev/full: " << st.toString();
    Status append = log.append("{}");
    ASSERT_FALSE(append.isOk());
    EXPECT_EQ(append.code(), StatusCode::Resource);
    EXPECT_TRUE(append.transient());
}

TEST(TypedErrors, ErrnoMapping)
{
    EXPECT_EQ(errnoStatusCode(ENOSPC), StatusCode::Resource);
    EXPECT_EQ(errnoStatusCode(EDQUOT), StatusCode::Resource);
    EXPECT_EQ(errnoStatusCode(EAGAIN), StatusCode::Resource);
    EXPECT_EQ(errnoStatusCode(ENOMEM), StatusCode::Resource);
    EXPECT_EQ(errnoStatusCode(ENOENT), StatusCode::NotFound);
    EXPECT_EQ(errnoStatusCode(EIO), StatusCode::Generic);
}

TEST(TypedErrors, ResourceRetries)
{
    EXPECT_TRUE(jobClassRetryable(JobClass::Resource));
    EXPECT_STREQ(jobClassName(JobClass::Resource), "resource");
}

TEST(JobMatrix, DeterministicWorkloadOuterOrder)
{
    std::vector<JobSpec> jobs =
        buildJobMatrix({"a", "b"}, {"tc", "xbc"}, {100, 200}, 0);
    ASSERT_EQ(jobs.size(), 8u);
    EXPECT_EQ(jobs[0].id, 0);
    EXPECT_EQ(jobs[0].run.label(), "tc/a@100");
    EXPECT_EQ(jobs[1].run.label(), "tc/a@200");
    EXPECT_EQ(jobs[2].run.label(), "xbc/a@100");
    EXPECT_EQ(jobs[4].run.label(), "tc/b@100");
    EXPECT_EQ(jobs[7].id, 7);
    EXPECT_EQ(jobs[7].run.label(), "xbc/b@200");
}

TEST(JobMatrix, RunSpecArgvRoundTrip)
{
    RunSpec spec;
    spec.frontend = "bbtc";
    spec.workload = "perl";
    spec.capacity = 65536;
    spec.ways = 4;
    spec.insts = 123456;
    Expected<RunSpec> back = RunSpec::fromArgv(spec.toArgv());
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back.value() == spec);
}

// ---------------------------------------------------------------
// Journal
// ---------------------------------------------------------------

TEST(Journal, ManifestRoundTrip)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    SweepManifest m;
    m.workers = 7;
    m.timeoutSec = 12.5;
    m.maxRetries = 3;
    m.backoffMs = 450;
    m.jobs = buildJobMatrix({"gcc", "go"}, {"tc"}, {4096}, 5000);
    ASSERT_TRUE(SweepJournal::writeManifest(dir, m).isOk());

    Expected<SweepManifest> back = SweepJournal::readManifest(dir);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back.value().workers, 7u);
    EXPECT_EQ(back.value().timeoutSec, 12.5);
    EXPECT_EQ(back.value().maxRetries, 3u);
    EXPECT_EQ(back.value().backoffMs, 450u);
    ASSERT_EQ(back.value().jobs.size(), 2u);
    EXPECT_TRUE(back.value().jobs[1].run == m.jobs[1].run);
}

TEST(Journal, EventsRoundTrip)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    SweepJournal journal;
    ASSERT_TRUE(journal.open(dir).isOk());

    JournalEvent launch;
    launch.kind = JournalEvent::Kind::Launch;
    launch.job = 3;
    launch.attempt = 2;
    ASSERT_TRUE(journal.append(launch).isOk());

    JournalEvent final_ev;
    final_ev.kind = JournalEvent::Kind::Final;
    final_ev.job = 3;
    final_ev.attempt = 2;
    final_ev.cls = JobClass::Ok;
    final_ev.exitCode = 0;
    // Precision-hostile doubles: replay must reproduce them exactly,
    // or a resumed report would differ from an uninterrupted one.
    final_ev.seconds = 0.000123456789012345;
    final_ev.hasMetrics = true;
    final_ev.metrics.bandwidth = 7.8116300000000001;
    final_ev.metrics.cycles = 77;
    final_ev.note = "fine";
    ASSERT_TRUE(journal.append(final_ev).isOk());

    Expected<std::vector<JournalEvent>> back =
        SweepJournal::replay(dir);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    ASSERT_EQ(back.value().size(), 2u);
    EXPECT_EQ(back.value()[0].kind, JournalEvent::Kind::Launch);
    EXPECT_EQ(back.value()[0].seq, 1u);
    EXPECT_EQ(back.value()[0].job, 3);
    const JournalEvent &f = back.value()[1];
    EXPECT_EQ(f.kind, JournalEvent::Kind::Final);
    EXPECT_EQ(f.seq, 2u);
    EXPECT_EQ(f.attempt, 2);
    EXPECT_EQ(f.cls, JobClass::Ok);
    EXPECT_TRUE(f.hasMetrics);
    EXPECT_EQ(f.seconds, final_ev.seconds);
    EXPECT_EQ(f.metrics.bandwidth, final_ev.metrics.bandwidth);
    EXPECT_EQ(f.metrics.cycles, 77u);
    EXPECT_EQ(f.note, "fine");
}

TEST(Journal, BlockIoRoundTrips)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    SweepJournal journal;
    ASSERT_TRUE(journal.open(dir).isOk());

    JournalEvent ev;
    ev.kind = JournalEvent::Kind::Final;
    ev.job = 0;
    ev.attempt = 1;
    ev.cls = JobClass::Ok;
    ev.seconds = 1.0;
    ev.hasUsage = true;
    ev.usage.maxRssKb = 12345;
    ev.usage.userSec = 0.5;
    ev.usage.sysSec = 0.25;
    ev.usage.inBlock = 4096;
    ev.usage.outBlock = 128;
    ASSERT_TRUE(journal.append(ev).isOk());

    Expected<std::vector<JournalEvent>> back =
        SweepJournal::replay(dir);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    ASSERT_EQ(back.value().size(), 1u);
    const JournalEvent &f = back.value()[0];
    ASSERT_TRUE(f.hasUsage);
    EXPECT_EQ(f.usage.inBlock, 4096u);
    EXPECT_EQ(f.usage.outBlock, 128u);
}

TEST(Journal, TornTailLineIsTolerated)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    SweepJournal journal;
    ASSERT_TRUE(journal.open(dir).isOk());
    JournalEvent ev;
    ev.kind = JournalEvent::Kind::Launch;
    ev.job = 0;
    ev.attempt = 1;
    ASSERT_TRUE(journal.append(ev).isOk());

    // A crash mid-write can tear only the final line.
    std::ofstream os(SweepJournal::journalPath(dir),
                     std::ios::app);
    os << "{\"seq\":2,\"event\":\"res";
    os.close();

    Expected<std::vector<JournalEvent>> back =
        SweepJournal::replay(dir);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back.value().size(), 1u);
}

TEST(Journal, CorruptionMidFileIsAnError)
{
    // Garbage, and records the journal format does not have
    // (submit and cancel events, the canceled class): a journal
    // holding any of them mid-file is Corrupt, never silently
    // skipped.
    for (const char *bad :
         {"garbage not json",
          "{\"seq\":2,\"event\":\"submit\",\"job\":1,"
          "\"attempt\":0,\"spec\":[\"--workload=gcc\"]}",
          "{\"seq\":2,\"event\":\"cancel\",\"job\":0,"
          "\"attempt\":1,\"class\":\"canceled\",\"exit\":-1,"
          "\"signal\":0,\"seconds\":0}",
          "{\"seq\":2,\"event\":\"final\",\"job\":0,"
          "\"attempt\":1,\"class\":\"canceled\",\"exit\":-1,"
          "\"signal\":0,\"seconds\":0}"}) {
        const TempDir tmp;
        const std::string &dir = tmp.path;
        SweepJournal journal;
        ASSERT_TRUE(journal.open(dir).isOk());
        JournalEvent ev;
        ev.kind = JournalEvent::Kind::Launch;
        ev.job = 0;
        ev.attempt = 1;
        ASSERT_TRUE(journal.append(ev).isOk());

        {
            std::ofstream os(SweepJournal::journalPath(dir),
                             std::ios::app);
            os << bad << "\n";
        }
        ASSERT_TRUE(journal.append(ev).isOk());

        Expected<std::vector<JournalEvent>> back =
            SweepJournal::replay(dir);
        ASSERT_FALSE(back.ok()) << bad;
        EXPECT_EQ(back.status().code(), StatusCode::Corrupt) << bad;
        EXPECT_NE(back.status().toString().find("journal line 2"),
                  std::string::npos)
            << back.status().toString();
    }
}

// ---------------------------------------------------------------
// Scheduler against real (scripted) children
// ---------------------------------------------------------------

TEST(Scheduler, HappyPathParsesMetrics)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    const std::string sim = writeScript(dir, "sim.sh", kOkJson);

    SweepScheduler sched(fastOptions(sim), makeJobs(3), nullptr);
    EXPECT_TRUE(sched.run());
    EXPECT_TRUE(sched.allOk());
    EXPECT_EQ(sched.doneCount(), 3u);
    for (const JobRecord &rec : sched.records()) {
        EXPECT_EQ(rec.attempts, 1);
        EXPECT_EQ(rec.exitCode, 0);
        ASSERT_TRUE(rec.hasMetrics);
        EXPECT_DOUBLE_EQ(rec.metrics.bandwidth, 2.5);
        EXPECT_EQ(rec.metrics.totalUops, 250u);
    }
}

TEST(Scheduler, HungChildClassifiedTimeout)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    // Ignore SIGTERM so the watchdog must escalate to SIGKILL. The
    // hang is a busy loop in the shell itself: a foreground sleep
    // would die on the group-wide TERM and let the script exit 0.
    const std::string sim = writeScript(
        dir, "hang.sh", "trap '' TERM\nwhile :; do :; done\n");

    SchedulerOptions opts = fastOptions(sim);
    opts.timeoutSec = 0.3;
    opts.maxRetries = 1;
    SweepScheduler sched(opts, makeJobs(1), nullptr);
    EXPECT_TRUE(sched.run());  // completed, not interrupted
    EXPECT_FALSE(sched.allOk());
    ASSERT_EQ(sched.records().size(), 1u);
    const JobRecord &rec = sched.records()[0];
    EXPECT_TRUE(rec.done);
    EXPECT_EQ(rec.cls, JobClass::Timeout);
    EXPECT_EQ(rec.attempts, 2);  // the deadline is the hang guard:
    EXPECT_EQ(sched.totalRetries(), 1u);  // a timeout is retried
    EXPECT_EQ(rec.termSignal, SIGKILL);
    EXPECT_GE(rec.seconds, 0.3);
    EXPECT_LT(rec.seconds, 5.0);  // never waited for the sleep
}

TEST(Scheduler, BinaryStderrSanitizedInNote)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    const std::string sim = writeScript(
        dir, "binerr.sh",
        "printf 'bad\\001\\002trace\\n' >&2\nexit 2\n");

    SweepScheduler sched(fastOptions(sim), makeJobs(1), nullptr);
    EXPECT_TRUE(sched.run());
    const JobRecord &rec = sched.records()[0];
    EXPECT_EQ(rec.cls, JobClass::Data);
    EXPECT_EQ(rec.note, "bad  trace");
    for (char c : rec.note)
        EXPECT_FALSE((unsigned char)c < 0x20 || c == 0x7f);
}

TEST(Scheduler, DeterministicFailureNotRetried)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    const std::string sim = writeScript(
        dir, "data.sh", "echo 'corrupt trace' >&2\nexit 2\n");

    SchedulerOptions opts = fastOptions(sim);
    opts.maxRetries = 3;
    SweepScheduler sched(opts, makeJobs(1), nullptr);
    EXPECT_TRUE(sched.run());
    const JobRecord &rec = sched.records()[0];
    EXPECT_EQ(rec.cls, JobClass::Data);
    EXPECT_EQ(rec.attempts, 1);  // retries are for transients only
    EXPECT_EQ(sched.totalRetries(), 0u);
    EXPECT_EQ(rec.note, "corrupt trace");
}

TEST(Scheduler, TransientCrashRetriedThenSucceeds)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    // First attempt crashes; the marker file makes the retry pass.
    const std::string sim = writeScript(
        dir, "flaky.sh",
        "if [ -e " + dir + "/marker ]; then\n" +
            std::string(kOkJson) +
            "else\n"
            "  touch " + dir + "/marker\n"
            "  kill -SEGV $$\n"
            "fi\n");

    SchedulerOptions opts = fastOptions(sim);
    opts.maxRetries = 1;
    SweepScheduler sched(opts, makeJobs(1), nullptr);
    EXPECT_TRUE(sched.run());
    EXPECT_TRUE(sched.allOk());
    const JobRecord &rec = sched.records()[0];
    EXPECT_EQ(rec.cls, JobClass::Ok);
    EXPECT_EQ(rec.attempts, 2);
    EXPECT_EQ(sched.totalRetries(), 1u);
    EXPECT_TRUE(rec.hasMetrics);
}

TEST(Scheduler, RetriesAreBounded)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    const std::string sim =
        writeScript(dir, "crash.sh", "kill -SEGV $$\n");

    SchedulerOptions opts = fastOptions(sim);
    opts.maxRetries = 2;
    SweepScheduler sched(opts, makeJobs(1), nullptr);
    EXPECT_TRUE(sched.run());
    const JobRecord &rec = sched.records()[0];
    EXPECT_EQ(rec.cls, JobClass::Crash);
    EXPECT_EQ(rec.attempts, 3);  // 1 + maxRetries
    EXPECT_EQ(rec.termSignal, SIGSEGV);
    EXPECT_EQ(sched.totalRetries(), 2u);
}

TEST(Scheduler, StopDuringPrepareLaunchesNoMore)
{
    // A stop requested while the supervisor prepares a launch (a
    // trace build, say) ends the launching: that job is forked and
    // drained, and no other job is prepared or forked.
    const TempDir tmp;
    const std::string &dir = tmp.path;
    volatile std::sig_atomic_t stop = 0;
    SchedulerOptions opts =
        fastOptions(writeScript(dir, "slow.sh", "sleep 10\n"));
    opts.stopFlag = &stop;
    int prepares = 0;
    opts.prepare = [&](const std::vector<const JobSpec *> &) {
        ++prepares;
        stop = 1;
    };
    SweepScheduler sched(opts, makeJobs(4), nullptr);
    EXPECT_FALSE(sched.run());
    EXPECT_EQ(sched.exitCode(), kExitInterrupted);
    EXPECT_EQ(prepares, 1);
    EXPECT_EQ(sched.records()[0].termSignal, SIGTERM);
    for (std::size_t i = 1; i < sched.records().size(); ++i) {
        EXPECT_EQ(sched.records()[i].seconds, 0.0) << i;
        EXPECT_FALSE(sched.records()[i].done) << i;
    }
}

TEST(Scheduler, SpawnFailureIsFinal)
{
    SweepScheduler sched(fastOptions("/no/such/binary"), makeJobs(1),
                         nullptr);
    EXPECT_TRUE(sched.run());
    const JobRecord &rec = sched.records()[0];
    EXPECT_TRUE(rec.done);
    EXPECT_EQ(rec.cls, JobClass::Spawn);
    EXPECT_EQ(rec.exitCode, 127);
}

TEST(Scheduler, FailuresDegradeButNeverAbortTheSweep)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    // Job w1 fails deterministically, the others pass.
    const std::string sim = writeScript(
        dir, "mixed.sh",
        "case \"$*\" in *w1*) exit 3 ;; esac\n" +
            std::string(kOkJson));

    SweepScheduler sched(fastOptions(sim), makeJobs(4), nullptr);
    EXPECT_TRUE(sched.run());
    EXPECT_FALSE(sched.allOk());
    EXPECT_EQ(sched.doneCount(), 4u);  // graceful degradation
    int failed = 0;
    for (const JobRecord &rec : sched.records()) {
        if (rec.cls == JobClass::Audit)
            ++failed;
        else
            EXPECT_EQ(rec.cls, JobClass::Ok);
    }
    EXPECT_EQ(failed, 1);
}

// ---------------------------------------------------------------
// Resume
// ---------------------------------------------------------------

TEST(Resume, CompletedJobsNotReRunAndNoneLost)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    // Every execution appends its workload name to runs.log.
    const std::string sim = writeScript(
        dir, "count.sh",
        "for a in \"$@\"; do case \"$a\" in --workload=*) "
        "echo \"${a#--workload=}\" >> " + dir + "/runs.log ;; "
        "esac; done\n" + std::string(kOkJson));

    std::vector<JobSpec> jobs = makeJobs(3);

    // A journal as a SIGKILLed supervisor would leave it: job 0
    // finished, job 1 was launched but never reported, job 2 was
    // never started.
    SweepJournal journal;
    ASSERT_TRUE(journal.open(dir).isOk());
    JournalEvent ev;
    ev.kind = JournalEvent::Kind::Launch;
    ev.job = 0;
    ev.attempt = 1;
    ASSERT_TRUE(journal.append(ev).isOk());
    JournalEvent fin;
    fin.kind = JournalEvent::Kind::Final;
    fin.job = 0;
    fin.attempt = 1;
    fin.cls = JobClass::Ok;
    fin.exitCode = 0;
    fin.seconds = 0.5;
    fin.hasMetrics = true;
    fin.metrics.bandwidth = 9.0;
    ASSERT_TRUE(journal.append(fin).isOk());
    ev.job = 1;
    ASSERT_TRUE(journal.append(ev).isOk());

    Expected<std::vector<JournalEvent>> replayed =
        SweepJournal::replay(dir);
    ASSERT_TRUE(replayed.ok());

    SweepScheduler sched(fastOptions(sim), jobs, &journal);
    journal.seedSeq(sched.restore(replayed.value()));
    EXPECT_EQ(sched.doneCount(), 1u);
    EXPECT_TRUE(sched.run());
    EXPECT_TRUE(sched.allOk());
    EXPECT_EQ(sched.doneCount(), 3u);

    // Job 0's result was restored, not recomputed.
    EXPECT_TRUE(sched.records()[0].replayed);
    EXPECT_DOUBLE_EQ(sched.records()[0].metrics.bandwidth, 9.0);
    EXPECT_FALSE(sched.records()[1].replayed);

    // runs.log: exactly w1 and w2, never w0 — nothing twice,
    // nothing lost.
    Expected<std::string> runs =
        readFileToString(dir + "/runs.log");
    ASSERT_TRUE(runs.ok());
    EXPECT_EQ(runs.value().find("w0"), std::string::npos);
    EXPECT_NE(runs.value().find("w1"), std::string::npos);
    EXPECT_NE(runs.value().find("w2"), std::string::npos);
    EXPECT_EQ(runs.value().size(), 6u);  // "w1\nw2\n" in some order

    // The journal keeps a single, coherent history across both
    // supervisor generations.
    Expected<std::vector<JournalEvent>> full =
        SweepJournal::replay(dir);
    ASSERT_TRUE(full.ok());
    int finals = 0;
    for (const JournalEvent &e : full.value())
        finals += e.kind == JournalEvent::Kind::Final;
    EXPECT_EQ(finals, 3);
    EXPECT_GT(full.value().back().seq, replayed.value().back().seq);
}

TEST(Resume, InterruptedAttemptIsFree)
{
    // A drain-interrupted result must not consume a retry budget:
    // the job restores with zero attempts and full retries ahead.
    std::vector<JobSpec> jobs = makeJobs(1);
    std::vector<JournalEvent> events;
    JournalEvent ev;
    ev.kind = JournalEvent::Kind::Launch;
    ev.seq = 1;
    ev.job = 0;
    ev.attempt = 1;
    events.push_back(ev);
    ev.kind = JournalEvent::Kind::Result;
    ev.seq = 2;
    ev.cls = JobClass::Interrupted;
    events.push_back(ev);

    SweepScheduler sched(fastOptions("/bin/true"), jobs, nullptr);
    EXPECT_EQ(sched.restore(events), 2u);
    EXPECT_EQ(sched.doneCount(), 0u);
    EXPECT_EQ(sched.records()[0].attempts, 0);
}

TEST(Resume, BlockIoSurvivesJournalReplay)
{
    std::vector<JobSpec> jobs = makeJobs(1);
    std::vector<JournalEvent> events;
    JournalEvent ev;
    ev.kind = JournalEvent::Kind::Launch;
    ev.seq = 1;
    ev.job = 0;
    ev.attempt = 1;
    events.push_back(ev);
    ev.kind = JournalEvent::Kind::Final;
    ev.seq = 2;
    ev.cls = JobClass::Ok;
    ev.hasMetrics = true;
    ev.metrics.bandwidth = 4.0;
    ev.hasUsage = true;
    ev.usage.inBlock = 2048;
    events.push_back(ev);

    SweepScheduler sched(fastOptions("/bin/true"), jobs, nullptr);
    EXPECT_EQ(sched.restore(events), 2u);
    EXPECT_EQ(sched.doneCount(), 1u);
    const JobRecord &rec = sched.records()[0];
    EXPECT_TRUE(rec.replayed);
    ASSERT_TRUE(rec.hasUsage);
    EXPECT_EQ(rec.usage.inBlock, 2048u);
}

// ---------------------------------------------------------------
// Report
// ---------------------------------------------------------------

TEST(Report, SummaryCountsClasses)
{
    std::vector<JobSpec> jobs = makeJobs(4);
    std::vector<JobRecord> records;
    for (JobSpec &spec : jobs) {
        JobRecord rec;
        rec.spec = spec;
        records.push_back(rec);
    }
    records[0].done = true;
    records[0].cls = JobClass::Ok;
    records[1].done = true;
    records[1].cls = JobClass::Timeout;
    records[2].done = true;
    records[2].cls = JobClass::Timeout;
    // records[3] never ran (interrupted sweep)

    SweepSummary s = summarizeSweep(records, /*interrupted=*/true,
                                    /*retries=*/5, /*wall=*/1.25);
    EXPECT_EQ(s.total, 4u);
    EXPECT_EQ(s.ok, 1u);
    EXPECT_EQ(s.failed, 2u);
    EXPECT_EQ(s.notRun, 1u);
    EXPECT_EQ(s.retries, 5u);
    EXPECT_TRUE(s.interrupted);
    ASSERT_EQ(s.classCounts.size(), 2u);  // ok, timeout

    const std::string json = renderSweepReport(records, s);
    EXPECT_NE(json.find("\"interrupted\": true"), std::string::npos);
    EXPECT_NE(json.find("\"timeout\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"notRun\": 1"), std::string::npos);
}

TEST(Report, WrittenAtomicallyToDir)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    std::vector<JobRecord> records;
    SweepSummary s = summarizeSweep(records, false, 0, 0.0);
    ASSERT_TRUE(writeSweepReport(dir, records, s).isOk());
    Expected<std::string> text =
        readFileToString(dir + "/report.json");
    ASSERT_TRUE(text.ok());
    EXPECT_NE(text.value().find("\"total\": 0"), std::string::npos);
}

// ---------------------------------------------------------------
// Subprocess primitives
// ---------------------------------------------------------------

TEST(Subprocess, CapturesBothStreamsAndExitCode)
{
    Expected<Child> child =
        spawnChild({"/bin/sh", "-c", "echo out; echo err >&2; exit 7"});
    ASSERT_TRUE(child.ok()) << child.status().toString();
    Child c = child.take();
    int raw = 0;
    while (!reapChild(c, &raw))
        pumpChild(c);
    ASSERT_TRUE(WIFEXITED(raw));
    EXPECT_EQ(WEXITSTATUS(raw), 7);
    EXPECT_EQ(c.out, "out\n");
    EXPECT_EQ(c.err, "err\n");
}

TEST(Subprocess, ExecFailureExits127)
{
    Expected<Child> child = spawnChild({"/no/such/binary"});
    ASSERT_TRUE(child.ok());
    Child c = child.take();
    int raw = 0;
    while (!reapChild(c, &raw))
        pumpChild(c);
    ASSERT_TRUE(WIFEXITED(raw));
    EXPECT_EQ(WEXITSTATUS(raw), 127);
}

TEST(Subprocess, SignalKillsWholeProcessGroup)
{
    // The script spawns a grandchild; killing the group takes both.
    Expected<Child> child = spawnChild(
        {"/bin/sh", "-c", "sleep 30 & wait"});
    ASSERT_TRUE(child.ok());
    Child c = child.take();
    signalChild(c, SIGKILL);
    int raw = 0;
    while (!reapChild(c, &raw))
        pumpChild(c);
    ASSERT_TRUE(WIFSIGNALED(raw));
    EXPECT_EQ(WTERMSIG(raw), SIGKILL);
}

TEST(Subprocess, ForkedChildStdoutHoldsOnlyItsOwnOutput)
{
    // Unflushed supervisor output must neither reach the child's
    // pipe nor be lost: the fork flushes it first.
    std::printf("[supervisor output before a fork]");
    Expected<Child> child = forkChild([] {
        std::printf("{\"cell\": 1}\n");
        return 3;
    });
    std::printf("\n");
    ASSERT_TRUE(child.ok()) << child.status().toString();
    Child c = child.take();
    int raw = 0;
    while (!reapChild(c, &raw))
        pumpChild(c);
    ASSERT_TRUE(WIFEXITED(raw));
    EXPECT_EQ(WEXITSTATUS(raw), 3);
    EXPECT_EQ(c.out, "{\"cell\": 1}\n");
}

// ---------------------------------------------------------------
// Simulator cells over shared and own traces
// ---------------------------------------------------------------

namespace
{

constexpr uint64_t kCellInsts = 200000;

/** Counts trace builds per workload: the supervisor's, checking at
 *  each that it holds no other trace, and the cells' (logged to a
 *  file, since each cell is a process of its own). */
struct CountingTraces
{
    const pid_t supervisor = ::getpid();
    const TempDir tmp;
    const std::string cellLog = tmp.path + "/cell-builds";
    std::map<std::string, int> builds;
    int overlaps = 0;
    SweepTraces traces{[this](const RunSpec &spec) {
        if (::getpid() == supervisor) {
            ++builds[spec.workload];
            overlaps += traces.resident() != nullptr;
        } else {
            std::ofstream(cellLog, std::ios::app)
                << spec.workload << "\n";
        }
        return makeCatalogTrace(spec.workload, spec.insts);
    }};

    /** Trace builds by cells, per workload. */
    std::map<std::string, int> cellBuilds() const
    {
        std::map<std::string, int> counts;
        std::ifstream is(cellLog);
        for (std::string workload; is >> workload;)
            ++counts[workload];
        return counts;
    }
};

/** @p jobs as a prepare() queue, in order. */
std::vector<const JobSpec *>
queueOf(const std::vector<JobSpec> &jobs)
{
    std::vector<const JobSpec *> queue;
    for (const JobSpec &job : jobs)
        queue.push_back(&job);
    return queue;
}

/** Fast supervision for simulator cells; SweepTraces::attach sets
 *  the cell body. */
SchedulerOptions
cellOptions()
{
    SchedulerOptions opts = fastOptions("/bin/false");
    opts.timeoutSec = 60.0;
    return opts;
}

/** What `xbsim --json` reports for @p spec, parsed the way the
 *  supervisor parses a cell's stdout. */
JobMetrics
xbsimMetrics(const RunSpec &spec)
{
    std::vector<std::string> argv = {XBS_XBSIM};
    for (std::string &flag : spec.toArgv())
        argv.push_back(std::move(flag));
    argv.push_back("--json");
    Expected<Child> child = spawnChild(argv);
    EXPECT_TRUE(child.ok());
    Child c = child.take();
    int raw = 0;
    while (!reapChild(c, &raw))
        pumpChild(c);
    EXPECT_TRUE(WIFEXITED(raw) && WEXITSTATUS(raw) == 0) << c.err;
    JsonValue v;
    EXPECT_TRUE(parseJson(c.out, &v, nullptr)) << c.out;
    return readJobMetricsFields(v);
}

void
expectSameMetrics(const JobMetrics &a, const JobMetrics &b,
                  const std::string &label)
{
    EXPECT_EQ(a.bandwidth, b.bandwidth) << label;
    EXPECT_EQ(a.missRate, b.missRate) << label;
    EXPECT_EQ(a.overallIpc, b.overallIpc) << label;
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.totalUops, b.totalUops) << label;
    EXPECT_TRUE(a.attrib.has && b.attrib.has) << label;
    EXPECT_EQ(a.attrib.buildUops, b.attrib.buildUops) << label;
    EXPECT_EQ(a.attrib.silentCycles, b.attrib.silentCycles) << label;
    EXPECT_EQ(a.attrib.uops, b.attrib.uops) << label;
    EXPECT_EQ(a.attrib.cycles, b.attrib.cycles) << label;
}

/** Slows every cycle down, so a cell outlives a short deadline. */
struct SlowCycles : CycleObserver
{
    void onCycle(Frontend &, uint64_t) override { ::usleep(100); }
};

/** Count of a summary class in a rendered report ("timeout": 1). */
bool
reportHas(const std::string &report, const std::string &member)
{
    return report.find(member) != std::string::npos;
}

} // anonymous namespace

TEST(SimCells, SweepMatchesXbsimAndBuildsEachTraceOnce)
{
    CountingTraces counted;
    SchedulerOptions opts = cellOptions();
    counted.traces.attach(opts);
    SweepScheduler sched(
        opts,
        buildJobMatrix({"gcc", "li"}, {"tc", "xbc"}, {32768},
                       kCellInsts),
        nullptr);
    EXPECT_TRUE(sched.run());
    ASSERT_TRUE(sched.allOk());

    EXPECT_EQ(counted.builds,
              (std::map<std::string, int>{{"gcc", 1}, {"li", 1}}));
    EXPECT_EQ(counted.overlaps, 0);
    EXPECT_TRUE(counted.cellBuilds().empty());

    // report.json carries exactly what xbsim --json reports.
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_TRUE(writeSweepReport(dir, sched.records(),
                                 summarizeSweep(sched.records(), false,
                                                0, 0.0))
                    .isOk());
    Expected<JsonValue> report = readJsonFile(dir + "/report.json");
    ASSERT_TRUE(report.ok()) << report.status().toString();
    const JsonValue *jobs = report.value().find("jobs");
    ASSERT_TRUE(jobs && jobs->isArray());
    ASSERT_EQ(jobs->items.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        const JsonValue *m = jobs->items[i].find("metrics");
        ASSERT_TRUE(m) << i;
        const RunSpec &spec = sched.records()[i].spec.run;
        expectSameMetrics(readJobMetricsFields(*m), xbsimMetrics(spec),
                          spec.label());
    }
}

TEST(SimCells, SwitchingTracesDropsTheResidentOneFirst)
{
    CountingTraces counted;
    const std::vector<JobSpec> gcc =
        buildJobMatrix({"gcc"}, {"tc", "xbc"}, {32768}, 1000);
    const std::vector<JobSpec> li =
        buildJobMatrix({"li"}, {"tc", "xbc"}, {32768}, 1000);
    counted.traces.prepare(queueOf(gcc));
    ASSERT_NE(counted.traces.find(gcc[0].run), nullptr);
    counted.traces.prepare(queueOf(li));
    EXPECT_EQ(counted.traces.find(gcc[0].run), nullptr);
    ASSERT_NE(counted.traces.find(li[0].run), nullptr);
    counted.traces.prepare(queueOf(li));   // resident: not rebuilt
    counted.traces.prepare(queueOf(gcc));  // dropped: rebuilt
    EXPECT_EQ(counted.builds,
              (std::map<std::string, int>{{"gcc", 2}, {"li", 1}}));
    EXPECT_EQ(counted.overlaps, 0);

    // A trace no other queued cell reads is left to its cell, and the
    // resident one is dropped all the same.
    counted.traces.prepare({&li[0], &gcc[1]});
    EXPECT_EQ(counted.traces.resident(), nullptr);
    EXPECT_EQ(counted.builds,
              (std::map<std::string, int>{{"gcc", 2}, {"li", 1}}));
}

TEST(SimCells, LoneCellsBuildTheirOwnTraces)
{
    // One cell per workload: the supervisor builds nothing, so the
    // workers build their traces in parallel, as exec'd simulators
    // would, and report the same metrics.
    CountingTraces counted;
    SchedulerOptions opts = cellOptions();
    counted.traces.attach(opts);
    SweepScheduler sched(
        opts,
        buildJobMatrix({"gcc", "li"}, {"xbc"}, {32768}, kCellInsts),
        nullptr);
    EXPECT_TRUE(sched.run());
    ASSERT_TRUE(sched.allOk());
    EXPECT_TRUE(counted.builds.empty());
    EXPECT_EQ(counted.cellBuilds(),
              (std::map<std::string, int>{{"gcc", 1}, {"li", 1}}));
    for (const JobRecord &rec : sched.records()) {
        expectSameMetrics(rec.metrics, xbsimMetrics(rec.spec.run),
                          rec.spec.run.label());
    }
}

TEST(SimCells, ATraceThatCannotBeBuiltFailsOnlyItsCells)
{
    // Building go's trace throws, as an oversized one would
    // (bad_alloc), in the supervisor and in each of go's cells. The
    // supervisor survives and tries once; each go cell dies of the
    // exception inside its own process and is retried and
    // quarantined as a crash; the sweep ends degraded with every
    // other cell ok.
    struct rlimit core;
    ASSERT_EQ(::getrlimit(RLIMIT_CORE, &core), 0);
    core.rlim_cur = 0;  // no core file per aborted cell
    ASSERT_EQ(::setrlimit(RLIMIT_CORE, &core), 0);

    const pid_t supervisor = ::getpid();
    int supervisor_tries = 0;
    SweepTraces traces{[&](const RunSpec &spec) {
        if (spec.workload == "go") {
            supervisor_tries += ::getpid() == supervisor;
            throw std::bad_alloc();
        }
        return makeCatalogTrace(spec.workload, spec.insts);
    }};
    SchedulerOptions opts = cellOptions();
    traces.attach(opts);
    opts.maxRetries = 1;
    SweepScheduler sched(
        opts,
        buildJobMatrix({"gcc", "go", "li"}, {"tc", "xbc"}, {32768},
                       kCellInsts),
        nullptr);
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(sched.exitCode(), kExitDegraded);
    EXPECT_EQ(supervisor_tries, 1);
    for (const JobRecord &rec : sched.records()) {
        const std::string label = rec.spec.run.label();
        if (rec.spec.run.workload != "go") {
            EXPECT_EQ(rec.cls, JobClass::Ok) << label;
            continue;
        }
        EXPECT_EQ(rec.cls, JobClass::Crash) << label;
        EXPECT_EQ(rec.attempts, 2) << label;
        EXPECT_EQ(rec.termSignal, SIGABRT) << label;
    }
}

TEST(SimCells, RetryAfterTheTraceWasDroppedRebuildsIt)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    CountingTraces counted;
    SchedulerOptions opts = cellOptions();
    opts.maxRetries = 1;
    counted.traces.attach(opts);
    // gcc's TC cell crashes once; by its retry the supervisor has
    // moved on to li's trace.
    const std::string marker = dir + "/crashed";
    auto cell = opts.cellBody;
    opts.cellBody = [cell, marker](const JobSpec &job) {
        if (job.run.label() == "tc/gcc@32768" &&
            ::access(marker.c_str(), F_OK) != 0) {
            std::ofstream(marker).put('x');
            ::kill(::getpid(), SIGKILL);
        }
        return cell(job);
    };
    SweepScheduler sched(
        opts,
        buildJobMatrix({"gcc", "li"}, {"tc", "xbc"}, {32768},
                       kCellInsts),
        nullptr);
    EXPECT_TRUE(sched.run());
    ASSERT_TRUE(sched.allOk());
    EXPECT_EQ(sched.totalRetries(), 1u);

    const JobRecord &retried = sched.records()[0];
    EXPECT_EQ(retried.spec.run.label(), "tc/gcc@32768");
    EXPECT_EQ(retried.attempts, 2);
    // The retry is gcc's only queued cell, so it rebuilds the trace
    // itself.
    EXPECT_EQ(counted.builds,
              (std::map<std::string, int>{{"gcc", 1}, {"li", 1}}));
    EXPECT_EQ(counted.cellBuilds(),
              (std::map<std::string, int>{{"gcc", 1}}));
    EXPECT_EQ(counted.overlaps, 0);
    expectSameMetrics(retried.metrics, xbsimMetrics(retried.spec.run),
                      "retried tc/gcc");
}

TEST(SimCells, WatchdogTermDrainsASimulatorCell)
{
    // TERM at the deadline: the cell stops at a cycle boundary,
    // prints its partial result and exits 5 well inside the grace
    // period. The attempt is still a timeout.
    SweepTraces traces;
    SchedulerOptions opts = cellOptions();
    traces.attach(opts);
    opts.timeoutSec = 0.5;
    opts.graceSec = 30.0;
    opts.cellBody = [&traces](const JobSpec &job) {
        SlowCycles slow;
        return traces.simulate(job.run, {}, &slow);
    };
    SweepScheduler sched(
        opts, buildJobMatrix({"gcc"}, {"xbc"}, {32768}, kCellInsts),
        nullptr);
    EXPECT_TRUE(sched.run());
    const JobRecord &rec = sched.records()[0];
    EXPECT_EQ(rec.cls, JobClass::Timeout);
    EXPECT_EQ(rec.exitCode, kExitInterrupted);
    EXPECT_EQ(rec.termSignal, 0);
    EXPECT_LT(rec.seconds, 10.0);
}

TEST(SimCells, HungCellIsKilledRetriedAndQuarantined)
{
    // One cell of three ignores SIGTERM and never finishes. The
    // watchdog KILLs it after --grace, retries it once, quarantines
    // it as a timeout, and the sweep ends degraded (exit 4) with
    // the other two cells ok.
    SweepTraces traces;
    SchedulerOptions opts = cellOptions();
    traces.attach(opts);
    opts.timeoutSec = 2.0;
    opts.maxRetries = 1;
    auto cell = opts.cellBody;
    opts.cellBody = [cell](const JobSpec &job) {
        if (job.run.workload == "go") {
            ::signal(SIGTERM, SIG_IGN);
            for (;;)
                ::pause();
        }
        return cell(job);
    };
    SweepScheduler sched(
        opts,
        buildJobMatrix({"gcc", "go", "li"}, {"xbc"}, {32768},
                       kCellInsts),
        nullptr);
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(sched.exitCode(), kExitDegraded);
    const JobRecord &hung = sched.records()[1];
    EXPECT_EQ(hung.cls, JobClass::Timeout);
    EXPECT_EQ(hung.attempts, 2);
    EXPECT_EQ(hung.termSignal, SIGKILL);

    const std::string report = renderSweepReport(
        sched.records(),
        summarizeSweep(sched.records(), sched.interrupted(),
                       sched.totalRetries(), 0.0));
    EXPECT_TRUE(reportHas(report, "\"timeout\": 1")) << report;
    EXPECT_TRUE(reportHas(report, "\"ok\": 2")) << report;
    EXPECT_TRUE(reportHas(report, "\"retries\": 1")) << report;
}

TEST(SimCells, InjectedHangIsKilledAfterGraceAndRetried)
{
    // A simulator cell wedged mid-run (--inject=hang) sees no
    // SIGTERM, so only the SIGKILL after --grace ends each attempt.
    SweepTraces traces;
    SchedulerOptions opts = cellOptions();
    traces.attach(opts);
    opts.workers = 1;
    opts.timeoutSec = 1.0;
    opts.maxRetries = 1;
    opts.cellBody = [&traces](const JobSpec &job) -> int {
        Expected<InjectPlan> plan = parseInjectSpec("hang@20000");
        if (!plan.ok())
            return kExitUsage;
        FaultInjector hang(plan.take(), 1);
        return traces.simulate(job.run, {}, &hang);
    };
    SweepScheduler sched(
        opts, buildJobMatrix({"gcc"}, {"xbc"}, {32768}, kCellInsts),
        nullptr);
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(sched.exitCode(), kExitDegraded);
    const JobRecord &rec = sched.records()[0];
    EXPECT_EQ(rec.cls, JobClass::Timeout);
    EXPECT_EQ(rec.attempts, 2);
    EXPECT_EQ(rec.termSignal, SIGKILL);
    EXPECT_GE(rec.seconds, opts.timeoutSec + opts.graceSec);

    const std::string report = renderSweepReport(
        sched.records(),
        summarizeSweep(sched.records(), sched.interrupted(),
                       sched.totalRetries(), 0.0));
    EXPECT_TRUE(reportHas(report, "\"timeout\": 1")) << report;
    EXPECT_TRUE(reportHas(report, "\"retries\": 1")) << report;
}

// ---------------------------------------------------------------
// Crash-point matrix (this binary is the victim host)
// ---------------------------------------------------------------

// When XBS_CRASH_VICTIM_DIR is set this test IS the victim process:
// it runs the durability exercise body and exits, dying mid-flight
// at whatever crash point the environment armed.
TEST(CrashVictimHost, RunBody)
{
    const char *dir = std::getenv("XBS_CRASH_VICTIM_DIR");
    if (!dir)
        GTEST_SKIP() << "victim mode only (XBS_CRASH_VICTIM_DIR)";
    ::_exit(crashVictimMain(dir));
}

TEST(CrashMatrix, EverySiteCrashesAndRecovers)
{
    const TempDir tmp;
    const std::string &scratch = tmp.path;
    const std::vector<std::string> victim = {
        "env", "XBS_CRASH_VICTIM_DIR={DIR}", selfExe(),
        "--gtest_filter=CrashVictimHost.RunBody"};
    std::vector<CrashSiteResult> results =
        runCrashMatrix(victim, scratch);
    std::map<std::string, CrashSiteResult> last;
    for (const CrashSiteResult &res : results) {
        EXPECT_TRUE(res.crashed)
            << res.site << " visit " << res.visit
            << ": victim did not die at the plant: " << res.detail;
        EXPECT_TRUE(res.recovered)
            << res.site << " visit " << res.visit << ": " << res.detail;
        const unsigned prev = last.count(res.site)
                                  ? last[res.site].visit : 0;
        EXPECT_EQ(res.visit, prev + 1) << res.site;
        last[res.site] = res;
    }
    EXPECT_TRUE(crashMatrixPassed(results));

    // Every site is crashed at each of its visits: the victim writes
    // two whole files (manifest, then report), opens the journal once
    // and appends Launch/Result/Final for each of its 5 jobs.
    const std::map<std::string, unsigned> visits = {
        {"atomic.tmp_written", 2}, {"atomic.tmp_synced", 2},
        {"atomic.renamed", 2},     {"atomic.dir_synced", 2},
        {"append.opened", 1},      {"append.pre_write", 15},
        {"append.written", 15},    {"append.synced", 15},
    };
    ASSERT_EQ(crashPointSites().size(), visits.size());
    for (const std::string &site : crashPointSites()) {
        ASSERT_EQ(visits.count(site), 1u) << site;
        ASSERT_EQ(last.count(site), 1u) << site << " never crashed";
        EXPECT_EQ(last[site].visit, visits.at(site)) << site;
    }
    // The report is written after every final is acked, and from the
    // rename on it is on disk when the victim dies.
    for (const char *site : {"atomic.tmp_written", "atomic.tmp_synced",
                             "atomic.renamed", "atomic.dir_synced"}) {
        EXPECT_EQ(last[site].ackedFinals, 5u) << site;
    }
    EXPECT_FALSE(last["atomic.tmp_synced"].reportFound);
    EXPECT_TRUE(last["atomic.renamed"].reportFound);
    EXPECT_TRUE(last["atomic.dir_synced"].reportFound);
    // The last append is job 4's Final: jobs 0-3 are acked by then.
    for (const char *site :
         {"append.pre_write", "append.written", "append.synced"}) {
        EXPECT_EQ(last[site].ackedFinals, 4u) << site;
    }
}

TEST(CrashMatrix, UnarmedVictimRunsToCompletion)
{
    const TempDir tmp;
    const std::string dir = tmp.path + "/v";
    EXPECT_EQ(crashVictimMain(dir), 0);
    // And everything it wrote is consistent.
    Expected<SweepManifest> manifest = SweepJournal::readManifest(dir);
    ASSERT_TRUE(manifest.ok()) << manifest.status().toString();
    EXPECT_EQ(manifest.value().jobs.size(), 5u);
    Expected<std::vector<JournalEvent>> events =
        SweepJournal::replay(dir);
    ASSERT_TRUE(events.ok());
    std::size_t finals = 0;
    for (const JournalEvent &ev : events.value()) {
        if (ev.kind == JournalEvent::Kind::Final)
            ++finals;
    }
    EXPECT_EQ(finals, 5u);
    Expected<std::string> report = readFileToString(dir + "/report.json");
    ASSERT_TRUE(report.ok());
    EXPECT_NE(report.value().find("\"ok\": 5"), std::string::npos);
}
