/**
 * @file
 * Tests for the fault-tolerant sweep engine: exit-code taxonomy,
 * typed resource-exhaustion errors, journal round-trip and torn-tail
 * tolerance, timeout classification against a genuinely hung child,
 * retry/backoff accounting, resume semantics (no completed job
 * re-executed, no pending job lost), and the crash-point recovery
 * matrix (this test binary doubles as the victim process).
 *
 * Children are tiny /bin/sh scripts the tests write themselves, so
 * each failure mode (hang, crash, deterministic exit code) is exact
 * and fast.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

#include "batch/job.hh"
#include "batch/journal.hh"
#include "batch/report.hh"
#include "batch/scheduler.hh"
#include "batch/subprocess.hh"
#include "common/crashpoint.hh"
#include "common/fs.hh"
#include "verify/crash_matrix.hh"

using namespace xbs;

namespace
{

/** Fresh scratch directory per test. */
std::string
makeTempDir()
{
    char tmpl[] = "/tmp/xbs_batch_XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir;
}

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

SchedulerOptions
fastOptions(const std::string &xbsim)
{
    SchedulerOptions opts;
    opts.xbsimPath = xbsim;
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
    EXPECT_EQ(classifyOutcome(false, false, true, 0, 0),
              JobClass::Ok);
    EXPECT_EQ(classifyOutcome(false, false, true, 1, 0),
              JobClass::Usage);
    EXPECT_EQ(classifyOutcome(false, false, true, 2, 0),
              JobClass::Data);
    EXPECT_EQ(classifyOutcome(false, false, true, 3, 0),
              JobClass::Audit);
    EXPECT_EQ(classifyOutcome(false, false, true, 5, 0),
              JobClass::Interrupted);
    EXPECT_EQ(classifyOutcome(false, false, true, 127, 0),
              JobClass::Spawn);
    // Unknown exit codes and signal deaths are crashes.
    EXPECT_EQ(classifyOutcome(false, false, true, 42, 0),
              JobClass::Crash);
    EXPECT_EQ(classifyOutcome(false, false, false, -1, SIGSEGV),
              JobClass::Crash);
    // A watchdog kill is a timeout no matter what the child managed
    // to report on the way down.
    EXPECT_EQ(classifyOutcome(true, false, true, 0, 0),
              JobClass::Timeout);
    EXPECT_EQ(classifyOutcome(true, false, false, -1, SIGKILL),
              JobClass::Timeout);
    // A stall-detector kill is the more specific verdict: it wins
    // over both the exit status and a concurrent wall-clock timeout.
    EXPECT_EQ(classifyOutcome(false, true, false, -1, SIGKILL),
              JobClass::Stalled);
    EXPECT_EQ(classifyOutcome(true, true, true, 0, 0),
              JobClass::Stalled);
}

TEST(JobClassify, OnlyTransientsRetry)
{
    EXPECT_TRUE(jobClassRetryable(JobClass::Timeout));
    EXPECT_TRUE(jobClassRetryable(JobClass::Stalled));
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
          JobClass::Stalled, JobClass::Crash, JobClass::Spawn}) {
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
    const std::string dir = makeTempDir();
    SweepManifest m;
    m.xbsim = "/opt/bin/xbsim";
    m.workers = 7;
    m.timeoutSec = 12.5;
    m.maxRetries = 3;
    m.backoffMs = 450;
    m.jobs = buildJobMatrix({"gcc", "go"}, {"tc"}, {4096}, 5000);
    ASSERT_TRUE(SweepJournal::writeManifest(dir, m).isOk());

    Expected<SweepManifest> back = SweepJournal::readManifest(dir);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back.value().xbsim, m.xbsim);
    EXPECT_EQ(back.value().workers, 7u);
    EXPECT_EQ(back.value().timeoutSec, 12.5);
    EXPECT_EQ(back.value().maxRetries, 3u);
    EXPECT_EQ(back.value().backoffMs, 450u);
    ASSERT_EQ(back.value().jobs.size(), 2u);
    EXPECT_TRUE(back.value().jobs[1].run == m.jobs[1].run);
}

TEST(Journal, EventsRoundTrip)
{
    const std::string dir = makeTempDir();
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
    const std::string dir = makeTempDir();
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
    const std::string dir = makeTempDir();
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
        const std::string dir = makeTempDir();
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
    const std::string dir = makeTempDir();
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
    const std::string dir = makeTempDir();
    // Ignore SIGTERM so the watchdog must escalate to SIGKILL. The
    // hang is a busy loop in the shell itself: a foreground sleep
    // would die on the group-wide TERM and let the script exit 0.
    const std::string sim = writeScript(
        dir, "hang.sh", "trap '' TERM\nwhile :; do :; done\n");

    SchedulerOptions opts = fastOptions(sim);
    opts.timeoutSec = 0.3;
    SweepScheduler sched(opts, makeJobs(1), nullptr);
    EXPECT_TRUE(sched.run());  // completed, not interrupted
    EXPECT_FALSE(sched.allOk());
    ASSERT_EQ(sched.records().size(), 1u);
    const JobRecord &rec = sched.records()[0];
    EXPECT_TRUE(rec.done);
    EXPECT_EQ(rec.cls, JobClass::Timeout);
    EXPECT_EQ(rec.termSignal, SIGKILL);
    EXPECT_GE(rec.seconds, 0.3);
    EXPECT_LT(rec.seconds, 5.0);  // never waited for the sleep
}

namespace
{

/** fastOptions plus an armed stall detector writing into dir/hb. */
SchedulerOptions
heartbeatOptions(const std::string &dir, const std::string &xbsim,
                 double period_sec, unsigned periods)
{
    SchedulerOptions opts = fastOptions(xbsim);
    opts.heartbeatDir = dir + "/hb";
    opts.heartbeatSec = period_sec;
    opts.stallPeriods = periods;
    EXPECT_TRUE(ensureDir(opts.heartbeatDir).isOk());
    return opts;
}

} // anonymous namespace

TEST(Scheduler, StalledChildKilledAndClassified)
{
    const std::string dir = makeTempDir();
    // The child heartbeats once (arming the detector) and then stops
    // making progress while staying alive and ignoring SIGTERM. The
    // wall-clock timeout is far away: only the stall detector can
    // end this within the test's deadline.
    const std::string sim = writeScript(
        dir, "stall.sh",
        "printf '{\"seq\":1,\"phase\":\"sim\",\"uops\":100}' > " +
            dir + "/hb/job-0.json\n"
            "trap '' TERM\nwhile :; do :; done\n");

    SchedulerOptions opts = heartbeatOptions(dir, sim, 0.05, 2);
    opts.timeoutSec = 30.0;
    SweepScheduler sched(opts, makeJobs(1), nullptr);
    EXPECT_TRUE(sched.run());
    EXPECT_FALSE(sched.allOk());
    const JobRecord &rec = sched.records()[0];
    EXPECT_TRUE(rec.done);
    EXPECT_EQ(rec.cls, JobClass::Stalled);
    EXPECT_EQ(rec.termSignal, SIGKILL);
    EXPECT_EQ(rec.note, "no uop progress for 2 heartbeat periods");
    EXPECT_LT(rec.seconds, 5.0);  // stalled, not wall-clock timeout
}

TEST(Scheduler, StalledJobRetriedThenSucceeds)
{
    const std::string dir = makeTempDir();
    // First attempt wedges after one heartbeat; the marker makes the
    // retry exit cleanly. Stalls must be treated as transient.
    const std::string sim = writeScript(
        dir, "flaky_stall.sh",
        "if [ -e " + dir + "/marker ]; then\n" +
            std::string(kOkJson) +
            "else\n"
            "  touch " + dir + "/marker\n"
            "  printf '{\"seq\":1,\"phase\":\"sim\",\"uops\":5}' > " +
            dir + "/hb/job-0.json\n"
            "  trap '' TERM\n"
            "  while :; do :; done\n"
            "fi\n");

    SchedulerOptions opts = heartbeatOptions(dir, sim, 0.05, 2);
    opts.timeoutSec = 30.0;
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

TEST(Scheduler, ProgressingChildOutlivesWallClockTimeout)
{
    const std::string dir = makeTempDir();
    // The child needs ~0.6s but the wall-clock timeout is 0.25s.
    // Because it heartbeats with growing uop counts, the armed stall
    // detector owns the verdict and the job must NOT be killed.
    const std::string sim = writeScript(
        dir, "slow.sh",
        "i=1\n"
        "while [ $i -le 12 ]; do\n"
        "  printf '{\"seq\":%d,\"phase\":\"sim\",\"uops\":%d}' "
        "$i $((i*100)) > " + dir + "/hb/job-0.json\n"
        "  i=$((i+1))\n"
        "  sleep 0.05\n"
        "done\n" + kOkJson);

    SchedulerOptions opts = heartbeatOptions(dir, sim, 0.05, 4);
    opts.timeoutSec = 0.25;
    SweepScheduler sched(opts, makeJobs(1), nullptr);
    EXPECT_TRUE(sched.run());
    EXPECT_TRUE(sched.allOk());
    const JobRecord &rec = sched.records()[0];
    EXPECT_EQ(rec.cls, JobClass::Ok);
    EXPECT_EQ(rec.attempts, 1);
    EXPECT_GE(rec.seconds, 0.25);  // genuinely outlived the deadline
}

TEST(Scheduler, SilentChildStillFallsBackToWallClock)
{
    const std::string dir = makeTempDir();
    // Heartbeats are enabled but this child never writes one (hung
    // before its first beat). The wall-clock watchdog must still
    // apply, and the verdict stays Timeout — not Stalled.
    const std::string sim = writeScript(
        dir, "mute.sh", "trap '' TERM\nwhile :; do :; done\n");

    SchedulerOptions opts = heartbeatOptions(dir, sim, 0.05, 2);
    opts.timeoutSec = 0.3;
    SweepScheduler sched(opts, makeJobs(1), nullptr);
    EXPECT_TRUE(sched.run());
    const JobRecord &rec = sched.records()[0];
    EXPECT_EQ(rec.cls, JobClass::Timeout);
    EXPECT_GE(rec.seconds, 0.3);
    EXPECT_LT(rec.seconds, 5.0);
}

TEST(Scheduler, BinaryStderrSanitizedInNote)
{
    const std::string dir = makeTempDir();
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
    const std::string dir = makeTempDir();
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
    const std::string dir = makeTempDir();
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
    const std::string dir = makeTempDir();
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
    const std::string dir = makeTempDir();
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
    const std::string dir = makeTempDir();
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
    const std::string dir = makeTempDir();
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
    const std::string scratch = makeTempDir();
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
    const std::string dir = makeTempDir() + "/v";
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
