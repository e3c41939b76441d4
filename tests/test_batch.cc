/**
 * @file
 * Tests for the fault-tolerant sweep engine: exit-code taxonomy,
 * typed resource-exhaustion errors, timeout classification against a
 * genuinely hung child, retry/backoff accounting, the report (old or
 * new at every crash point of its atomic write), and simulator cells
 * forked from a trace the supervisor built once or building their
 * own.
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
#include "batch/report.hh"
#include "batch/scheduler.hh"
#include "batch/subprocess.hh"
#include "common/crashpoint.hh"
#include "common/fs.hh"
#include "common/json.hh"
#include "sim/cell.hh"
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

TEST(JobClassify, SanitizeNoteStripsControlBytes)
{
    // Control characters from a child's binary stderr must not reach
    // the report or its one-row-per-job table.
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
// Typed resource exhaustion is transient
// ---------------------------------------------------------------

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

// ---------------------------------------------------------------
// Scheduler against real (scripted) children
// ---------------------------------------------------------------

TEST(Scheduler, HappyPathParsesMetrics)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    const std::string sim = writeScript(dir, "sim.sh", kOkJson);

    SweepScheduler sched(fastOptions(sim), makeJobs(3));
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
    SweepScheduler sched(opts, makeJobs(1));
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

TEST(Scheduler, HugeTimeoutMeansNever)
{
    // The deadline saturates at the clock's end instead of wrapping
    // into the past, where it would kill every cell at its launch.
    const TempDir tmp;
    const std::string sim = writeScript(tmp.path, "sim.sh", kOkJson);
    for (double timeout : {1e10, 1e300}) {
        SchedulerOptions opts = fastOptions(sim);
        opts.timeoutSec = timeout;
        SweepScheduler sched(opts, makeJobs(2));
        EXPECT_TRUE(sched.run());
        EXPECT_TRUE(sched.allOk()) << timeout;
        EXPECT_EQ(sched.records()[0].cls, JobClass::Ok) << timeout;
    }
}

TEST(Scheduler, BinaryStderrSanitizedInNote)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    const std::string sim = writeScript(
        dir, "binerr.sh",
        "printf 'bad\\001\\002trace\\n' >&2\nexit 2\n");

    SweepScheduler sched(fastOptions(sim), makeJobs(1));
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
    SweepScheduler sched(opts, makeJobs(1));
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
    SweepScheduler sched(opts, makeJobs(1));
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
    SweepScheduler sched(opts, makeJobs(1));
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
    SweepScheduler sched(opts, makeJobs(4));
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
    SweepScheduler sched(fastOptions("/no/such/binary"), makeJobs(1));
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

    SweepScheduler sched(fastOptions(sim), makeJobs(4));
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

TEST(Report, OldOrNewAtEveryCrashPoint)
{
    // A writer killed at a step of the atomic replace leaves the old
    // report.json (or none) before the rename and the new one from
    // it on, never a torn file; its leftover temp file does not stop
    // the next write.
    std::vector<JobRecord> drained;
    for (JobSpec &spec : makeJobs(3)) {
        JobRecord rec;
        rec.spec = std::move(spec);
        drained.push_back(std::move(rec));
    }
    std::vector<JobRecord> finished = drained;
    for (JobRecord &rec : finished) {
        rec.done = true;
        rec.attempts = 1;
        rec.exitCode = 0;
        rec.hasMetrics = true;
        rec.metrics.bandwidth = 2.5;
    }
    const SweepSummary old_sum = summarizeSweep(drained, true, 0, 1.0);
    const SweepSummary new_sum = summarizeSweep(finished, false, 0, 2.0);
    const std::string old_text = renderSweepReport(drained, old_sum);
    const std::string new_text = renderSweepReport(finished, new_sum);

    for (const auto &[site, replaced] :
         {std::pair{"atomic.tmp_written", false},
          std::pair{"atomic.tmp_synced", false},
          std::pair{"atomic.renamed", true},
          std::pair{"atomic.dir_synced", true}}) {
        for (bool had_old : {false, true}) {
            const TempDir tmp;
            const std::string path = tmp.path + "/report.json";
            if (had_old) {
                ASSERT_TRUE(
                    writeSweepReport(tmp.path, drained, old_sum).isOk());
            }
            Expected<Child> writer = forkChild([&, site = site] {
                armCrashPoint(site);
                (void)writeSweepReport(tmp.path, finished, new_sum);
                return 0;  // the writer never reached the site
            });
            ASSERT_TRUE(writer.ok()) << writer.status().toString();
            Child c = writer.take();
            int raw = 0;
            while (!reapChild(c, &raw))
                pumpChild(c);
            ASSERT_TRUE(WIFEXITED(raw) &&
                        WEXITSTATUS(raw) == kCrashPointExit)
                << site << ": raw status " << raw;

            Expected<std::string> text = readFileToString(path);
            if (replaced || had_old) {
                ASSERT_TRUE(text.ok()) << site << ": "
                                       << text.status().toString();
                EXPECT_EQ(text.value(), replaced ? new_text : old_text)
                    << site;
            } else {
                EXPECT_EQ(text.status().code(), StatusCode::NotFound)
                    << site;
            }
            ASSERT_TRUE(
                writeSweepReport(tmp.path, finished, new_sum).isOk())
                << site;
            EXPECT_EQ(readFileToString(path).value(), new_text) << site;
        }
    }
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
                       kCellInsts));
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
        buildJobMatrix({"gcc", "li"}, {"xbc"}, {32768}, kCellInsts));
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
                       kCellInsts));
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
                       kCellInsts));
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
        opts, buildJobMatrix({"gcc"}, {"xbc"}, {32768}, kCellInsts));
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
    // watchdog KILLs it after the grace, retries it once, quarantines
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
                       kCellInsts));
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
    // SIGTERM, so only the SIGKILL after the grace ends each attempt.
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
        opts, buildJobMatrix({"gcc"}, {"xbc"}, {32768}, kCellInsts));
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
