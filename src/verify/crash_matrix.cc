#include "verify/crash_matrix.hh"

#include <algorithm>
#include <chrono>
#include <functional>
#include <sstream>
#include <thread>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "batch/journal.hh"
#include "batch/report.hh"
#include "batch/subprocess.hh"
#include "common/crashpoint.hh"
#include "common/fs.hh"

namespace xbs
{

namespace
{

JobMetrics
victimMetrics(int job)
{
    JobMetrics m;
    m.bandwidth = 10.0 + job;
    m.missRate = 0.01 * (job + 1);
    m.overallIpc = 2.0;
    m.cycles = 1000u * (unsigned)(job + 1);
    m.totalUops = 4000u * (unsigned)(job + 1);
    return m;
}

/** The matrix the victim records in its manifest. */
SweepManifest
victimManifest()
{
    SweepManifest m;
    m.jobs = buildJobMatrix({"crash-victim"},
                            {"ic", "dc", "tc", "bbtc", "xbc"}, {1024},
                            1000);
    return m;
}

/** Every victim job finished Ok: what its report describes. */
std::vector<JobRecord>
victimRecords()
{
    std::vector<JobRecord> records;
    for (JobSpec &spec : victimManifest().jobs) {
        JobRecord rec;
        rec.done = true;
        rec.attempts = 1;
        rec.exitCode = 0;
        rec.seconds = 0.25;
        rec.hasMetrics = true;
        rec.metrics = victimMetrics(spec.id);
        rec.spec = std::move(spec);
        records.push_back(std::move(rec));
    }
    return records;
}

/** The report an uncrashed victim leaves behind. */
Status
writeVictimReport(const std::string &dir)
{
    const std::vector<JobRecord> records = victimRecords();
    return writeSweepReport(dir, records,
                            summarizeSweep(records, false, 0, 1.0));
}

/** write(2) so the ack reaches the pipe before any planted _exit. */
void
ackLine(const std::string &line)
{
    std::string out = line + "\n";
    (void)!::write(STDOUT_FILENO, out.data(), out.size());
}

/**
 * Recovery check for one atomically written file: what the victim
 * left must be absent (the old content) or byte-equal to a fresh
 * write of the new content, never torn, and an acked file must
 * exist. @p rewrite writes the new content over whatever is there,
 * which also proves a leftover temp file does not wedge the writer.
 * Returns the failure, or "".
 */
std::string
checkWholeFile(const std::string &path, bool acked,
               const std::function<Status()> &rewrite)
{
    Expected<std::string> before = readFileToString(path);
    if (!before.ok() && before.status().code() != StatusCode::NotFound)
        return path + ": " + before.status().toString();
    if (!before.ok() && acked)
        return path + ": acked file lost";
    if (Status st = rewrite(); !st.isOk())
        return path + ": post-crash rewrite: " + st.toString();
    Expected<std::string> after = readFileToString(path);
    if (!after.ok())
        return path + ": " + after.status().toString();
    if (before.ok() && before.value() != after.value())
        return path + ": torn content";
    return "";
}

} // anonymous namespace

int
crashVictimMain(const std::string &dir)
{
    if (Status st = ensureDir(dir); !st.isOk())
        return 1;

    // The order of an xbatch run: the manifest first, then the
    // journal, then the report. Each step is acked only once durable.
    if (Status st = SweepJournal::writeManifest(dir, victimManifest());
        !st.isOk()) {
        return 1;
    }
    ackLine("manifest");

    // Journal leg: every job through the full event sequence. An id
    // is acked only after its Final is durable.
    SweepJournal journal;
    if (Status st = journal.open(dir); !st.isOk())
        return 1;
    for (const JobRecord &rec : victimRecords()) {
        JournalEvent launch;
        launch.kind = JournalEvent::Kind::Launch;
        launch.job = rec.spec.id;
        launch.attempt = 1;
        if (Status st = journal.append(launch); !st.isOk())
            return 1;
        for (JournalEvent::Kind kind : {JournalEvent::Kind::Result,
                                        JournalEvent::Kind::Final}) {
            JournalEvent ev;
            ev.kind = kind;
            ev.job = rec.spec.id;
            ev.attempt = rec.attempts;
            ev.cls = rec.cls;
            ev.exitCode = rec.exitCode;
            ev.seconds = rec.seconds;
            ev.hasMetrics = rec.hasMetrics;
            ev.metrics = rec.metrics;
            if (Status st = journal.append(ev); !st.isOk())
                return 1;
        }
        ackLine("acked " + std::to_string(rec.spec.id));
    }

    if (Status st = writeVictimReport(dir); !st.isOk())
        return 1;
    ackLine("report");
    return 0;
}

CrashSiteResult
runCrashSite(const std::string &site, unsigned visit,
             const std::vector<std::string> &victim_argv,
             const std::string &dir)
{
    CrashSiteResult res;
    res.site = site;
    res.visit = visit;
    auto fail = [&](const std::string &why) {
        res.detail = why;
        return res;
    };

    if (Status st = ensureDir(dir); !st.isOk())
        return fail("scratch dir: " + st.toString());

    // env(1) plants the crash point in the child only; this process
    // keeps running unarmed. "{DIR}" in the victim argv becomes the
    // per-visit scratch dir so victim and verifier agree on it.
    std::vector<std::string> argv;
    argv.push_back("env");
    argv.push_back("XBATCH_CRASH_AT=" + site + ":" +
                   std::to_string(visit));
    for (std::string arg : victim_argv) {
        for (std::size_t at; (at = arg.find("{DIR}")) !=
                             std::string::npos;) {
            arg.replace(at, 5, dir);
        }
        argv.push_back(std::move(arg));
    }
    Expected<Child> spawned = spawnChild(argv);
    if (!spawned.ok())
        return fail("spawn: " + spawned.status().toString());
    Child child = spawned.take();

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(20);
    int raw = 0;
    for (;;) {
        pumpChild(child);
        if (reapChild(child, &raw))
            break;
        if (std::chrono::steady_clock::now() > deadline) {
            signalChild(child, SIGKILL);
            while (!reapChild(child, &raw)) {
            }
            return fail("victim timed out");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (WIFEXITED(raw) && WEXITSTATUS(raw) == 0) {
        res.finished = true;
        return fail("victim ran to completion before visit " +
                    std::to_string(visit));
    }
    if (!WIFEXITED(raw) || WEXITSTATUS(raw) != kCrashPointExit) {
        std::ostringstream os;
        os << "victim did not die at the plant (raw status " << raw
           << "; stderr: " << child.err << ")";
        return fail(os.str());
    }
    res.crashed = true;

    // Acks the victim got out before dying: results that MUST have
    // survived.
    std::vector<int> acked;
    bool manifest_acked = false, report_acked = false;
    {
        std::istringstream is(child.out);
        std::string word;
        while (is >> word) {
            if (word == "acked") {
                int id;
                if (is >> id)
                    acked.push_back(id);
            }
            manifest_acked = manifest_acked || word == "manifest";
            report_acked = report_acked || word == "report";
        }
    }
    res.ackedFinals = acked.size();
    res.reportFound = pathExists(dir + "/report.json");

    // --- Recovery, exactly as xbatch --resume would do it. ---

    // 1. Replay accepts the journal (at most a torn tail).
    std::vector<JournalEvent> events;
    if (pathExists(SweepJournal::journalPath(dir))) {
        Expected<std::vector<JournalEvent>> replayed =
            SweepJournal::replay(dir);
        if (!replayed.ok())
            return fail("replay rejected: " +
                        replayed.status().toString());
        events = replayed.take();
    }

    // 2. No job finalized twice; no acked final lost.
    std::vector<int> final_jobs;
    for (const JournalEvent &ev : events) {
        if (ev.kind != JournalEvent::Kind::Final)
            continue;
        for (int seen : final_jobs) {
            if (seen == ev.job)
                return fail("job " + std::to_string(ev.job) +
                            " finalized twice");
        }
        final_jobs.push_back(ev.job);
    }
    for (int id : acked) {
        bool found = false;
        for (int seen : final_jobs)
            found = found || seen == id;
        if (!found)
            return fail("acked final for job " + std::to_string(id) +
                        " lost");
    }

    // 3. The journal takes appends again (not wedged by the crash).
    {
        SweepJournal journal;
        if (Status st = journal.open(dir); !st.isOk())
            return fail("re-open: " + st.toString());
        uint64_t last_seq = 0;
        for (const JournalEvent &ev : events)
            last_seq = std::max(last_seq, ev.seq);
        journal.seedSeq(last_seq);
        JournalEvent probe;
        probe.kind = JournalEvent::Kind::Launch;
        probe.job = 999;
        probe.attempt = 1;
        if (Status st = journal.append(probe); !st.isOk())
            return fail("post-crash append: " + st.toString());
    }

    // 4. The manifest and the report read back as either the old
    //    (absent) or the new content, never torn.
    if (std::string why = checkWholeFile(
            SweepJournal::manifestPath(dir), manifest_acked,
            [&] {
                return SweepJournal::writeManifest(dir,
                                                   victimManifest());
            });
        !why.empty()) {
        return fail(why);
    }
    if (std::string why =
            checkWholeFile(dir + "/report.json", report_acked,
                           [&] { return writeVictimReport(dir); });
        !why.empty()) {
        return fail(why);
    }

    res.recovered = true;
    return res;
}

std::vector<CrashSiteResult>
runCrashMatrix(const std::vector<std::string> &victim_argv,
               const std::string &scratch)
{
    std::vector<CrashSiteResult> results;
    for (const std::string &site : crashPointSites()) {
        std::string name = site;
        std::replace(name.begin(), name.end(), '.', '_');
        // Each crash proves the site had this visit, so the loop ends
        // once the victim outlives the site's last one.
        for (unsigned visit = 1;; ++visit) {
            CrashSiteResult res = runCrashSite(
                site, visit, victim_argv,
                scratch + "/" + name + "_" + std::to_string(visit));
            if (res.finished && visit > 1)
                break;
            const bool ok = res.crashed && res.recovered;
            results.push_back(std::move(res));
            if (!ok)
                break;
        }
    }
    return results;
}

bool
crashMatrixPassed(const std::vector<CrashSiteResult> &results)
{
    if (results.empty())
        return false;
    for (const CrashSiteResult &res : results) {
        if (!res.crashed || !res.recovered)
            return false;
    }
    return true;
}

} // namespace xbs
