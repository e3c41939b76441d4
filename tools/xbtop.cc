/**
 * @file
 * xbtop - live view of a running (or crashed) sweep directory.
 *
 * Attaches strictly read-only: the manifest gives the matrix, a
 * journal replay gives finished jobs and consumed attempts, and the
 * per-job heartbeat files give the live children's progress. Nothing
 * here coordinates with the supervisor, so xbtop works identically
 * on a sweep that is mid-flight, finished, or whose supervisor was
 * SIGKILLed an hour ago — the "is it hung or just slow?" question is
 * answered from the same evidence the stall detector uses.
 *
 * Examples:
 *   xbtop sweep-dir                 # refreshing terminal view
 *   xbtop sweep-dir --once          # one table, then exit
 *   xbtop sweep-dir --once --json   # machine-readable snapshot (CI)
 *
 * Exit codes: 0 snapshot rendered; 1 unusable sweep directory.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#include <sys/stat.h>
#include <time.h>

#include "batch/journal.hh"
#include "batch/report.hh"
#include "batch/scheduler.hh"
#include "common/args.hh"
#include "common/json.hh"
#include "common/signals.hh"
#include "common/table.hh"
#include "obs/heartbeat.hh"

using namespace xbs;

namespace
{

volatile std::sig_atomic_t g_stop = 0;

/** Age of @p path in seconds (negative if it cannot be stat'ed). */
double
fileAgeSeconds(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return -1.0;
    struct timespec now;
    ::clock_gettime(CLOCK_REALTIME, &now);
    double age = (double)(now.tv_sec - st.st_mtim.tv_sec) +
                 (double)(now.tv_nsec - st.st_mtim.tv_nsec) * 1e-9;
    return age < 0.0 ? 0.0 : age;
}

/** One job's merged view: journal state + live heartbeat. */
struct JobView
{
    const JobRecord *rec = nullptr;
    bool hasHb = false;
    HeartbeatRecord hb;
    double hbAge = -1.0;
    std::string state;  ///< ok|usage|...|running|stalled|pending
};

struct Snapshot
{
    SweepManifest manifest;
    std::vector<JobRecord> records;
    std::vector<JobView> jobs;
    unsigned retries = 0;
    std::size_t done = 0, ok = 0, failed = 0;
    std::size_t running = 0, stalledJobs = 0, pendingJobs = 0;
    uint64_t progressUops = 0;
    uint64_t estTotalUops = 0;
    double uopsPerSec = 0.0;
    double etaSeconds = -1.0;  ///< negative: unknown
};

/**
 * Build one consistent snapshot from the directory. Every read is
 * individually torn-tolerant (atomic heartbeats, journal tail
 * tolerance), so racing the live supervisor is safe.
 */
Expected<Snapshot>
takeSnapshot(const std::string &dir)
{
    Snapshot snap;
    Expected<SweepManifest> m = SweepJournal::readManifest(dir);
    if (!m.ok())
        return m.status();
    snap.manifest = m.take();

    Expected<std::vector<JournalEvent>> ev = SweepJournal::replay(dir);
    if (!ev.ok())
        return ev.status();

    // Reuse the supervisor's replay fold (journal-less, read-only)
    // so xbtop and --resume always agree on what is finished.
    SweepScheduler replayer(SchedulerOptions{}, snap.manifest.jobs,
                            nullptr);
    replayer.restore(ev.value());
    snap.records = replayer.records();
    for (const JournalEvent &e : ev.value()) {
        if (e.kind == JournalEvent::Kind::Result &&
            jobClassRetryable(e.cls)) {
            ++snap.retries;
        }
    }

    const double hb_sec = snap.manifest.heartbeatSec > 0.0
                              ? snap.manifest.heartbeatSec
                              : 1.0;
    const double stall_after =
        hb_sec * (snap.manifest.stallPeriods
                      ? snap.manifest.stallPeriods
                      : 4);

    uint64_t known_total = 0;
    std::size_t known_jobs = 0;
    for (const JobRecord &rec : snap.records) {
        JobView view;
        view.rec = &rec;
        const std::string hb_path = dir + "/heartbeats/job-" +
                                    std::to_string(rec.spec.id) +
                                    ".json";
        if (Expected<HeartbeatRecord> hb = readHeartbeat(hb_path);
            hb.ok()) {
            view.hasHb = true;
            view.hb = hb.take();
            view.hbAge = fileAgeSeconds(hb_path);
        }

        if (rec.done) {
            view.state = jobClassName(rec.cls);
            ++snap.done;
            if (rec.cls == JobClass::Ok) {
                ++snap.ok;
                snap.progressUops += rec.metrics.totalUops;
                known_total += rec.metrics.totalUops;
                ++known_jobs;
            } else {
                ++snap.failed;
            }
        } else if (view.hasHb && !view.hb.done &&
                   view.hbAge >= 0.0 && view.hbAge < stall_after) {
            view.state = "running";
            ++snap.running;
            snap.progressUops += view.hb.uops;
            snap.uopsPerSec += view.hb.uopsPerSec;
            if (view.hb.totalUops) {
                known_total += view.hb.totalUops;
                ++known_jobs;
            }
        } else if (view.hasHb && !view.hb.done) {
            // A heartbeat exists but went quiet: dead supervisor,
            // dead child, or a child the detector is about to kill.
            view.state = "stalled";
            ++snap.stalledJobs;
        } else {
            // Includes hb.done with no journal final (supervisor
            // died between the child's exit and the journal write):
            // the job will be re-run on resume.
            view.state = "pending";
            ++snap.pendingJobs;
        }
        snap.jobs.push_back(std::move(view));
    }

    // Estimate the sweep total: jobs with an unknown length get the
    // average of the known ones (same workload mix, so a fair
    // prior); no known lengths means no estimate.
    if (known_jobs) {
        const uint64_t avg = known_total / known_jobs;
        snap.estTotalUops = known_total +
                            avg * (uint64_t)(snap.records.size() -
                                             known_jobs);
    }
    if (snap.estTotalUops > snap.progressUops &&
        snap.uopsPerSec > 0.0) {
        snap.etaSeconds =
            (double)(snap.estTotalUops - snap.progressUops) /
            snap.uopsPerSec;
    }
    return snap;
}

void
writeSnapshotJson(std::ostream &os, const std::string &dir,
                  const Snapshot &snap)
{
    JsonWriter jw(os, /*pretty=*/true);
    jw.beginObject();
    // Version 3: per-job "restoredFrom" (warm starts) and the
    // "restore" heartbeat phase. Versions 4-5 added per-job host
    // counters, a smoothed rate/ETA with a CI, and a per-job workload
    // phase id. Version 6: no "service" flag and no "cached" state or
    // counts. Version 7: none of the version 4-5 additions.
    jw.field("version", (uint64_t)7);
    jw.field("dir", dir);
    jw.field("workers", (uint64_t)snap.manifest.workers);
    jw.field("heartbeatSec", snap.manifest.heartbeatSec);
    jw.field("stallPeriods", (uint64_t)snap.manifest.stallPeriods);
    jw.beginObject("jobs");
    jw.field("total", (uint64_t)snap.records.size());
    jw.field("done", (uint64_t)snap.done);
    jw.field("ok", (uint64_t)snap.ok);
    jw.field("failed", (uint64_t)snap.failed);
    jw.field("running", (uint64_t)snap.running);
    jw.field("stalled", (uint64_t)snap.stalledJobs);
    jw.field("pending", (uint64_t)snap.pendingJobs);
    jw.endObject();
    jw.field("retries", (uint64_t)snap.retries);
    jw.beginObject("progress");
    jw.field("uops", snap.progressUops);
    jw.field("estTotalUops", snap.estTotalUops);
    jw.field("ratio", snap.estTotalUops
                          ? std::min(1.0, (double)snap.progressUops /
                                              (double)snap.estTotalUops)
                          : 0.0);
    jw.field("uopsPerSec", snap.uopsPerSec);
    jw.field("etaSeconds", snap.etaSeconds);
    jw.endObject();
    jw.beginArray("perJob");
    for (const JobView &view : snap.jobs) {
        const JobRecord &rec = *view.rec;
        jw.beginObject();
        jw.field("id", (uint64_t)rec.spec.id);
        jw.field("label", rec.spec.run.label());
        jw.field("state", view.state);
        jw.field("attempts", (uint64_t)rec.attempts);
        if (view.hasHb) {
            jw.field("phase", view.hb.phase);
            jw.field("uops", view.hb.uops);
            jw.field("totalUops", view.hb.totalUops);
            jw.field("uopsPerSec", view.hb.uopsPerSec);
            jw.field("rssKb", view.hb.rssKb);
            jw.field("heartbeatSeq", view.hb.seq);
            jw.field("ageSeconds", view.hbAge);
            if (!view.hb.restoredFrom.empty())
                jw.field("restoredFrom", view.hb.restoredFrom);
        }
        if (rec.done)
            jw.field("seconds", rec.seconds);
        if (!rec.note.empty())
            jw.field("note", rec.note);
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();
    os << "\n";
}

void
renderTable(std::ostream &os, const std::string &dir,
            const Snapshot &snap)
{
    std::ostringstream head;
    head << "sweep " << dir << ": " << snap.done << "/"
         << snap.records.size() << " done (" << snap.ok << " ok, "
         << snap.failed << " failed), " << snap.running
         << " running, " << snap.stalledJobs << " stalled, "
         << snap.pendingJobs << " pending, " << snap.retries
         << " retries\n";
    if (snap.estTotalUops) {
        head << "progress: "
             << TextTable::pct((double)snap.progressUops /
                               (double)snap.estTotalUops)
             << " of ~" << snap.estTotalUops << " uops";
        if (snap.uopsPerSec > 0.0) {
            head << " at " << TextTable::num(snap.uopsPerSec / 1e6, 2)
                 << " Muops/s";
        }
        if (snap.etaSeconds >= 0.0)
            head << ", ETA " << TextTable::num(snap.etaSeconds, 0) << "s";
        head << "\n";
    }
    os << head.str() << "\n";

    TextTable table({"job", "label", "state", "att", "phase", "uops",
                     "rate", "rss", "beat"});
    for (const JobView &view : snap.jobs) {
        const JobRecord &rec = *view.rec;
        // Keep the table focused on live rows unless the sweep is
        // small; finished jobs are summarized above.
        if (rec.done && snap.records.size() > 16)
            continue;
        std::vector<std::string> row;
        row.push_back(std::to_string(rec.spec.id));
        row.push_back(rec.spec.run.label());
        row.push_back(view.state);
        row.push_back(std::to_string(rec.attempts));
        if (view.hasHb && !rec.done) {
            row.push_back(view.hb.phase);
            row.push_back(std::to_string(view.hb.uops));
            row.push_back(
                TextTable::num(view.hb.uopsPerSec / 1e6, 2) + "M/s");
            row.push_back(std::to_string(view.hb.rssKb) + "K");
            row.push_back(TextTable::num(view.hbAge, 1) + "s");
        } else {
            row.push_back("-");
            row.push_back(rec.done && rec.hasMetrics
                              ? std::to_string(
                                    rec.metrics.totalUops)
                              : "-");
            row.push_back("-");
            row.push_back("-");
            row.push_back("-");
        }
        table.addRow(std::move(row));
    }
    if (table.numRows())
        os << table.render();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string dir;
    bool once = false;
    bool json = false;
    double refresh = 1.0;

    ArgParser args("xbtop",
                   "live progress view of an xbatch sweep directory");
    args.addString("dir", &dir, "sweep directory (or positional)");
    args.addBool("once", &once, "render one snapshot and exit");
    args.addBool("json", &json,
                 "emit the snapshot as JSON (implies --once)");
    args.addDouble("refresh", &refresh,
                   "seconds between refreshes (live mode)");
    if (!args.parse(argc, argv))
        return 0;
    if (dir.empty() && !args.positional().empty())
        dir = args.positional()[0];
    if (dir.empty()) {
        std::fprintf(stderr,
                     "xbtop: no sweep directory (pass it as the "
                     "first argument)\n");
        return 1;
    }
    if (json)
        once = true;
    if (refresh < 0.1)
        refresh = 0.1;

    installStopHandlers(&g_stop);
    for (;;) {
        Expected<Snapshot> snap = takeSnapshot(dir);
        if (!snap.ok()) {
            std::fprintf(stderr, "xbtop: %s\n",
                         snap.status().toString().c_str());
            return 1;
        }
        if (json) {
            writeSnapshotJson(std::cout, dir, snap.value());
        } else {
            if (!once)
                std::cout << "\033[H\033[2J";  // clear, keep scrollback
            renderTable(std::cout, dir, snap.value());
            std::cout.flush();
        }
        if (once || g_stop)
            break;
        const auto until =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds((int64_t)(refresh * 1e6));
        while (!g_stop && std::chrono::steady_clock::now() < until) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        if (g_stop)
            break;
    }
    resetStopHandlers();
    return 0;
}
