#include "batch/report.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "common/fs.hh"
#include "common/json.hh"

namespace xbs
{

SweepSummary
summarizeSweep(const std::vector<JobRecord> &records, bool interrupted,
               unsigned retries, double wall_seconds)
{
    SweepSummary s;
    s.total = records.size();
    s.retries = retries;
    s.interrupted = interrupted;
    s.wallSeconds = wall_seconds;

    std::map<std::string, std::size_t> by_class;
    for (const JobRecord &rec : records) {
        if (!rec.done) {
            ++s.notRun;
            continue;
        }
        if (rec.cls == JobClass::Ok)
            ++s.ok;
        else
            ++s.failed;
        ++by_class[jobClassName(rec.cls)];
    }
    s.classCounts.assign(by_class.begin(), by_class.end());
    return s;
}

std::string
renderSweepReport(const std::vector<JobRecord> &records,
                  const SweepSummary &summary,
                  const SweepReportInfo &info)
{
    std::ostringstream os;
    {
        JsonWriter jw(os, /*pretty=*/true);
        jw.beginObject();
        jw.field("version", (uint64_t)1);
        jw.field("interrupted", summary.interrupted);
        if (info.hasBuild)
            writeBuildInfoJson(jw, info.build);
        if (info.intervalCycles)
            jw.field("intervalCycles", info.intervalCycles);

        jw.beginObject("summary");
        jw.field("total", (uint64_t)summary.total);
        jw.field("ok", (uint64_t)summary.ok);
        jw.field("failed", (uint64_t)summary.failed);
        jw.field("notRun", (uint64_t)summary.notRun);
        jw.field("retries", (uint64_t)summary.retries);
        jw.beginObject("classes");
        for (const auto &cc : summary.classCounts)
            jw.field(cc.first, (uint64_t)cc.second);
        jw.endObject();
        jw.endObject();

        // Everything timing-dependent lives in this one object (and
        // the per-job "seconds" and "rusage" members) so two runs of
        // one sweep can be compared member by member.
        jw.beginObject("timing");
        jw.field("wallSeconds", summary.wallSeconds);
        jw.endObject();

        jw.beginArray("jobs");
        for (const JobRecord &rec : records) {
            jw.beginObject();
            jw.field("id", (uint64_t)rec.spec.id);
            jw.field("workload", rec.spec.run.workload);
            jw.field("frontend", rec.spec.run.frontend);
            jw.field("capacity", rec.spec.run.capacity);
            if (rec.spec.run.ways != 0)
                jw.field("ways", rec.spec.run.ways);
            if (rec.spec.run.insts != 0)
                jw.field("insts", rec.spec.run.insts);
            jw.field("done", rec.done);
            if (rec.done)
                jw.field("class", jobClassName(rec.cls));
            jw.field("attempts", (int64_t)rec.attempts);
            jw.field("exit", (int64_t)rec.exitCode);
            jw.field("signal", (int64_t)rec.termSignal);
            jw.field("seconds", rec.seconds);
            if (rec.hasMetrics) {
                jw.beginObject("metrics");
                jw.field("bandwidth", rec.metrics.bandwidth);
                jw.field("missRate", rec.metrics.missRate);
                jw.field("overallIpc", rec.metrics.overallIpc);
                jw.field("cycles", rec.metrics.cycles);
                jw.field("totalUops", rec.metrics.totalUops);
                if (rec.metrics.attrib.has)
                    writeAttribRollup(jw, rec.metrics.attrib);
                jw.endObject();
            }
            if (rec.hasUsage) {
                jw.beginObject("rusage");
                jw.field("maxRssKb", rec.usage.maxRssKb);
                jw.field("userSec", rec.usage.userSec);
                jw.field("sysSec", rec.usage.sysSec);
                if (rec.usage.inBlock || rec.usage.outBlock) {
                    jw.field("inBlock", rec.usage.inBlock);
                    jw.field("outBlock", rec.usage.outBlock);
                }
                jw.endObject();
            }
            if (!rec.note.empty())
                jw.field("note", rec.note);
            jw.endObject();
        }
        jw.endArray();
        jw.endObject();
    }
    return os.str();
}

Status
writeSweepReport(const std::string &dir,
                 const std::vector<JobRecord> &records,
                 const SweepSummary &summary,
                 const SweepReportInfo &info)
{
    return writeFileAtomic(dir + "/report.json",
                           renderSweepReport(records, summary, info));
}

void
printSweepSummary(std::ostream &os,
                  const std::vector<JobRecord> &records,
                  const SweepSummary &summary)
{
    for (const JobRecord &rec : records) {
        char line[256];
        if (!rec.done) {
            std::snprintf(line, sizeof(line), "  %-28s not run",
                          rec.spec.run.label().c_str());
        } else if (rec.cls == JobClass::Ok && rec.hasMetrics) {
            std::snprintf(line, sizeof(line),
                          "  %-28s ok       bw=%6.3f miss=%5.3f "
                          "(%d attempt%s)",
                          rec.spec.run.label().c_str(),
                          rec.metrics.bandwidth, rec.metrics.missRate,
                          rec.attempts, rec.attempts == 1 ? "" : "s");
        } else {
            std::snprintf(line, sizeof(line),
                          "  %-28s %-8s (%d attempt%s)%s%s",
                          rec.spec.run.label().c_str(),
                          jobClassName(rec.cls), rec.attempts,
                          rec.attempts == 1 ? "" : "s",
                          rec.note.empty() ? "" : ": ",
                          rec.note.c_str());
        }
        os << line << "\n";
    }
    os << "sweep: " << summary.ok << "/" << summary.total << " ok";
    if (summary.failed > 0)
        os << ", " << summary.failed << " failed";
    if (summary.notRun > 0)
        os << ", " << summary.notRun << " not run";
    if (summary.retries > 0)
        os << ", " << summary.retries << " retr"
           << (summary.retries == 1 ? "y" : "ies");
    if (summary.interrupted)
        os << " [interrupted]";
    char secs[32];
    std::snprintf(secs, sizeof(secs), " (%.1fs)",
                  summary.wallSeconds);
    os << secs << "\n";
}

} // namespace xbs
