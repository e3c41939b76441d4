/**
 * @file
 * The sweep workload: one xbatch run per repetition, checked through
 * its report.json (read with common/json).
 */

#include <poll.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>

#include "attrib/rollup.hh"
#include "batch/subprocess.hh"
#include "bench.hh"
#include "common/random.hh"
#include "prof/host_counters.hh"
#include "workload/catalog.hh"

namespace xbs::perfbench
{

namespace
{

/** Stop xbatch if it outlives this, so a run ends well inside its
 *  time limit: SIGTERM first (xbatch then stops its children), and
 *  SIGKILL kKillGraceSec later. */
constexpr double kSweepDeadlineSec = 120.0;
constexpr double kKillGraceSec = 10.0;

double
childrenCpuSec()
{
    struct rusage ru;
    ::getrusage(RUSAGE_CHILDREN, &ru);
    return HostCounters::fromRusage(ru).cpuSec();
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names)
        out += (out.empty() ? "" : ",") + n;
    return out;
}

/** Wait for @p child to exit, draining its output; false (after
 *  stopping it) when the deadline passes first. */
bool
waitChild(Child &child, double deadline, int *raw_status)
{
    bool terminated = false;
    auto enforce = [&] {
        const double now = nowSec();
        if (now > deadline + kKillGraceSec) {
            signalChild(child, SIGKILL);
        } else if (now > deadline && !terminated) {
            signalChild(child, SIGTERM);
            terminated = true;
        }
    };
    while (child.outFd >= 0 || child.errFd >= 0) {
        pollfd fds[2];
        nfds_t n = 0;
        for (int fd : {child.outFd, child.errFd}) {
            if (fd >= 0)
                fds[n++] = pollfd{fd, POLLIN, 0};
        }
        ::poll(fds, n, 100);
        pumpChild(child);
        enforce();
    }
    while (!reapChild(child, raw_status)) {
        enforce();
        ::usleep(1000);
    }
    return !terminated;
}

double
num(const JsonValue &obj, const char *key, double dflt = 0.0)
{
    const JsonValue *v = obj.find(key);
    return v ? v->asNumber(dflt) : dflt;
}

uint64_t
count(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    return v ? v->asUint() : 0;
}

std::string
str(const JsonValue &obj, const char *key, const std::string &dflt = "")
{
    const JsonValue *v = obj.find(key);
    return v ? v->asString(dflt) : dflt;
}

} // anonymous namespace

const std::vector<uint64_t> &
sweepCapacities()
{
    static const std::vector<uint64_t> caps = {8192, 32768};
    return caps;
}

std::vector<std::string>
sweepWorkloads(uint64_t seed)
{
    // One slot per default workload (listed first), holding
    // suite-mates whose four sweep cells took about as long at 10M
    // instructions (seconds, summed over the cells, 4-vCPU host): a
    // seed then changes the inputs but hardly the amount of work.
    static const std::vector<std::vector<const char *>> kSlots = {
        {"gcc", "perl", "vortex", "m88ksim"},              // 2.0-2.4
        {"li", "compress", "ijpeg"},                       // 1.5-1.7
        {"word", "photoshp", "corel", "premiere", "excel"}, // 2.7-3.0
        {"quake2", "falcon4", "halflife", "unreal"},       // 2.1-2.4
    };
    Rng rng(seed);
    std::vector<std::string> picked;
    for (const auto &slot : kSlots)
        picked.push_back(slot[seed == 0 ? 0 : rng.below(slot.size())]);
    return picked;
}

// prof/bench_io's aggregateSweepDir keeps only ok jobs and drops the
// replayed and cached flags, so the checks read report.json directly.
std::vector<CellResult>
cellsFromReport(const JsonValue &report, std::size_t expected_jobs)
{
    static const std::vector<JsonValue> kNoJobs;
    const JsonValue *jobs = report.find("jobs");
    std::vector<CellResult> cells;
    for (const JsonValue &job :
         jobs && jobs->isArray() ? jobs->items : kNoJobs) {
        CellResult c;
        c.workload = str(job, "workload");
        c.frontend = str(job, "frontend");
        c.capacity = count(job, "capacity");
        c.label = c.frontend + "/" + c.workload + "@" +
                  std::to_string(c.capacity);
        c.runSec = num(job, "seconds");

        const std::string cls = str(job, "class", "unfinished");
        if (cls != "ok") {
            c.completed = false;
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "job ended '%s' (exit %g, signal %g)",
                          cls.c_str(), num(job, "exit"),
                          num(job, "signal"));
            c.failures.emplace_back(buf);
        }
        if (const JsonValue *v = job.find("replayed"); v && v->boolValue)
            c.failures.emplace_back("job was replayed from the journal");
        if (const JsonValue *v = job.find("cached"); v && v->boolValue)
            c.failures.emplace_back("job was served from the result "
                                    "cache");

        if (const JsonValue *m = job.find("metrics")) {
            c.cycles = count(*m, "cycles");
            c.traceUops = count(*m, "totalUops");
            c.bandwidth = num(*m, "bandwidth");
            c.missRate = num(*m, "missRate");
            const JsonValue *a = m->find("attrib");
            const AttribRollup attrib =
                a ? parseAttribRollup(*a) : AttribRollup{};
            c.buildUops = attrib.buildUops;
            c.stallCycles = attrib.silentCycles;
            c.attribUops = attrib.uopSum();
            c.attribCycles = attrib.cycleSum();
            // report.json has no deliveryUops; the trace's total
            // minus buildUops stands in for it.
            c.deliveryUops = c.traceUops - c.buildUops;
            if (!attrib.has) {
                c.failures.emplace_back("no attrib in report.json");
            } else if (!attrib.sumsMatch()) {
                char buf[200];
                std::snprintf(buf, sizeof(buf),
                              "attrib: uops %" PRIu64
                              " vs buildUops %" PRIu64
                              ", cycles %" PRIu64
                              " vs silentCycles %" PRIu64,
                              c.attribUops, c.buildUops, c.attribCycles,
                              c.stallCycles);
                c.failures.emplace_back(buf);
            }
        } else if (cls == "ok") {
            c.completed = false;
            c.failures.emplace_back("no metrics in report.json");
        }
        if (const JsonValue *u = job.find("rusage")) {
            c.rssKb = count(*u, "maxRssKb");
            c.cpuSec = num(*u, "userSec") + num(*u, "sysSec");
        }
        cells.push_back(std::move(c));
    }

    // Every cell of one workload simulates the same trace.
    std::map<std::string, const CellResult *> first;
    for (CellResult &c : cells) {
        if (!c.failures.empty())
            continue;
        auto [it, fresh] = first.emplace(c.workload, &c);
        if (!fresh && it->second->traceUops != c.traceUops) {
            char buf[200];
            std::snprintf(buf, sizeof(buf),
                          "totalUops %" PRIu64 " differs from %" PRIu64
                          " of %s",
                          c.traceUops, it->second->traceUops,
                          it->second->label.c_str());
            c.failures.emplace_back(buf);
        }
    }

    for (std::size_t i = cells.size(); i < expected_jobs; ++i) {
        CellResult c;
        c.label = "job-" + std::to_string(i);
        c.completed = false;
        c.failures.emplace_back("missing from report.json");
        cells.push_back(std::move(c));
    }
    return cells;
}

Expected<RepResult>
runSweepRep(const SweepEnv &env, const std::vector<std::string> &workloads,
            uint64_t insts, SweepStats *stats)
{
    std::error_code ec;
    std::filesystem::remove_all(env.outDir, ec);
    if (ec) {
        return Status::error("cannot clear " + env.outDir + ": " +
                             ec.message());
    }
    std::vector<std::string> caps;
    for (uint64_t c : sweepCapacities())
        caps.push_back(std::to_string(c));
    const std::vector<std::string> argv = {
        env.xbatch,
        "--workloads=" + joinNames(workloads),
        "--frontends=tc,xbc",
        "--capacities=" + joinNames(caps),
        "--insts=" + std::to_string(insts),
        "--jobs=" + std::to_string(kSweepWorkers),
        "--timeout=60",
        "--out=" + env.outDir,
        "--xbsim=" + env.xbsim,
    };

    RepResult rep;
    RepResult::Part part;
    const double cpu0 = childrenCpuSec();
    const double t0 = nowSec();
    Expected<Child> spawned = spawnChild(argv);
    if (!spawned.ok())
        return spawned.status();
    Child child = spawned.take();
    int raw = 0;
    const bool in_time = waitChild(child, t0 + kSweepDeadlineSec, &raw);
    part.wallSec = rep.wallSec = nowSec() - t0;
    part.cpuSec = childrenCpuSec() - cpu0;
    rep.parts.push_back(part);
    if (!in_time)
        return Status::error("xbatch ran past its deadline; stopped");
    const int exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;

    const std::size_t expected =
        workloads.size() * 2 * sweepCapacities().size();
    Expected<JsonValue> report = readJsonFile(env.outDir + "/report.json");
    rep.cells = cellsFromReport(report.ok() ? report.value() : JsonValue{},
                                expected);
    // exit 4 is xbatch's "some jobs failed", already visible per cell.
    if (exit_code != 0 && exit_code != 4) {
        for (CellResult &c : rep.cells) {
            c.completed = false;
            c.failures.emplace_back("xbatch exited " +
                                    std::to_string(exit_code) + ": " +
                                    child.err.substr(0, 200));
        }
    }

    *stats = SweepStats{};
    if (report.ok()) {
        if (const JsonValue *s = report.value().find("summary"))
            stats->retries = (unsigned)num(*s, "retries");
    }
    for (const CellResult &c : rep.cells) {
        stats->childCpuSec += c.cpuSec;
        stats->childRssKbMax = std::max(stats->childRssKbMax, c.rssKb);
    }
    rep.peakRssKb = std::max(child.maxRssKb, stats->childRssKbMax);
    return rep;
}

} // namespace xbs::perfbench
