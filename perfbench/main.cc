/**
 * @file
 * perfbench - run one benchmark workload and print its metrics.
 *
 *   perfbench --workload=in-process --seed=1 --seconds=55 --trace=0
 *
 * Repeats the workload for up to --seconds (at least kMinReps times)
 * and summarizes the repetitions after the first (endToEndValues); the
 * in-process workload first divides its times by the host factor
 * (HostSpeed). With --trace=1 every other repetition records spans,
 * and the run prints the per-layer metrics instead of the end-to-end
 * ones. The last line of stdout is one JSON object: correct,
 * attempted, failed, metrics.
 *
 * Exit codes: 0 measured; 1 usage or a fatal error; 2 refused or not
 * measurable (Debug or sanitized build, missing inputs); 3 simulated
 * results differ between repetitions.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>

#include "bench.hh"
#include "common/args.hh"
#include "common/fs.hh"
#include "common/json.hh"
#include "prof/build_info.hh"
#include "trace/trace_io.hh"

using namespace xbs;
using namespace xbs::perfbench;

namespace
{

constexpr unsigned kMinReps = 3;

/** Set-up sweeps per sweep run; their median is setup_s. */
constexpr unsigned kSweepSetupRuns = 5;

constexpr uint64_t kSweepInsts = 5000000;

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir;
    std::string toolsDir;
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    uint64_t samples = 0;
};

/** Repetitions of one workload; traced ones recorded spans. */
struct Reps
{
    std::vector<RepResult> untraced;
    std::vector<RepResult> traced;
};

Reps
repeat(const Options &o, SpanLog &spans,
       const std::function<RepResult(SpanLog &)> &once)
{
    SpanLog off(false);
    Reps reps;
    const double start = nowSec();
    double last = 0.0;
    // A repetition starts only when one as long as the last one still
    // ends within --seconds, so a run does not overshoot its time.
    for (unsigned i = 0;
         i < kMinReps || nowSec() - start + last < o.seconds; ++i) {
        const bool traced = o.trace && i % 2 == 1;
        const double t0 = nowSec();
        (traced ? reps.traced : reps.untraced)
            .push_back(once(traced ? spans : off));
        last = nowSec() - t0;
    }
    return reps;
}

void
printChecked(const std::vector<CellResult> &cells)
{
    std::printf("checked results (simulated; synthetic traces, "
                "unvalidated against hardware):\n");
    for (const CellResult &c : cells) {
        std::printf("  %-22s miss=%7.4f%% bw=%6.3f cycles=%" PRIu64 "%s\n",
                    c.label.c_str(), c.missRate * 100.0, c.bandwidth,
                    c.cycles, c.failures.empty() ? "" : "  FAILED");
    }
    struct Mean
    {
        double miss = 0.0;
        double bw = 0.0;
        unsigned n = 0;
    };
    std::map<std::string, Mean> means;  // by frontend@capacity
    for (const CellResult &c : cells) {
        std::string key = c.frontend;
        if (c.capacity) {
            key += '@';
            key += std::to_string(c.capacity);
        }
        Mean &m = means[key];
        m.miss += c.missRate;
        m.bw += c.bandwidth;
        ++m.n;
    }
    for (const auto &[key, m] : means) {
        std::printf("  mean %-12s miss=%7.4f%% bw=%6.3f over %u "
                    "workloads\n",
                    key.c_str(), m.miss / m.n * 100.0, m.bw / m.n, m.n);
    }
    for (const auto &[key, m] : means) {
        if (key.rfind("xbc@", 0) != 0)
            continue;
        auto tc = means.find("tc" + key.substr(3));
        if (tc == means.end() || tc->second.miss == 0.0)
            continue;
        std::printf("  xbc vs tc miss reduction at %s uops: %.1f%% "
                    "(paper: ~29%%)\n",
                    key.substr(4).c_str(),
                    (1.0 - (m.miss / m.n) / (tc->second.miss / tc->second.n)) *
                        100.0);
    }
}

void
printMetrics(const std::vector<Metric> &metrics, bool traced)
{
    std::printf("%s metrics:\n", traced ? "per-layer" : "end-to-end");
    for (const Metric &m : metrics) {
        std::printf("  %-36s %14.6g %-8s", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (traced)
            std::printf(" n=%" PRIu64, m.samples);
        std::printf("\n");
    }
}

/** The result line the benchmark driver reads: the last of stdout. */
void
printResult(const Outcome &out, const std::vector<Metric> &metrics)
{
    std::cout.flush();
    std::fflush(stdout);
    JsonWriter json(std::cout, /*pretty=*/false);
    json.beginObject();
    json.field("correct", out.completed);
    json.field("attempted", out.attempted);
    json.field("failed", out.failed);
    json.beginObject("metrics");
    for (const Metric &m : metrics) {
        json.beginObject(m.name);
        json.fieldFull("value", m.value);
        json.field("unit", m.unit);
        json.endObject();
    }
    json.endObject();
    json.endObject();
    std::cout << std::endl;
}

/** Prints everything a run checked; false when the digest moved. */
bool
report(const Options &o, const Outcome &out,
       const std::vector<CellResult> &cells)
{
    printChecked(cells);
    for (const auto &[label, why] : out.failedCells)
        std::printf("FAILED %s: %s\n", label.c_str(), why.c_str());
    const double fail_frac =
        (double)out.failed / (double)std::max<uint64_t>(1, out.attempted);
    std::printf("cells: %" PRIu64 " attempted, %" PRIu64
                " failed (fail_frac %.4f)\n",
                out.attempted, out.failed, fail_frac);
    std::printf("seed %" PRIu64 " sim_digest %s\n", o.seed,
                out.digest.c_str());
    if (out.digestMismatch) {
        std::fprintf(stderr,
                     "perfbench: sim_digest differs between "
                     "repetitions%s\n",
                     o.trace ? " (traced vs untraced)" : "");
    }
    return !out.digestMismatch;
}

/** Per repetition of @p reps, the sum of its parts' set-up times. */
std::vector<double>
setupsOf(const std::vector<RepResult> &reps)
{
    std::vector<double> out;
    for (const RepResult &r : reps) {
        double sum = 0.0;
        for (const RepResult::Part &part : r.parts)
            sum += part.setupSec;
        out.push_back(sum);
    }
    return out;
}

/** The repetitions after the first, which warms caches and the
 *  allocator and is left out of every summary. */
std::vector<RepResult>
afterWarmUp(const std::vector<RepResult> &reps)
{
    return {reps.begin() + 1, reps.end()};
}

/** The end-to-end metrics over @p reps and the set-up times
 *  @p setups. */
std::vector<Metric>
endToEnd(const std::vector<RepResult> &reps,
         const std::vector<double> &setups)
{
    const std::vector<double> values = endToEndValues(reps, setups);
    std::vector<Metric> out;
    for (const auto &[name, unit] : endToEndMetrics())
        out.push_back({name, unit, values[out.size()], reps.size()});
    return out;
}

/** The HostSpeed factors of @p reps, and the end-to-end values as
 *  measured, before dividing by them. */
void
printAsMeasured(const std::vector<RepResult> &reps)
{
    std::vector<double> factors;
    for (const RepResult &r : reps) {
        for (const RepResult::Part &part : r.parts)
            factors.push_back(part.hostFactor);
    }
    std::printf("host speed factor over %zu parts: min %.3f median %.3f "
                "max %.3f\n",
                factors.size(),
                *std::min_element(factors.begin(), factors.end()),
                median(factors),
                *std::max_element(factors.begin(), factors.end()));
    std::printf("as measured, before dividing by the factor:\n");
    for (const Metric &m : endToEnd(reps, setupsOf(reps))) {
        std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
}

/** Totals of the spans named @p name (in @p layer when given). */
struct SpanTotals
{
    double sec = 0.0;
    uint64_t items = 0;
    std::vector<double> durations;
};

SpanTotals
spanTotals(const SpanLog &spans, const std::string &name,
           const std::string &layer = "")
{
    SpanTotals t;
    for (const SpanLog::Span &s : spans.spans()) {
        if (s.name != name || (!layer.empty() && s.layer != layer))
            continue;
        t.sec += s.end - s.start;
        t.items += s.items;
        t.durations.push_back(s.end - s.start);
    }
    return t;
}

/** Collects per-layer values; names not set stay 0 with n=0. */
class LayerMetrics
{
  public:
    void
    set(const std::string &name, double value, uint64_t samples)
    {
        values_[name] = {value, samples};
    }

    /** Nanoseconds per item over the spans @p name in @p layer. */
    void
    perItem(const std::string &metric, const SpanLog &spans,
            const std::string &name, const std::string &layer = "")
    {
        const SpanTotals t = spanTotals(spans, name, layer);
        if (t.items)
            set(metric, t.sec / (double)t.items * 1e9, t.durations.size());
    }

    /** Median milliseconds per call of the spans @p name. */
    void
    perCall(const std::string &metric, const SpanLog &spans,
            const std::string &name)
    {
        const SpanTotals t = spanTotals(spans, name);
        if (!t.durations.empty())
            set(metric, median(t.durations) * 1e3, t.durations.size());
    }

    /** A pooled counter ratio over @p cells of frontend @p fe. */
    void
    ratio(const std::string &metric, const std::vector<CellResult> &cells,
          const std::string &fe,
          const std::function<double(const CellResult &)> &num,
          const std::function<double(const CellResult &)> &den)
    {
        double n = 0.0, d = 0.0;
        uint64_t samples = 0;
        for (const CellResult &c : cells) {
            if (c.frontend != fe)
                continue;
            n += num(c);
            d += den(c);
            ++samples;
        }
        if (d > 0.0)
            set(metric, n / d, samples);
    }

    /** Counter @p path per thousand simulated uops. */
    void
    perKuop(const std::string &metric, const std::vector<CellResult> &cells,
            const std::string &fe, const std::string &path)
    {
        ratio(metric, cells, fe,
              [&](const CellResult &c) { return (double)c.count(path); },
              [](const CellResult &c) { return (double)c.simUops() / 1e3; });
    }

    std::vector<Metric>
    all() const
    {
        std::vector<Metric> out;
        for (const auto &[name, unit] : perLayerMetrics()) {
            auto it = values_.find(name);
            Metric m{name, unit, 0.0, 0};
            if (it != values_.end()) {
                m.value = it->second.first;
                m.samples = it->second.second;
            }
            out.push_back(m);
        }
        return out;
    }

  private:
    std::map<std::string, std::pair<double, uint64_t>> values_;
};

/** Span-derived timings shared by every workload's traced run. */
void
layerTimings(LayerMetrics &lm, const SpanLog &spans)
{
    lm.perCall("workload.program_ms", spans, "buildProgram");
    lm.perItem("workload.exec_ns_per_rec", spans, "Executor::run");
    lm.perItem("trace.read_ns_per_rec", spans, "readTraceEx");
    lm.perItem("trace.write_ns_per_rec", spans, "writeTraceEx");
    lm.perCall("sim.make_frontend_ms", spans, "makeFrontend");
    for (const char *layer : {"core", "ic", "dc", "tc", "bbtc"}) {
        lm.perItem(std::string(layer) + ".run_ns_per_uop", spans,
                   "Frontend::run", layer);
    }
}

/** Stat-counter metrics of one repetition's cells. */
void
layerCounts(LayerMetrics &lm, const std::vector<CellResult> &cells)
{
    auto count = [](const char *path) {
        return [path](const CellResult &c) { return (double)c.count(path); };
    };
    lm.perKuop("core.xb_supplies_per_kuop", cells, "xbc", "xbSupplies");
    lm.perKuop("core.xbtb.lookups_per_kuop", cells, "xbc", "xbtb.lookups");
    lm.perKuop("core.outmux.segments_per_kuop", cells, "xbc",
               "outmux.segments");
    lm.perKuop("core.array.inserts_per_kuop", cells, "xbc", "xbc.inserts");
    lm.perKuop("core.array.evictions_per_kuop", cells, "xbc",
               "xbc.evictions");
    lm.perKuop("core.array.variant_drops_per_kuop", cells, "xbc",
               "xbc.variantDrops");
    lm.perKuop("core.array.set_searches_per_kuop", cells, "xbc",
               "xbc.setSearches");
    lm.perKuop("core.xfu.xbs_built_per_kuop", cells, "xbc", "xfu.xbsBuilt");
    lm.ratio("core.xbtb.hit_ratio", cells, "xbc", count("xbtb.hits"),
             count("xbtb.lookups"));
    lm.ratio("core.array.set_search_hit_ratio", cells, "xbc",
             count("xbc.setSearchHits"), count("xbc.setSearches"));
    lm.ratio("core.build_cycle_share", cells, "xbc",
             [](const CellResult &c) { return (double)c.buildCycles; },
             [](const CellResult &c) { return (double)c.cycles; });
    lm.ratio("tc.hit_ratio", cells, "tc", count("tc.hits"),
             count("tc.lookups"));
    lm.perKuop("tc.inserts_per_kuop", cells, "tc", "tc.inserts");
    lm.perKuop("ic.misses_per_kuop", cells, "ic", "frontend.icMisses");
}

/** Median traced against median untraced repetition after the
 *  warm-up, divided by their host factors like the end-to-end
 *  times. */
void
traceOverhead(LayerMetrics &lm, const Reps &reps)
{
    auto medianWall = [](const std::vector<RepResult> &set) {
        std::vector<double> walls;
        for (const RepResult &r : atQuietSpeed(set))
            walls.push_back(r.wallSec);
        return median(walls);
    };
    lm.set("bench.trace_overhead_ratio",
           medianWall(reps.traced) / medianWall(afterWarmUp(reps.untraced)) -
               1.0,
           reps.traced.size());
}

void
printSelfTimes(const Options &o, const SpanLog &spans)
{
    const std::string path = o.workDir + "/trace-" + o.workload + ".json";
    std::ofstream os(path);
    spans.writeChromeJson(os);
    std::printf("self time per layer (traced repetitions; spans in %s):\n",
                path.c_str());
    double total = 0.0;
    const auto self = spans.selfTimes();
    for (const auto &[layer, sec] : self)
        total += sec;
    for (const auto &[layer, sec] : self) {
        std::printf("  %-10s %10.3f s %6.1f%%\n", layer.c_str(), sec,
                    total > 0 ? sec / total * 100.0 : 0.0);
    }
}

/** Each group's part of wall_s: the median over @p reps of the
 *  group's parts. */
void
printGroups(const std::vector<RepResult> &reps)
{
    std::map<std::string, std::vector<double>> walls;
    for (const RepResult &r : reps) {
        std::map<std::string, double> sum;
        for (const RepResult::Part &part : r.parts)
            sum[part.group] += part.wallSec;
        for (const auto &[group, sec] : sum)
            walls[group].push_back(sec);
    }
    for (const auto &[group, sec] : walls)
        std::printf("  group %-10s wall_s part %8.4f s\n", group.c_str(),
                    median(sec));
}

int
runInProcess(const Options &o, const Plan &plan)
{
    SpanLog spans(o.trace);
    HostSpeed speed;
    uint64_t trace_bytes = 0, trace_records = 0;
    std::vector<std::string> prepared;
    // Untimed preparation: the replayed traces, one per workload.
    for (const Group &group : plan.groups) {
        if (!group.replay)
            continue;
        for (const std::string &name : group.workloads) {
            const Trace trace =
                generateTrace(name, o.seed, plan.insts, spans);
            const std::string path =
                replayTracePath(o.workDir, name, o.seed);
            const double t0 = nowSec();
            const Status st = writeTraceEx(trace, path);
            spans.add("writeTraceEx", "trace", name, t0, nowSec(),
                      trace.numRecords());
            if (!st.isOk()) {
                std::fprintf(stderr, "perfbench: %s\n",
                             st.toString().c_str());
                return kExitData;
            }
            prepared.push_back(path);
            trace_bytes += std::filesystem::file_size(path);
            trace_records += trace.numRecords();
        }
    }

    const Reps reps = repeat(o, spans, [&](SpanLog &s) {
        return runPlanRep(plan, o.seed, o.workDir, speed, s);
    });
    for (const std::string &path : prepared) {
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }
    Outcome out;
    for (const auto *set : {&reps.untraced, &reps.traced}) {
        for (const RepResult &r : *set)
            out.addRep(r.cells);
    }
    std::printf("workload %s, %" PRIu64
                " instructions per trace, %zu repetitions:\n",
                plan.name.c_str(), plan.insts,
                reps.untraced.size() + reps.traced.size());
    for (const Group &group : plan.groups) {
        std::string names;
        for (const std::string &w : group.workloads)
            names += " " + w;
        std::printf("  group %-10s %zu configs over%s%s\n",
                    group.name.c_str(), group.configs.size(),
                    names.c_str(), group.replay ? " (from .xbt)" : "");
    }
    if (!report(o, out, reps.untraced.front().cells))
        return 3;

    std::vector<Metric> metrics;
    if (!o.trace) {
        const std::vector<RepResult> timed = afterWarmUp(reps.untraced);
        const std::vector<RepResult> quiet = atQuietSpeed(timed);
        printAsMeasured(timed);
        metrics = endToEnd(quiet, setupsOf(quiet));
        printGroups(quiet);
    } else {
        LayerMetrics lm;
        layerTimings(lm, spans);
        layerCounts(lm, reps.traced.front().cells);
        if (trace_records) {
            lm.set("trace.bytes_per_rec",
                   (double)trace_bytes / (double)trace_records,
                   prepared.size());
        }
        // Component replay of each XBC workload's own XB stream, at
        // its group's capacity.
        ArrayReplay total;
        SpanLog off(false);
        for (const Group &group : plan.groups) {
            for (const CellConfig &config : group.configs) {
                if (config.kind != FrontendKind::Xbc)
                    continue;
                for (const std::string &name : group.workloads) {
                    const Trace trace =
                        generateTrace(name, o.seed, plan.insts, off);
                    const ArrayReplay r =
                        replayXbStream(trace, config.capacity);
                    total.insertSec += r.insertSec;
                    total.lookupSec += r.lookupSec;
                    total.inserts += r.inserts;
                    total.lookups += r.lookups;
                }
            }
        }
        lm.set("core.array.insert_ns",
               total.insertSec / (double)total.inserts * 1e9,
               total.inserts);
        lm.set("core.array.lookup_ns",
               total.lookupSec / (double)total.lookups * 1e9,
               total.lookups);
        traceOverhead(lm, reps);
        metrics = lm.all();
        printSelfTimes(o, spans);
    }
    printMetrics(metrics, o.trace);
    printResult(out, metrics);
    return 0;
}

int
runSweep(const Options &o)
{
    const std::vector<std::string> workloads = sweepWorkloads(o.seed);
    const SweepEnv env{o.toolsDir + "/xbatch", o.toolsDir + "/xbsim",
                       o.workDir + "/sweep"};
    for (const std::string &bin : {env.xbatch, env.xbsim}) {
        if (!pathExists(bin)) {
            std::fprintf(stderr, "perfbench: %s not built\n", bin.c_str());
            return kExitData;
        }
    }
    std::string names;
    for (const std::string &w : workloads)
        names += " " + w;
    std::printf("workload sweep: xbatch tc,xbc x %zu capacities x%s, "
                "%" PRIu64 " instructions per cell, %u workers\n",
                sweepCapacities().size(), names.c_str(), kSweepInsts,
                kSweepWorkers);

    Outcome out;
    auto sweepOnce = [&](uint64_t insts, SweepStats *stats) {
        Expected<RepResult> rep = runSweepRep(env, workloads, insts, stats);
        if (!rep.ok()) {
            std::fprintf(stderr, "perfbench: %s\n",
                         rep.status().toString().c_str());
            std::exit(kExitData);
        }
        return rep.take();
    };

    // Set-up: the same matrix at one instruction per cell (process
    // start, program synthesis, frontend construction, batch
    // bookkeeping), several times for a median.
    std::vector<double> setups;
    if (!o.trace) {
        for (unsigned i = 0; i < kSweepSetupRuns; ++i) {
            SweepStats stats;
            const RepResult rep = sweepOnce(1, &stats);
            out.addCells(rep.cells);
            setups.push_back(rep.wallSec);
        }
    }

    std::vector<SweepStats> traced_stats;
    SpanLog spans(o.trace);
    const Reps reps = repeat(o, spans, [&](SpanLog &s) {
        SweepStats stats;
        s.open("repetition", "bench", "sweep");
        const double t0 = nowSec();
        RepResult rep = sweepOnce(kSweepInsts, &stats);
        s.add("xbatch", "batch", "sweep", t0, nowSec(), rep.cells.size());
        s.close();
        if (s.enabled())
            traced_stats.push_back(stats);
        return rep;
    });
    for (const auto *set : {&reps.untraced, &reps.traced}) {
        for (const RepResult &r : *set)
            out.addRep(r.cells);
    }

    std::vector<Metric> metrics;
    if (!o.trace) {
        metrics = endToEnd(afterWarmUp(reps.untraced), setups);
    } else {
        // The workload and tc layers run inside xbatch's children;
        // time them here on the same catalog traces and configs.
        std::vector<CellResult> tc_cells;
        for (const std::string &name : workloads) {
            const Trace trace = generateTrace(name, 0, kSweepInsts, spans);
            for (uint64_t cap : sweepCapacities()) {
                double make_sec = 0.0;
                CellResult c = runCell(trace, name, {FrontendKind::Tc, cap},
                                       spans, &make_sec);
                checkCell(c);
                for (const CellResult &child : reps.traced.front().cells) {
                    if (child.label == c.label &&
                        (child.cycles != c.cycles ||
                         child.buildUops != c.buildUops)) {
                        c.failures.emplace_back(
                            "in-process result differs from xbatch's");
                    }
                }
                tc_cells.push_back(std::move(c));
            }
        }
        out.addCells(tc_cells);

        LayerMetrics lm;
        layerTimings(lm, spans);
        layerCounts(lm, tc_cells);
        std::vector<double> cell_s, cell_max, busy, overhead, cpu, rss,
            retries;
        for (std::size_t i = 0; i < reps.traced.size(); ++i) {
            const RepResult &r = reps.traced[i];
            const SweepStats &st = traced_stats[i];
            double sum = 0.0, most = 0.0;
            for (const CellResult &c : r.cells) {
                cell_s.push_back(c.runSec);
                sum += c.runSec;
                most = std::max(most, c.runSec);
            }
            cell_max.push_back(most);
            busy.push_back(sum / (kSweepWorkers * r.wallSec));
            overhead.push_back(r.wallSec - sum / kSweepWorkers);
            cpu.push_back(st.childCpuSec);
            rss.push_back((double)st.childRssKbMax / 1024.0);
            retries.push_back(st.retries);
        }
        lm.set("batch.cell_s_p50", median(cell_s), cell_s.size());
        lm.set("batch.cell_s_max", median(cell_max), cell_s.size());
        lm.set("batch.worker_busy_ratio", median(busy), busy.size());
        lm.set("batch.overhead_s", median(overhead), overhead.size());
        lm.set("batch.child_cpu_s", median(cpu), cpu.size());
        lm.set("batch.child_rss_mb_max", median(rss), rss.size());
        lm.set("batch.retries", median(retries), retries.size());
        traceOverhead(lm, reps);
        metrics = lm.all();
        printSelfTimes(o, spans);
    }
    if (!report(o, out, reps.untraced.front().cells))
        return 3;
    printMetrics(metrics, o.trace);
    printResult(out, metrics);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options o;
    uint64_t trace = 0;
    // run.py builds this binary into .bench_build/, next to the tools
    // it drives and the scratch directory it writes.
    const std::string self = argv[0];
    const std::size_t slash = self.find_last_of('/');
    const std::string bin_dir =
        slash == std::string::npos ? "." : self.substr(0, slash);
    o.toolsDir = bin_dir + "/tools";
    o.workDir = bin_dir + "/work";

    ArgParser args("perfbench",
                   "end-to-end and per-layer benchmark of xbcsim");
    args.addString("workload", &o.workload,
                   "in-process | sweep");
    args.addUint("seed", &o.seed,
                 "input seed (0: the catalog traces)");
    args.addDouble("seconds", &o.seconds,
                   "repeat the workload for this long");
    args.addUint("trace", &trace,
                  "1: record spans and print per-layer metrics");
    if (!args.parse(argc, argv))
        return 0;
    o.trace = trace != 0;

    // Timing a Debug or sanitized build would measure the build, not
    // the simulator (see prof/build_info.hh).
    const BuildInfo &build = buildInfo();
    if (build.sanitized || (build.buildType != "Release" &&
                            build.buildType != "RelWithDebInfo")) {
        std::fprintf(stderr,
                     "perfbench: refusing to time a %s%s build\n",
                     build.buildType.empty() ? "unoptimized"
                                             : build.buildType.c_str(),
                     build.sanitized ? " sanitized" : "");
        return kExitData;
    }
    if (Status st = ensureDir(o.workDir); !st.isOk()) {
        std::fprintf(stderr, "perfbench: %s\n", st.toString().c_str());
        return kExitData;
    }
    std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d "
                "build=%s %s source=%s\n",
                o.workload.c_str(), o.seed, o.seconds, (int)o.trace,
                build.buildType.c_str(), build.compiler.c_str(),
                build.source.c_str());

    if (o.workload == "sweep")
        return runSweep(o);
    Plan plan;
    if (!planFor(o.workload, &plan)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     o.workload.c_str());
        return kExitUsage;
    }
    return runInProcess(o, plan);
}
