/**
 * @file
 * Tests for the host-performance profiling layer: sampled phase
 * timing (including the <=2% overhead budget of --profile),
 * rusage/throughput counters, build-provenance round trips, the
 * sweep-to-bench.json aggregation with its torn/missing interval
 * degradation, and the regression gate's verdict taxonomy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "common/fs.hh"
#include "common/json.hh"
#include "prof/bench_io.hh"
#include "prof/build_info.hh"
#include "prof/host_counters.hh"
#include "prof/phase_profiler.hh"
#include "test_helpers.hh"

using namespace xbs;

namespace
{

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path);
    os << text;
}

} // anonymous namespace

// ---------------------------------------------------------------
// PhaseProfiler

TEST(PhaseProfiler, DefineDedupsByNameAndParent)
{
    PhaseProfiler prof;
    unsigned root = prof.definePhase("fetch");
    EXPECT_EQ(prof.definePhase("fetch"), root);
    unsigned child = prof.definePhase("predict", root);
    EXPECT_EQ(prof.definePhase("predict", root), child);
    // Same name under a different parent is a different phase.
    unsigned other = prof.definePhase("predict");
    EXPECT_NE(other, child);
    EXPECT_EQ(prof.phases().size(), 3u);
}

TEST(PhaseProfiler, ArmSamplesOneInEveryWindow)
{
    PhaseProfiler prof(/*sample_shift=*/2);  // 1 of every 4
    unsigned id = prof.definePhase("p");
    int sampled = 0;
    for (int i = 0; i < 8; ++i) {
        if (prof.arm(id))
            ++sampled;
    }
    EXPECT_EQ(sampled, 2);
    EXPECT_EQ(prof.phases()[id].calls, 8u);
}

TEST(PhaseProfiler, EstimateScalesSampledTime)
{
    PhaseProfiler prof(/*sample_shift=*/2);
    unsigned id = prof.definePhase("p");
    for (int i = 0; i < 8; ++i) {
        if (prof.arm(id))
            prof.commit(id, 100);
    }
    // 2 samples x 100ns scaled onto 8 calls -> 800ns.
    EXPECT_EQ(prof.estimatedNs(id), 800u);
    EXPECT_EQ(prof.totalEstimatedNs(), 800u);
}

TEST(PhaseProfiler, ScopedPhaseIsNoopWhenDetached)
{
    PhaseProfiler prof(0);
    unsigned id = prof.definePhase("p");
    {
        ScopedPhase off(nullptr, id);
        ScopedPhase sentinel(&prof, PhaseProfiler::kNoPhase);
    }
    EXPECT_EQ(prof.phases()[id].calls, 0u);
}

TEST(PhaseProfiler, ScopedPhaseAccumulates)
{
    PhaseProfiler prof(0);  // sample every call
    unsigned id = prof.definePhase("p");
    for (int i = 0; i < 100; ++i) {
        ScopedPhase timer(&prof, id);
    }
    const PhaseProfiler::Phase &p = prof.phases()[id];
    EXPECT_EQ(p.calls, 100u);
    EXPECT_EQ(p.sampledCalls, 100u);
}

TEST(PhaseProfiler, JsonAndRenderCarryPhases)
{
    PhaseProfiler prof(0);
    unsigned root = prof.definePhase("build");
    unsigned child = prof.definePhase("predict", root);
    if (prof.arm(root))
        prof.commit(root, 1000);
    if (prof.arm(child))
        prof.commit(child, 200);

    std::ostringstream os;
    {
        JsonWriter jw(os);
        jw.beginObject();
        prof.writeJson(jw);
        jw.endObject();
    }
    JsonValue doc;
    ASSERT_TRUE(parseJson(os.str(), &doc));
    const JsonValue *phases = doc.find("phases");
    ASSERT_NE(phases, nullptr);
    ASSERT_TRUE(phases->isArray());
    EXPECT_EQ(phases->items.size(), 2u);

    const std::string tree = prof.render();
    EXPECT_NE(tree.find("build"), std::string::npos);
    EXPECT_NE(tree.find("predict"), std::string::npos);
}

TEST(PhaseProfiler, RenderShowsSampledCalls)
{
    PhaseProfiler prof(0);
    unsigned id = prof.definePhase("decode");
    for (int i = 0; i < 4; ++i)
        ScopedPhase t(&prof, id);
    std::string tree = prof.render();
    EXPECT_NE(tree.find("sampled"), std::string::npos) << tree;
    EXPECT_NE(tree.find("decode"), std::string::npos) << tree;
}

/**
 * The --profile overhead budget: sampled phase timing must cost no
 * more than 2% on a workload whose per-entry work resembles a
 * simulator cycle. Passes alternate unprofiled and profiled, starting
 * and ending unprofiled. Each profiled pass is divided by the mean of
 * the two unprofiled passes around it, which cancels a host slowdown
 * that drifts across the pair, and the gate takes the median of
 * these ratios, which ignores a slowdown that hits only some pairs.
 */
TEST(PhaseProfiler, SampledOverheadWithinTwoPercent)
{
    constexpr int kEntries = 1 << 14;
    constexpr int kWorkSteps = 128;  // ~ a simulated cycle's work
    constexpr int kPairs = 61;

    // xorshift kernel: cheap, unoptimizable-away deterministic work.
    auto work = [](uint64_t seed) {
        uint64_t x = seed | 1;
        for (int i = 0; i < kWorkSteps; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        return x;
    };

    PhaseProfiler prof;  // default shift: 1 of every 64
    unsigned id = prof.definePhase("cycle");
    volatile uint64_t sink = 0;

    // The pointer is read through a volatile so both variants run
    // the exact code --profile-less xbsim runs (a runtime null
    // check), and the serial acc chain keeps the compiler from
    // vectorizing the unprofiled loop into an unrealistic baseline.
    auto rep = [&](PhaseProfiler *p) {
        PhaseProfiler *volatile vp = p;
        auto t0 = std::chrono::steady_clock::now();
        uint64_t acc = 1;
        for (int i = 0; i < kEntries; ++i) {
            ScopedPhase timer(vp, id);
            acc = work(acc + (uint64_t)i);
        }
        sink = sink ^ acc;
        return (uint64_t)std::chrono::duration_cast<
                   std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    std::vector<uint64_t> off{rep(nullptr)};
    std::vector<double> ratios;
    for (int r = 0; r < kPairs; ++r) {
        const uint64_t on = rep(&prof);
        off.push_back(rep(nullptr));
        ratios.push_back(2.0 * (double)on /
                         (double)(off[r] + off[r + 1]));
    }
    std::nth_element(ratios.begin(), ratios.begin() + kPairs / 2,
                     ratios.end());
    const double ratio = ratios[kPairs / 2];
    EXPECT_LE(ratio, 1.02) << "median profiled/unprofiled ratio over "
                           << kPairs << " pairs";
}

// ---------------------------------------------------------------
// Host counters / throughput

TEST(HostCounters, SelfSnapshotIsPlausible)
{
    const HostCounters hc = HostCounters::self();
    EXPECT_GT(hc.maxRssKb, 0u);
    EXPECT_GE(hc.cpuSec(), 0.0);

    std::ostringstream os;
    {
        JsonWriter jw(os);
        jw.beginObject();
        hc.writeJson(jw);
        jw.endObject();
    }
    JsonValue doc;
    ASSERT_TRUE(parseJson(os.str(), &doc));
    const JsonValue *host = doc.find("host");
    ASSERT_NE(host, nullptr);
    EXPECT_NE(host->find("maxRssKb"), nullptr);
}

TEST(ThroughputMeter, WindowAndOverallRates)
{
    ThroughputMeter meter;
    meter.reset();
    // Burn a little CPU so the elapsed window is nonzero even on a
    // coarse clock.
    volatile uint64_t x = 1;
    for (int i = 0; i < 200000; ++i)
        x = x * 2654435761u + 1;

    ThroughputMeter::Rates w1 = meter.sample(1000, 2000, 500);
    EXPECT_GT(w1.windowSeconds, 0.0);
    EXPECT_GT(w1.cyclesPerSec, 0.0);
    EXPECT_GT(w1.uopsPerSec, w1.cyclesPerSec);  // 2 uops per cycle

    for (int i = 0; i < 200000; ++i)
        x = x * 2654435761u + 1;
    ThroughputMeter::Rates w2 = meter.sample(3000, 6000, 1500);
    EXPECT_GT(w2.windowSeconds, 0.0);
    EXPECT_GE(w2.wallSeconds, w2.windowSeconds);

    ThroughputMeter::Rates all = meter.overall(3000, 6000, 1500);
    EXPECT_GT(all.cyclesPerSec, 0.0);
    EXPECT_GE(all.wallSeconds, w2.wallSeconds);
}

TEST(ThroughputMeter, SubTickWindowsNeverProduceInfiniteRates)
{
    // Hammer sample() back-to-back: whatever the clock granularity,
    // rates must stay finite and non-negative, and any window below
    // the epsilon floor must report exactly zero (the deltas carry
    // into the next real window instead of dividing by ~0).
    ThroughputMeter meter;
    meter.reset();
    uint64_t cycles = 0;
    for (int i = 0; i < 5000; ++i) {
        cycles += 10;
        ThroughputMeter::Rates r =
            meter.sample(cycles, cycles * 2, cycles / 10);
        ASSERT_TRUE(std::isfinite(r.cyclesPerSec));
        ASSERT_TRUE(std::isfinite(r.uopsPerSec));
        ASSERT_TRUE(std::isfinite(r.recordsPerSec));
        ASSERT_GE(r.cyclesPerSec, 0.0);
        if (r.windowSeconds < ThroughputMeter::kMinWindowSec) {
            ASSERT_EQ(r.cyclesPerSec, 0.0);
            ASSERT_EQ(r.uopsPerSec, 0.0);
            ASSERT_EQ(r.recordsPerSec, 0.0);
        }
    }
    ThroughputMeter::Rates all =
        meter.overall(cycles, cycles * 2, cycles / 10);
    EXPECT_TRUE(std::isfinite(all.cyclesPerSec));
    EXPECT_GE(all.wallSeconds, 0.0);
}

// ---------------------------------------------------------------
// Build provenance

TEST(BuildInfo, RoundTripsThroughJson)
{
    const BuildInfo &info = buildInfo();
    EXPECT_FALSE(info.compiler.empty());
    EXPECT_FALSE(info.buildType.empty());

    std::ostringstream os;
    {
        JsonWriter jw(os);
        jw.beginObject();
        writeBuildInfoJson(jw, info);
        jw.endObject();
    }
    JsonValue doc;
    ASSERT_TRUE(parseJson(os.str(), &doc));
    const JsonValue *bi = doc.find("buildInfo");
    ASSERT_NE(bi, nullptr);
    BuildInfo back = parseBuildInfoJson(*bi);
    EXPECT_EQ(back.compiler, info.compiler);
    EXPECT_EQ(back.buildType, info.buildType);
    EXPECT_EQ(back.source, info.source);
    EXPECT_EQ(back.sanitized, info.sanitized);
}

TEST(BuildInfo, CompatibilityGatesOnTypeAndSanitizer)
{
    BuildInfo a = buildInfo();
    BuildInfo b = a;
    EXPECT_TRUE(buildCompatible(a, b));

    b.buildType = a.buildType == "Debug" ? "Release" : "Debug";
    EXPECT_FALSE(buildCompatible(a, b));

    b = a;
    b.sanitized = !a.sanitized;
    EXPECT_FALSE(buildCompatible(a, b));

    // Compiler/flags/source drift is a soft note, not a gate.
    b = a;
    b.compiler = "gcc 99.0";
    b.source = "deadbee";
    std::vector<std::string> notes;
    EXPECT_TRUE(buildCompatible(a, b, &notes));
    EXPECT_FALSE(notes.empty());
}

// ---------------------------------------------------------------
// Sweep aggregation (xbagg's core)

namespace
{

/** A minimal sweep report with three ok jobs and one failed one. */
std::string
syntheticReport()
{
    return R"({
  "version": 1,
  "interrupted": false,
  "buildInfo": {
    "compiler": "gcc 12.2.0", "buildType": "Release", "flags": "",
    "source": "abc1234", "cxxStandard": 202002, "sanitized": false
  },
  "intervalCycles": 1000,
  "summary": {"total": 4, "ok": 3, "failed": 1, "notRun": 0,
              "retries": 0, "classes": {"ok": 3, "crash": 1}},
  "timing": {"wallSeconds": 2.5},
  "jobs": [
    {"id": 0, "workload": "gcc", "frontend": "ic", "capacity": 32768,
     "done": true, "class": "ok", "attempts": 1, "exit": 0,
     "signal": 0, "seconds": 1.0,
     "metrics": {"bandwidth": 4.0, "missRate": 0.01,
                 "overallIpc": 2.5, "cycles": 1000,
                 "totalUops": 4000},
     "rusage": {"maxRssKb": 10000, "userSec": 0.5, "sysSec": 0.1}},
    {"id": 1, "workload": "gcc", "frontend": "xbc",
     "capacity": 32768, "ways": 4, "done": true, "class": "ok",
     "attempts": 1, "exit": 0, "signal": 0, "seconds": 1.2,
     "metrics": {"bandwidth": 8.0, "missRate": 0.03,
                 "overallIpc": 3.5, "cycles": 500,
                 "totalUops": 4000},
     "rusage": {"maxRssKb": 20000, "userSec": 0.7, "sysSec": 0.1}},
    {"id": 2, "workload": "go", "frontend": "tc", "capacity": 32768,
     "done": true, "class": "ok", "attempts": 1, "exit": 0,
     "signal": 0, "seconds": 0.8,
     "metrics": {"bandwidth": 5.0, "missRate": 0.02,
                 "overallIpc": 3.0, "cycles": 800,
                 "totalUops": 4000},
     "rusage": {"maxRssKb": 15000, "userSec": 0.4, "sysSec": 0.2}},
    {"id": 3, "workload": "li", "frontend": "tc", "capacity": 32768,
     "done": true, "class": "crash", "attempts": 2, "exit": -1,
     "signal": 11, "seconds": 0.1}
  ]
})";
}

/** One interval window line with the given bandwidth. */
std::string
windowLine(double bw)
{
    std::ostringstream os;
    os << "{\"interval\":0,\"cycles\":1000,\"bandwidth\":" << bw
       << ",\"missRate\":0.01}\n";
    return os.str();
}

} // anonymous namespace

TEST(BenchAggregate, MergesReportAndIntervals)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_TRUE(ensureDir(dir + "/intervals").isOk());
    writeFile(dir + "/report.json", syntheticReport());

    // Job 0: 100 clean windows with bandwidth 1..100 / 25.
    std::string lines;
    for (int i = 1; i <= 100; ++i)
        lines += windowLine(i / 25.0);
    writeFile(dir + "/intervals/job-0.jsonl", lines);
    // Job 1: two clean windows, then a torn line.
    writeFile(dir + "/intervals/job-1.jsonl",
              windowLine(8.0) + windowLine(8.5) +
                  "{\"interval\":2,\"band");
    // Job 2: no interval file at all.

    Expected<BenchReport> bench = aggregateSweepDir(dir);
    ASSERT_TRUE(bench.ok()) << bench.status().toString();
    const BenchReport &b = bench.value();

    EXPECT_EQ(b.jobsTotal, 4u);
    EXPECT_EQ(b.jobsOk, 3u);
    EXPECT_EQ(b.jobsFailed, 1u);
    EXPECT_EQ(b.intervalCycles, 1000u);
    EXPECT_EQ(b.build.source, "abc1234");
    ASSERT_EQ(b.rows.size(), 3u);  // crashed job contributes no row

    const BenchRow &r0 = b.rows[0];
    EXPECT_EQ(r0.id, "ic/gcc@32768");
    EXPECT_DOUBLE_EQ(r0.bandwidth, 4.0);
    EXPECT_EQ(r0.totalUops, 4000u);
    ASSERT_TRUE(r0.intervals.has);
    EXPECT_FALSE(r0.intervals.torn);
    EXPECT_EQ(r0.intervals.windows, 100u);
    EXPECT_NEAR(r0.intervals.bwP50, 2.0, 1e-3);
    EXPECT_NEAR(r0.intervals.bwP95, 3.8, 1e-3);
    EXPECT_NEAR(r0.intervals.bwP99, 3.96, 1e-3);
    ASSERT_TRUE(r0.host.has);
    EXPECT_EQ(r0.host.maxRssKb, 10000u);
    EXPECT_NEAR(r0.host.uopsPerHostSec, 4000 / 0.6, 1e-6);

    // The ways!=0 geometry shows up in the row id.
    const BenchRow &r1 = b.rows[1];
    EXPECT_EQ(r1.id, "xbc/gcc@32768w4");
    ASSERT_TRUE(r1.intervals.has);
    EXPECT_TRUE(r1.intervals.torn);
    EXPECT_EQ(r1.intervals.windows, 2u);  // clean prefix kept
    EXPECT_NEAR(r1.intervals.bwP50, 8.0, 1e-3);

    const BenchRow &r2 = b.rows[2];
    EXPECT_FALSE(r2.intervals.has);  // degraded, row still present
    EXPECT_DOUBLE_EQ(r2.bandwidth, 5.0);

    // Sweep-wide host rollup: user/sys sum, RSS max, uops/cpu.
    ASSERT_TRUE(b.host.has);
    EXPECT_NEAR(b.host.userSec, 1.6, 1e-9);
    EXPECT_NEAR(b.host.sysSec, 0.4, 1e-9);
    EXPECT_EQ(b.host.maxRssKb, 20000u);
    EXPECT_NEAR(b.host.uopsPerHostSec, 12000 / 2.0, 1e-6);
}

TEST(BenchAggregate, MissingReportFails)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    Expected<BenchReport> bench = aggregateSweepDir(dir);
    EXPECT_FALSE(bench.ok());
}

TEST(BenchAggregate, BenchJsonRoundTrips)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_TRUE(ensureDir(dir + "/intervals").isOk());
    writeFile(dir + "/report.json", syntheticReport());
    writeFile(dir + "/intervals/job-0.jsonl",
              windowLine(4.0) + windowLine(4.2));

    Expected<BenchReport> bench = aggregateSweepDir(dir);
    ASSERT_TRUE(bench.ok());
    const std::string json = renderBenchJson(bench.value());
    Expected<BenchReport> back = parseBenchJson(json, "mem");
    ASSERT_TRUE(back.ok()) << back.status().toString();

    const BenchReport &a = bench.value(), &b = back.value();
    ASSERT_EQ(b.rows.size(), a.rows.size());
    EXPECT_EQ(b.rows[0].id, a.rows[0].id);
    EXPECT_DOUBLE_EQ(b.rows[0].missRate, a.rows[0].missRate);
    EXPECT_EQ(b.rows[0].intervals.windows,
              a.rows[0].intervals.windows);
    EXPECT_DOUBLE_EQ(b.rows[0].intervals.bwP95,
                     a.rows[0].intervals.bwP95);
    EXPECT_EQ(b.host.maxRssKb, a.host.maxRssKb);
    EXPECT_EQ(b.build.source, a.build.source);
    EXPECT_EQ(b.intervalCycles, a.intervalCycles);
}

// ---------------------------------------------------------------
// Regression gate (xbregress's core)

namespace
{

BenchReport
makeBaseline()
{
    BenchReport b;
    b.build.compiler = "gcc 12.2.0";
    b.build.buildType = "Release";
    b.build.sanitized = false;
    b.jobsTotal = b.jobsOk = 1;
    b.intervalCycles = 1000;

    BenchRow row;
    row.id = "xbc/gcc@32768";
    row.frontend = "xbc";
    row.workload = "gcc";
    row.capacity = 32768;
    row.missRate = 0.04;
    row.bandwidth = 8.0;
    row.overallIpc = 3.5;
    row.cycles = 10000;
    row.totalUops = 40000;
    row.intervals.has = true;
    row.intervals.windows = 50;
    row.intervals.bwP50 = 7.9;
    row.intervals.bwP95 = 8.4;
    row.intervals.bwP99 = 8.6;
    b.rows.push_back(row);

    b.host.has = true;
    b.host.userSec = 2.0;
    b.host.sysSec = 0.5;
    b.host.maxRssKb = 30000;
    b.host.uopsPerHostSec = 16000.0;
    return b;
}

} // anonymous namespace

TEST(Regress, IdenticalReportsPass)
{
    BenchReport base = makeBaseline();
    RegressReport rep = compareBench(base, base, RegressOptions{});
    EXPECT_TRUE(rep.pass());
    EXPECT_EQ(rep.regressions, 0u);
    EXPECT_EQ(rep.missing, 0u);
    // 5 paper + 3 interval + 3 host metrics.
    EXPECT_EQ(rep.compared, 11u);
}

TEST(Regress, PaperMetricDriftFails)
{
    BenchReport base = makeBaseline();
    BenchReport cur = base;
    cur.rows[0].missRate *= 1.02;  // +2% on a +-0.5% gate
    RegressReport rep = compareBench(cur, base, RegressOptions{});
    EXPECT_FALSE(rep.pass());
    EXPECT_EQ(rep.regressions, 1u);

    bool found = false;
    for (const MetricDelta &d : rep.deltas) {
        if (d.name == "xbc/gcc@32768.missRate") {
            found = true;
            EXPECT_EQ(d.verdict, MetricVerdict::Regress);
            EXPECT_NEAR(d.rel, 0.02, 1e-9);
        }
    }
    EXPECT_TRUE(found);

    // Older bench.json files carry a per-row "stats" block: interval
    // bandwidth mean and a 95% CI, here about 25% of the mean. The
    // gate reads only the row's bandwidth, so a 1% drop fails on the
    // same +-0.5% threshold as every other paper metric.
    auto benchText = [](double scale) {
        std::ostringstream os;
        os.precision(17);
        os << R"({"version": 1,
  "buildInfo": {"compiler": "gcc 12.2.0", "buildType": "Release",
                "source": "abc1234", "sanitized": false},
  "jobs": {"total": 1, "ok": 1, "failed": 0},
  "intervalCycles": 1000,
  "rows": [{"id": "xbc/li@32768", "frontend": "xbc",
            "workload": "li", "capacity": 32768,
            "missRate": 0.021, "bandwidth": )"
           << 7.66 * scale << R"(,
            "overallIpc": 3.1, "cycles": 64000, "totalUops": 250000,
            "stats": {"windows": 64, "mean": )"
           << 6.6 * scale << R"(, "var": 2.9, "lag1": 0.4,
                      "ciValid": true, "ci95": 1.65, "batches": 16,
                      "batchSize": 4}}]})";
        return os.str();
    };
    Expected<BenchReport> old_base = parseBenchJson(benchText(1.0), "b");
    Expected<BenchReport> old_cur = parseBenchJson(benchText(0.99), "c");
    ASSERT_TRUE(old_base.ok()) << old_base.status().toString();
    ASSERT_TRUE(old_cur.ok()) << old_cur.status().toString();
    RegressReport old_rep =
        compareBench(old_cur.value(), old_base.value(), RegressOptions{});
    EXPECT_FALSE(old_rep.pass());
    EXPECT_EQ(old_rep.regressions, 1u);
    EXPECT_EQ(old_rep.warnings, 0u);
    found = false;
    for (const MetricDelta &d : old_rep.deltas) {
        if (d.name == "xbc/li@32768.bandwidth") {
            found = true;
            EXPECT_EQ(d.verdict, MetricVerdict::Regress);
            EXPECT_DOUBLE_EQ(d.baseline, 7.66);
            EXPECT_NEAR(d.rel, -0.01, 1e-9);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Regress, ExactCounterAnyDriftFails)
{
    BenchReport base = makeBaseline();
    BenchReport cur = base;
    cur.rows[0].totalUops += 1;  // below 0.5% but Exact-gated
    RegressReport rep = compareBench(cur, base, RegressOptions{});
    EXPECT_FALSE(rep.pass());
    EXPECT_EQ(rep.regressions, 1u);
}

TEST(Regress, ImprovementPassesAndIsCounted)
{
    BenchReport base = makeBaseline();
    BenchReport cur = base;
    cur.rows[0].bandwidth *= 1.10;  // higher-is-better, way up
    RegressReport rep = compareBench(cur, base, RegressOptions{});
    EXPECT_TRUE(rep.pass());
    EXPECT_EQ(rep.improvements, 1u);
}

TEST(Regress, HostDriftWarnsUnlessGated)
{
    BenchReport base = makeBaseline();
    BenchReport cur = base;
    cur.host.userSec = 4.0;  // +80% cpu on a +-50% host gate

    RegressReport warn = compareBench(cur, base, RegressOptions{});
    EXPECT_TRUE(warn.pass());
    EXPECT_EQ(warn.warnings, 1u);

    RegressOptions gated;
    gated.gateHost = true;
    RegressReport fail = compareBench(cur, base, gated);
    EXPECT_FALSE(fail.pass());
    EXPECT_EQ(fail.regressions, 1u);
}

TEST(Regress, MissingRowAndMissingIntervalsFail)
{
    BenchReport base = makeBaseline();

    BenchReport empty = base;
    empty.rows.clear();
    RegressReport rep = compareBench(empty, base, RegressOptions{});
    EXPECT_FALSE(rep.pass());
    EXPECT_EQ(rep.missing, 1u);  // the whole row is gone

    // A current row without interval percentiles is a missing
    // metric, not a silent pass.
    BenchReport no_iv = base;
    no_iv.rows[0].intervals = BenchIntervals{};
    RegressReport rep2 = compareBench(no_iv, base, RegressOptions{});
    EXPECT_FALSE(rep2.pass());
    EXPECT_GE(rep2.missing, 1u);
}

TEST(Regress, BuildMismatchGatesUnlessAllowed)
{
    BenchReport base = makeBaseline();
    BenchReport cur = base;
    cur.build.buildType = "Debug";

    RegressReport rep = compareBench(cur, base, RegressOptions{});
    EXPECT_TRUE(rep.buildMismatch);
    EXPECT_TRUE(rep.buildGated);
    EXPECT_FALSE(rep.pass());

    RegressOptions allow;
    allow.allowBuildMismatch = true;
    RegressReport ok = compareBench(cur, base, allow);
    EXPECT_TRUE(ok.buildMismatch);
    EXPECT_FALSE(ok.buildGated);
    EXPECT_TRUE(ok.pass());
}

TEST(Regress, TableAndRecordNameOffenders)
{
    BenchReport base = makeBaseline();
    BenchReport cur = base;
    cur.rows[0].missRate *= 1.02;
    RegressReport rep = compareBench(cur, base, RegressOptions{});

    const std::string table = renderRegressTable(rep, false);
    EXPECT_NE(table.find("missRate"), std::string::npos);
    EXPECT_NE(table.find("FAIL"), std::string::npos);

    const std::string record =
        renderBenchRecord(cur, rep, "base.json");
    JsonValue doc;
    ASSERT_TRUE(parseJson(record, &doc));
    EXPECT_EQ(doc.find("verdict")->asString(), "fail");
    const JsonValue *flagged = doc.find("flagged");
    ASSERT_NE(flagged, nullptr);
    ASSERT_TRUE(flagged->isArray());
    EXPECT_EQ(flagged->items.size(), 1u);
    const JsonValue *bench = doc.find("bench");
    ASSERT_NE(bench, nullptr);
    EXPECT_NE(bench->find("rows"), nullptr);
    // The sampling geometry the record was taken with.
    const JsonValue *from = doc.find("recordedFrom");
    ASSERT_NE(from, nullptr);
    EXPECT_EQ(from->find("intervalCycles")->asUint(), 1000u);
    EXPECT_EQ(from->find("windows")->asUint(), 50u);
    EXPECT_EQ(from->find("rows")->asUint(), 1u);
}
