/**
 * @file
 * Tests of the benchmark itself: its output checks, its determinism
 * and its seed, on short traces.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "bench.hh"
#include "common/json.hh"
#include "workload/catalog.hh"

using namespace xbs;
using namespace xbs::perfbench;

namespace
{

constexpr uint64_t kInsts = 20000;

CellResult
xbcCell(uint64_t seed)
{
    SpanLog off(false);
    const Trace trace = generateTrace("gcc", seed, kInsts, off);
    double setup = 0.0;
    CellResult c =
        runCell(trace, "gcc", {FrontendKind::Xbc, 32768}, off, &setup);
    checkCell(c);
    return c;
}

std::string
recordsOf(const Trace &t)
{
    std::string out;
    for (std::size_t i = 0; i < t.numRecords(); ++i) {
        out += std::to_string(t.inst(i).ip) + ":" +
               std::to_string(t.record(i).taken) + " ";
    }
    return out;
}

} // anonymous namespace

TEST(PerfbenchChecks, GoodCellPasses)
{
    const CellResult c = xbcCell(0);
    EXPECT_TRUE(c.failures.empty()) << c.failures.front();
    Outcome out;
    out.addCells({c});
    EXPECT_EQ(out.attempted, 1u);
    EXPECT_EQ(out.failed, 0u);
}

TEST(PerfbenchChecks, DoctoredCellIsCountedAndNamed)
{
    CellResult good = xbcCell(0);
    CellResult bad = good;
    bad.label = "xbc/doctored@32768";
    bad.cycles += 1;
    bad.failures.clear();
    checkCell(bad);
    ASSERT_EQ(bad.failures.size(), 1u);
    EXPECT_NE(bad.failures[0].find("cycles"), std::string::npos);

    CellResult short_uops = good;
    short_uops.label = "xbc/short@32768";
    short_uops.deliveryUops -= 1;
    short_uops.failures.clear();
    checkCell(short_uops);
    EXPECT_FALSE(short_uops.failures.empty());

    Outcome out;
    out.addCells({good, bad, short_uops});
    EXPECT_EQ(out.attempted, 3u);
    EXPECT_EQ(out.failed, 2u);
    EXPECT_EQ(out.failedCells.count("xbc/doctored@32768"), 1u);
    EXPECT_EQ(out.failedCells.count("xbc/short@32768"), 1u);
    EXPECT_TRUE(out.completed);
}

TEST(PerfbenchChecks, DoctoredReportJobsAreCountedAndNamed)
{
    auto job = [](const char *fe, const char *cls, uint64_t total,
                  uint64_t attrib_uops, const char *extra) {
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "{\"workload\":\"gcc\",\"frontend\":\"%s\",\"capacity\":8192,"
            "\"class\":\"%s\",\"replayed\":false,\"seconds\":0.5%s,"
            "\"metrics\":{\"bandwidth\":7.5,\"missRate\":0.01,"
            "\"cycles\":100,\"totalUops\":%llu,\"attrib\":{"
            "\"buildUops\":10,\"silentCycles\":4,\"uops\":{\"coldStart\":"
            "%llu},\"cycles\":{\"icMiss\":4}}}}",
            fe, cls, extra, (unsigned long long)total,
            (unsigned long long)attrib_uops);
        return std::string(buf);
    };
    const std::string text =
        "{\"jobs\":[" + job("tc", "ok", 500, 10, "") + "," +
        job("xbc", "ok", 501, 10, "") + "," +
        job("tc", "ok", 500, 9, "") + "," +
        job("xbc", "ok", 500, 10, ",\"cached\":true") + "," +
        job("tc", "crash", 500, 10, "") + "]}";
    JsonValue report;
    ASSERT_TRUE(parseJson(text, &report));
    const std::vector<CellResult> cells = cellsFromReport(report, 6);
    ASSERT_EQ(cells.size(), 6u);
    EXPECT_TRUE(cells[0].failures.empty());
    EXPECT_NE(cells[1].failures.at(0).find("totalUops"), std::string::npos);
    EXPECT_NE(cells[2].failures.at(0).find("attrib"), std::string::npos);
    EXPECT_NE(cells[3].failures.at(0).find("cache"), std::string::npos);
    EXPECT_NE(cells[4].failures.at(0).find("crash"), std::string::npos);
    EXPECT_NE(cells[5].failures.at(0).find("missing"), std::string::npos);

    Outcome out;
    out.addCells(cells);
    EXPECT_EQ(out.attempted, 6u);
    EXPECT_EQ(out.failed, 5u);
    EXPECT_FALSE(out.completed);
}

TEST(PerfbenchChecks, RealSweepPassesItsChecks)
{
    const std::string tools = PERFBENCH_TOOLS;
    const std::string out = PERFBENCH_SCRATCH;
    const SweepEnv env{tools + "/xbatch", tools + "/xbsim", out};
    SweepStats stats;
    Expected<RepResult> rep = runSweepRep(env, {"li"}, 2000, &stats);
    ASSERT_TRUE(rep.ok()) << rep.status().toString();
    ASSERT_EQ(rep.value().cells.size(), 2 * sweepCapacities().size());
    for (const CellResult &c : rep.value().cells) {
        EXPECT_TRUE(c.failures.empty()) << c.label << ": "
                                        << c.failures.front();
        EXPECT_GT(c.simUops(), 0u);
    }
    EXPECT_EQ(rep.value().parts.size(), 1u);
    EXPECT_GT(stats.childRssKbMax, 0u);
    std::filesystem::remove_all(out);
}

TEST(PerfbenchSeed, SameSeedSameDigest)
{
    const std::string a = simDigest({xbcCell(7)});
    const std::string b = simDigest({xbcCell(7)});
    EXPECT_EQ(a, b);
    Outcome out;
    out.addRep({xbcCell(7)});
    out.addRep({xbcCell(7)});
    EXPECT_FALSE(out.digestMismatch);
    out.addRep({xbcCell(8)});
    EXPECT_TRUE(out.digestMismatch);
}

TEST(PerfbenchSeed, OtherSeedOtherTraces)
{
    SpanLog off(false);
    const Trace a = generateTrace("gcc", 1, kInsts, off);
    const Trace b = generateTrace("gcc", 2, kInsts, off);
    ASSERT_EQ(a.numRecords(), b.numRecords());
    EXPECT_NE(recordsOf(a), recordsOf(b));
}

TEST(PerfbenchSeed, DefaultSeedIsTheCatalogTrace)
{
    SpanLog off(false);
    const Trace ours = generateTrace("li", 0, kInsts, off);
    const Trace catalog = makeCatalogTrace("li", kInsts);
    EXPECT_EQ(recordsOf(ours), recordsOf(catalog));
}

TEST(PerfbenchSeed, SweepKeepsEverySuite)
{
    EXPECT_EQ(sweepWorkloads(0),
              (std::vector<std::string>{"gcc", "li", "word", "quake2"}));
    std::set<std::string> seen;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        const std::vector<std::string> w = sweepWorkloads(seed);
        ASSERT_EQ(w.size(), 4u);
        EXPECT_EQ(findWorkload(w[0]).suite, "SPECint95");
        EXPECT_EQ(findWorkload(w[1]).suite, "SPECint95");
        EXPECT_EQ(findWorkload(w[2]).suite, "SYSmark32");
        EXPECT_EQ(findWorkload(w[3]).suite, "Games");
        seen.insert(w.begin(), w.end());
    }
    EXPECT_GT(seen.size(), 8u);
}

TEST(PerfbenchSpans, SelfTimeSubtractsChildren)
{
    SpanLog spans(true);
    spans.open("cell", "bench", "x");
    const double t = nowSec();
    spans.add("Frontend::run", "core", "x", t, t + 0.5, 10);
    spans.close();
    spans.add("readTraceEx", "trace", "x", t + 1.0, t + 1.25, 4);
    for (const auto &[layer, sec] : spans.selfTimes()) {
        if (layer == "core") {
            EXPECT_DOUBLE_EQ(sec, 0.5);
        } else if (layer == "trace") {
            EXPECT_DOUBLE_EQ(sec, 0.25);
        } else {
            EXPECT_EQ(layer, "bench");
            EXPECT_LT(sec, 1e-3);
        }
    }
    SpanLog off(false);
    off.open("cell", "bench", "x");
    off.close();
    EXPECT_TRUE(off.spans().empty());
}

TEST(PerfbenchMetrics, MediansOverRepetitions)
{
    auto rep = [](double w0, double w1, double run, uint64_t rss_kb) {
        RepResult r;
        r.parts = {{w0, 0.0, w0, 1.0, "a"}, {w1, 0.0, w1, 1.0, "b"}};
        CellResult c;
        c.deliveryUops = 3000000;
        c.runSec = run;
        r.cells = {c};
        r.peakRssKb = rss_kb;
        return r;
    };
    const std::vector<double> v = endToEndValues(
        {rep(2.0, 1.0, 1.5, 2048), rep(1.0, 3.0, 3.0, 1024),
         rep(4.0, 2.0, 1.0, 1024)},
        {0.3, 0.1, 0.2});
    ASSERT_EQ(v.size(), endToEndMetrics().size());
    EXPECT_DOUBLE_EQ(v[0], 4.0);  // wall_s: median of 3, 4 and 6 s
    EXPECT_DOUBLE_EQ(v[1], 0.2);  // setup_s: median
    EXPECT_DOUBLE_EQ(v[2], 2.0);  // median of 3M uops / 1.5, 3, 1 s
    EXPECT_DOUBLE_EQ(v[3], 4.0);  // cpu_s
    EXPECT_DOUBLE_EQ(v[4], 2.0);  // peak_rss_mb: the maximum
}

TEST(PerfbenchMetrics, QuietSpeedDividesEachTimeByItsFactor)
{
    RepResult r;
    r.parts = {{2.0, 0.5, 1.8, 2.0, "a"}, {3.0, 0.0, 3.0, 1.0, "b"}};
    CellResult c;
    c.runSec = 1.2;
    c.hostFactor = 2.0;
    r.cells = {c};
    const RepResult q = atQuietSpeed({r}).front();
    EXPECT_DOUBLE_EQ(q.parts[0].wallSec, 1.0);
    EXPECT_DOUBLE_EQ(q.parts[0].setupSec, 0.25);
    EXPECT_DOUBLE_EQ(q.parts[0].cpuSec, 0.9);
    EXPECT_DOUBLE_EQ(q.parts[1].wallSec, 3.0);
    EXPECT_DOUBLE_EQ(q.cells[0].runSec, 0.6);
    EXPECT_DOUBLE_EQ(q.wallSec, 4.0);

    HostSpeed speed;
    EXPECT_GT(speed.factor(), 0.0);
}

TEST(PerfbenchSpans, MetricNamesMatchBenchmarkJson)
{
    Expected<JsonValue> doc =
        readJsonFile(std::string(PERFBENCH_ROOT) + "/BENCHMARK.json");
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    auto names = [&](const char *key) {
        std::vector<std::pair<std::string, std::string>> out;
        for (const JsonValue &m : doc.value().find(key)->items) {
            out.emplace_back(m.find("name")->asString(),
                             m.find("unit")->asString());
        }
        return out;
    };
    auto ours = [](const auto &table) {
        std::vector<std::pair<std::string, std::string>> out;
        for (const auto &[name, unit] : table)
            out.emplace_back(name, unit);
        return out;
    };
    EXPECT_EQ(names("end_to_end"), ours(endToEndMetrics()));
    EXPECT_EQ(names("per_layer"), ours(perLayerMetrics()));
}
