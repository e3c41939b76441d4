/**
 * @file
 * Tests for the observability layer: interval-sampler delta
 * exactness across a forced mode switch, nested StatGroup::find
 * paths, the JSON parser, and the XBSIM_LOG environment override.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/interval_stats.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "core/xbc_frontend.hh"
#include "workload/catalog.hh"

namespace xbs
{
namespace
{

TEST(IntervalSampler, DeltaSumsMatchAggregates)
{
    Trace trace = makeCatalogTrace("gcc", 60000);
    FrontendParams fp;
    // A small XBC forces evictions and build<->delivery churn so the
    // windows see genuine mode switches.
    XbcParams xp;
    xp.capacityUops = 4096;
    XbcFrontend fe(fp, xp);

    std::ostringstream os;
    IntervalSampler sampler(fe.statRoot(), /*interval=*/1000);
    sampler.setOutput(&os);
    fe.attachSampler(&sampler);
    fe.run(trace);
    fe.finishObservation();

    EXPECT_GT(sampler.windowsEmitted(), 1u);

    // Parse every JSONL line and sum all deltas per path.
    std::istringstream lines(os.str());
    std::string line;
    uint64_t sum_delivery = 0, sum_build = 0, sum_cycles = 0,
             sum_switches = 0, windows = 0;
    uint64_t last_end = 0;
    while (std::getline(lines, line)) {
        JsonValue doc;
        std::string err;
        ASSERT_TRUE(parseJson(line, &doc, &err)) << err;
        ++windows;
        const JsonValue *deltas = doc.find("deltas");
        ASSERT_NE(deltas, nullptr);
        auto get = [&](const char *suffix) -> uint64_t {
            for (const auto &[k, v] : deltas->members) {
                if (k.size() >= std::strlen(suffix) &&
                    k.compare(k.size() - std::strlen(suffix),
                              std::strlen(suffix), suffix) == 0) {
                    return v.asUint();
                }
            }
            return 0;
        };
        sum_delivery += get("frontend.deliveryUops");
        sum_build += get("frontend.buildUops");
        sum_cycles += get("frontend.cycles");
        sum_switches += get("frontend.modeSwitches");
        // Windows tile the run contiguously.
        EXPECT_EQ(doc.find("startCycle")->asUint(), last_end);
        last_end = doc.find("endCycle")->asUint();
    }
    EXPECT_EQ(windows, sampler.windowsEmitted());

    // The exactness guarantee: summed deltas == end-of-run values.
    const auto &m = fe.metrics();
    EXPECT_EQ(sum_delivery, m.deliveryUops.value());
    EXPECT_EQ(sum_build, m.buildUops.value());
    EXPECT_EQ(sum_cycles, m.cycles.value());
    EXPECT_EQ(sum_switches, m.modeSwitches.value());
    EXPECT_GT(sum_switches, 0u);  // the churn actually happened
    EXPECT_EQ(last_end, m.cycles.value());

    // Conservation through the trace as well.
    EXPECT_EQ(sum_delivery + sum_build, trace.totalUops());

    // finish() is idempotent.
    uint64_t emitted = sampler.windowsEmitted();
    sampler.finish(m.cycles.value());
    EXPECT_EQ(sampler.windowsEmitted(), emitted);
}

TEST(IntervalSampler, EmptyRunEmitsOneWindow)
{
    StatGroup root("root");
    ScalarStat s(&root, "counter", "a counter");
    std::ostringstream os;
    IntervalSampler sampler(root, 100);
    sampler.setOutput(&os);
    sampler.finish(0);
    EXPECT_EQ(sampler.windowsEmitted(), 1u);
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(parseJson(os.str(), &doc, &err)) << err;
}

// Regression: a run whose counters still move after the last crossed
// boundary must flush those deltas in a final partial window —
// including the corner case where the run *ends exactly on* a
// boundary with uncommitted deltas behind it.
TEST(IntervalSampler, BoundaryEndFlushesResidualDeltas)
{
    StatGroup root("root");
    ScalarStat s(&root, "counter", "a counter");
    std::ostringstream os;
    IntervalSampler sampler(root, 100);
    sampler.setOutput(&os);

    s += 3;
    sampler.tick(100);  // boundary window [0,100): captures the 3
    s += 5;             // lands after the last boundary crossing
    sampler.finish(100);

    uint64_t sum = 0, windows = 0;
    std::istringstream lines(os.str());
    std::string line;
    while (std::getline(lines, line)) {
        JsonValue doc;
        std::string err;
        ASSERT_TRUE(parseJson(line, &doc, &err)) << err;
        ++windows;
        const JsonValue *deltas = doc.find("deltas");
        ASSERT_NE(deltas, nullptr);
        for (const auto &[k, v] : deltas->members)
            sum += v.asUint();
    }
    EXPECT_EQ(windows, 2u);
    EXPECT_EQ(windows, sampler.windowsEmitted());
    // The exactness guarantee survives the boundary-ending run.
    EXPECT_EQ(sum, s.value());

    // But a boundary-ending run with *no* residual deltas must not
    // grow an empty trailing window.
    StatGroup root2("root");
    ScalarStat s2(&root2, "counter", "a counter");
    IntervalSampler clean(root2, 100);
    s2 += 1;
    clean.tick(100);
    clean.finish(100);
    EXPECT_EQ(clean.windowsEmitted(), 1u);
}

// Regression: a trace shorter than one window (the run ends before
// the first boundary is ever crossed) must emit exactly one final
// partial window carrying all the deltas — not zero windows, and
// not a duplicate.
TEST(IntervalSampler, SubWindowRunEmitsOnePartialWindow)
{
    StatGroup root("root");
    ScalarStat s(&root, "counter", "a counter");
    std::ostringstream os;
    IntervalSampler sampler(root, /*interval=*/10000);
    sampler.setOutput(&os);

    s += 42;
    sampler.tick(137);     // never reaches the 10000-cycle boundary
    sampler.finish(137);
    sampler.finish(137);   // idempotent

    EXPECT_EQ(sampler.windowsEmitted(), 1u);
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(os.str(), &doc, &err)) << err;
    EXPECT_EQ(doc.find("startCycle")->asUint(), 0u);
    EXPECT_EQ(doc.find("endCycle")->asUint(), 137u);
    const JsonValue *deltas = doc.find("deltas");
    ASSERT_NE(deltas, nullptr);
    uint64_t sum = 0;
    for (const auto &[k, v] : deltas->members)
        sum += v.asUint();
    EXPECT_EQ(sum, 42u);
}

TEST(Stats, FindNestedPaths)
{
    StatGroup root("fe");
    StatGroup mid("core", &root);
    StatGroup leaf("array", &mid);
    ScalarStat top(&root, "cycles", "top-level");
    ScalarStat deep(&leaf, "evictions", "three levels down");

    EXPECT_EQ(root.find("cycles"), &top);
    EXPECT_EQ(root.find("core.array.evictions"), &deep);
    EXPECT_EQ(mid.find("array.evictions"), &deep);
    EXPECT_EQ(root.find("core.array.nope"), nullptr);
    EXPECT_EQ(root.find("bogus.evictions"), nullptr);
    EXPECT_EQ(root.find(""), nullptr);
}

TEST(Stats, FormulaStatEvaluatesAndDumps)
{
    StatGroup root("g");
    ScalarStat n(&root, "n", "numerator");
    ScalarStat d(&root, "d", "denominator");
    FormulaStat ratio(&root, "ratio", "n over d", [&] {
        return d.value() ? (double)n.value() / (double)d.value() : 0.0;
    });
    n += 3;
    d += 4;
    EXPECT_DOUBLE_EQ(ratio.value(), 0.75);
    EXPECT_EQ(root.find("ratio"), &ratio);

    std::ostringstream os;
    JsonWriter jw(os, /*pretty=*/false);
    jw.beginObject();
    root.dumpJson(jw, /*as_member=*/true);
    jw.endObject();
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(os.str(), &doc, &err)) << err;
    const JsonValue *g = doc.find("g");
    ASSERT_NE(g, nullptr);
    EXPECT_DOUBLE_EQ(g->find("ratio")->asNumber(), 0.75);
}

TEST(Json, ParserRoundTrip)
{
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(
        R"({"a": 1, "b": [true, null, "x\n\"y\""], "c": {"d": -2.5e1}})",
        &doc, &err))
        << err;
    EXPECT_EQ(doc.find("a")->asUint(), 1u);
    const JsonValue *b = doc.find("b");
    ASSERT_TRUE(b->isArray());
    ASSERT_EQ(b->items.size(), 3u);
    EXPECT_TRUE(b->items[0].boolValue);
    EXPECT_TRUE(b->items[1].isNull());
    EXPECT_EQ(b->items[2].asString(), "x\n\"y\"");
    EXPECT_DOUBLE_EQ(doc.find("c")->find("d")->asNumber(), -25.0);
}

TEST(Json, ParserRejectsMalformed)
{
    JsonValue doc;
    std::string err;
    EXPECT_FALSE(parseJson("{", &doc, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(parseJson("{\"a\":}", &doc, &err));
    EXPECT_FALSE(parseJson("[1,]", &doc, &err));
    EXPECT_FALSE(parseJson("", &doc, &err));
    EXPECT_FALSE(parseJson("{} trailing", &doc, &err));
}

TEST(Logging, EnvVarOverridesQuiet)
{
    // Remember and restore the ambient state.
    const char *old = std::getenv("XBSIM_LOG");
    std::string saved = old ? old : "";

    unsetenv("XBSIM_LOG");
    setLogQuiet(false);
    EXPECT_FALSE(logQuiet());
    setLogQuiet(true);
    EXPECT_TRUE(logQuiet());

    setenv("XBSIM_LOG", "normal", 1);
    EXPECT_FALSE(logQuiet());  // env forces output through quiet
    setenv("XBSIM_LOG", "quiet", 1);
    setLogQuiet(false);
    EXPECT_TRUE(logQuiet());  // env silences a normal request
    EXPECT_FALSE(logVerbose());
    setenv("XBSIM_LOG", "verbose", 1);
    EXPECT_FALSE(logQuiet());
    EXPECT_TRUE(logVerbose());

    if (old)
        setenv("XBSIM_LOG", saved.c_str(), 1);
    else
        unsetenv("XBSIM_LOG");
    setLogQuiet(false);
}

} // anonymous namespace
} // namespace xbs
