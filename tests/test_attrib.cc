/**
 * @file
 * Tests for the miss-attribution layer (src/attrib).
 *
 * The load-bearing property is the pair of sum invariants: every
 * build uop and every fetch-silent cycle is charged to exactly one
 * cause, so the per-cause counters sum to frontend.buildUops and
 * frontend.stallCycles *exactly* — on every frontend, every
 * workload, and under fault injection (attribution is observational;
 * damage may shift categories but must never break the books).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "attrib/array_acct.hh"
#include "attrib/recorder.hh"
#include "attrib/rollup.hh"
#include "bpred/btb.hh"
#include "common/json.hh"
#include "core/xbc_frontend.hh"
#include "sim/config.hh"
#include "test_helpers.hh"
#include "verify/inject.hh"
#include "workload/catalog.hh"

namespace xbs
{
namespace
{

uint64_t
uopSum(const AttribRecorder &a)
{
    uint64_t sum = 0;
    for (std::size_t i = 0; i < kNumCauses; ++i)
        sum += a.uopCount((Cause)i);
    return sum;
}

uint64_t
cycleSum(const AttribRecorder &a)
{
    uint64_t sum = 0;
    for (std::size_t i = 0; i < kNumCauses; ++i)
        sum += a.cycleCount((Cause)i);
    return sum;
}

void
expectInvariants(const Frontend &fe, const std::string &label)
{
    const AttribRecorder &a = fe.attrib();
    const FrontendMetrics &m = fe.metrics();
    EXPECT_EQ(uopSum(a), m.buildUops.value()) << label;
    EXPECT_EQ(cycleSum(a), m.stallCycles.value()) << label;
    EXPECT_EQ(a.buildResidency.value(), m.buildCycles.value())
        << label;
}

// ---------------------------------------------------------------
// Invariants across every frontend and workload.

struct RunCase
{
    FrontendKind kind;
    const char *workload;
};

class SumInvariants : public testing::TestWithParam<RunCase>
{
};

TEST_P(SumInvariants, CategoriesSumToMetrics)
{
    const RunCase &c = GetParam();
    SimConfig config;
    config.kind = c.kind;
    auto fe = makeFrontend(config);
    Trace trace = makeCatalogTrace(c.workload, 50000);
    fe->run(trace);
    expectInvariants(*fe, std::string(frontendKindName(c.kind)) +
                              "/" + c.workload);
    // Everything that stalled or built must be *explained*: the only
    // category allowed to absorb slack is Unattributed, and a healthy
    // run should barely use it.
    const AttribRecorder &a = fe->attrib();
    if (fe->metrics().buildUops.value() > 0) {
        EXPECT_LT(a.uopCount(Cause::Unattributed),
                  fe->metrics().buildUops.value() / 10);
    }
}

INSTANTIATE_TEST_SUITE_P(
    FrontendsByWorkloads, SumInvariants,
    testing::Values(RunCase{FrontendKind::Ic, "gcc"},
                    RunCase{FrontendKind::Dc, "gcc"},
                    RunCase{FrontendKind::Tc, "gcc"},
                    RunCase{FrontendKind::Bbtc, "gcc"},
                    RunCase{FrontendKind::Xbc, "gcc"},
                    RunCase{FrontendKind::Xbc, "go"},
                    RunCase{FrontendKind::Xbc, "vortex"},
                    RunCase{FrontendKind::Tc, "li"},
                    RunCase{FrontendKind::Bbtc, "perl"}),
    [](const testing::TestParamInfo<RunCase> &info) {
        return std::string(frontendKindName(info.param.kind)) + "_" +
               info.param.workload;
    });

// Small capacities force heavy eviction/build churn — the invariants
// must hold under maximal mode switching, not just steady state.
TEST(SumInvariants, TinyCapacityChurn)
{
    for (uint64_t capacity : {512u, 2048u, 8192u}) {
        SimConfig config;
        config.kind = FrontendKind::Xbc;
        config.xbc.capacityUops = capacity;
        auto fe = makeFrontend(config);
        Trace trace = makeCatalogTrace("gcc", 50000);
        fe->run(trace);
        expectInvariants(*fe,
                         "capacity=" + std::to_string(capacity));
    }
}

// ---------------------------------------------------------------
// Fault injection: corruption shifts loss between categories but the
// accounting must stay exact (the recorder is charged at the metric
// increment sites, so any imbalance is a wiring bug).

struct InjectCase
{
    const char *spec;
    uint64_t seed;
};

class InjectedInvariants : public testing::TestWithParam<InjectCase>
{
};

TEST_P(InjectedInvariants, SumsSurviveCorruption)
{
    const InjectCase &c = GetParam();
    auto plan = parseInjectSpec(c.spec);
    ASSERT_TRUE(plan.ok()) << plan.status().toString();
    FaultInjector injector(plan.take(), c.seed);

    SimConfig config;
    config.kind = FrontendKind::Xbc;
    auto fe = makeFrontend(config);

    Trace base = makeCatalogTrace("gcc", 50000);
    Trace trace = injector.plan().hasTraceActions()
                      ? injector.prepareTrace(base)
                      : std::move(base);
    fe->attachCycleObserver(&injector);
    fe->run(trace);

    EXPECT_GT(injector.injections(), 0u) << injector.summary();
    expectInvariants(*fe, std::string("inject:") + c.spec + " seed " +
                              std::to_string(c.seed));
}

INSTANTIATE_TEST_SUITE_P(
    KindsBySeeds, InjectedInvariants,
    testing::Values(InjectCase{"xbtb-flip@997", 1},
                    InjectCase{"xbtb-flip@997", 5},
                    InjectCase{"xfu-drop@1499", 2},
                    InjectCase{"line-kill@1999", 3},
                    InjectCase{"line-kill@1999", 4},
                    InjectCase{"slot-corrupt@2503", 1},
                    InjectCase{"xbtb-flip@997,line-kill@1999,"
                               "slot-corrupt@2503",
                               7}),
    [](const testing::TestParamInfo<InjectCase> &info) {
        std::string n = info.param.spec;
        for (char &ch : n)
            if (ch == '-' || ch == '@' || ch == ',')
                ch = '_';
        return n + "_s" + std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------
// AttribRecorder unit semantics.

TEST(AttribRecorder, StickyDisruptionConsumedByEnterBuild)
{
    StatGroup root("fe");
    AttribRecorder a(&root);

    a.noteDisruption(Cause::XbcConflict);
    a.enterBuild(Cause::StructMiss);  // fresh disruption wins
    a.chargeBuildUops(10);
    EXPECT_EQ(a.uopCount(Cause::XbcConflict), 10u);
    EXPECT_EQ(a.uopCount(Cause::StructMiss), 0u);

    // Consumed: a second build entry without a new disruption falls
    // back to the structural cause.
    a.enterBuild(Cause::StructMiss);
    a.chargeBuildUops(5);
    EXPECT_EQ(a.uopCount(Cause::StructMiss), 5u);
}

TEST(AttribRecorder, ClearDisruptionCancelsPendingCause)
{
    StatGroup root("fe");
    AttribRecorder a(&root);

    a.noteDisruption(Cause::XbtbMiss);
    a.clearDisruption();  // a later hit resumed delivery
    a.enterBuild(Cause::PartialHit);
    a.chargeBuildUops(3);
    EXPECT_EQ(a.uopCount(Cause::XbtbMiss), 0u);
    EXPECT_EQ(a.uopCount(Cause::PartialHit), 3u);
}

TEST(AttribRecorder, LatestDisruptionWins)
{
    StatGroup root("fe");
    AttribRecorder a(&root);
    a.noteDisruption(Cause::XbcCapacity);
    a.noteDisruption(Cause::CondMispredict);
    a.enterBuild(Cause::StructMiss);
    a.chargeBuildUops(1);
    EXPECT_EQ(a.uopCount(Cause::CondMispredict), 1u);
}

TEST(AttribRecorder, StallFifoChargesInOrder)
{
    StatGroup root("fe");
    AttribRecorder a(&root);

    a.noteStall(Cause::SetSearch, 1);
    a.noteStall(Cause::CondMispredict, 2);
    a.chargeSilentCycle();  // -> SetSearch
    a.chargeSilentCycle();  // -> CondMispredict
    a.chargeSilentCycle();  // -> CondMispredict
    a.chargeSilentCycle();  // FIFO empty -> Unattributed
    EXPECT_EQ(a.cycleCount(Cause::SetSearch), 1u);
    EXPECT_EQ(a.cycleCount(Cause::CondMispredict), 2u);
    EXPECT_EQ(a.cycleCount(Cause::Unattributed), 1u);
    EXPECT_EQ(a.chargedCycles(), 4u);
}

TEST(AttribRecorder, BulkSilentChargeMatchesLoop)
{
    StatGroup root("fe");
    AttribRecorder a(&root);
    a.noteStall(Cause::IcMiss, 3);
    a.chargeSilentCycles(5);
    EXPECT_EQ(a.cycleCount(Cause::IcMiss), 3u);
    EXPECT_EQ(a.cycleCount(Cause::Unattributed), 2u);
}

// ---------------------------------------------------------------
// ArrayAccounting: shadow-directory 3C classification + lifetimes.

TEST(ArrayAccounting, ShadowClassifiesThreeCs)
{
    StatGroup root("attrib");
    ScalarStat cycles(&root, "cycles", "clock");
    // 1 bank x 1 set, 2-line shadow.
    ArrayAccounting acct(&root, &cycles, 1, 1, 2);

    EXPECT_EQ(acct.classifyMiss(0xA), Cause::XbcCompulsory);

    acct.onAlloc(0xA, 0, 0);  // built
    acct.onEvict(0xA, 0, 0, true, true);  // evicted -> shadow
    EXPECT_TRUE(acct.inShadow(0xA));
    EXPECT_EQ(acct.classifyMiss(0xA), Cause::XbcConflict);

    // Two younger evictions push 0xA out of the bounded shadow:
    // an old eviction reads as capacity, not conflict.
    acct.onAlloc(0xB, 0, 0);
    acct.onEvict(0xB, 0, 0, true, true);
    acct.onAlloc(0xC, 0, 0);
    acct.onEvict(0xC, 0, 0, true, true);
    EXPECT_FALSE(acct.inShadow(0xA));
    EXPECT_EQ(acct.shadowSize(), 2u);
    EXPECT_EQ(acct.classifyMiss(0xA), Cause::XbcCapacity);
    EXPECT_EQ(acct.classifyMiss(0xB), Cause::XbcConflict);

    // Rebuilding removes the tag from the shadow again.
    acct.onAlloc(0xB, 0, 0);
    EXPECT_FALSE(acct.inShadow(0xB));
}

TEST(ArrayAccounting, LifetimeHistogramsAndHeadSplit)
{
    StatGroup root("attrib");
    ScalarStat cycles(&root, "cycles", "clock");
    ArrayAccounting acct(&root, &cycles, 2, 4, 8);

    cycles.set(100);
    acct.onAlloc(0x1, 0, 2);
    cycles.set(140);
    acct.onHit(0x1);  // first hit: latency 40
    acct.onHit(0x1);
    cycles.set(200);
    acct.onEvict(0x1, 0, 2, /*head=*/true, /*last_gone=*/true);

    EXPECT_EQ(acct.buildToFirstHit().total(), 1u);
    EXPECT_EQ(acct.buildToFirstHit().count(40), 1u);
    EXPECT_EQ(acct.hitsBeforeEvict().count(2), 1u);
    EXPECT_EQ(acct.headEvictions.value(), 1u);
    EXPECT_EQ(acct.zeroHitEvictions.value(), 0u);

    // A never-hit XB evicted via a non-head line.
    acct.onAlloc(0x2, 1, 3);
    acct.onEvict(0x2, 1, 3, /*head=*/false, /*last_gone=*/true);
    EXPECT_EQ(acct.zeroHitEvictions.value(), 1u);
    EXPECT_EQ(acct.nonHeadEvictions.value(), 1u);
    EXPECT_EQ(acct.hitsBeforeEvict().count(0), 1u);
}

TEST(ArrayAccounting, RebuildKeepsOriginalBuildStamp)
{
    StatGroup root("attrib");
    ScalarStat cycles(&root, "cycles", "clock");
    ArrayAccounting acct(&root, &cycles, 1, 1, 4);

    cycles.set(10);
    acct.onAlloc(0x5, 0, 0);
    cycles.set(50);
    acct.onAlloc(0x5, 0, 0);  // extension of the live XB
    cycles.set(60);
    acct.onHit(0x5);
    // Latency measured from the *original* build, not the extension.
    EXPECT_EQ(acct.buildToFirstHit().count(50), 1u);
}

// ---------------------------------------------------------------
// The XBC frontend's live accounting reconciles with the data array.

TEST(ArrayAccounting, XbcRunReconciles)
{
    SimConfig config;
    config.kind = FrontendKind::Xbc;
    config.xbc.capacityUops = 4096;  // force evictions
    XbcFrontend fe(config.frontend, config.xbc);
    Trace trace = makeCatalogTrace("gcc", 50000);
    fe.run(trace);

    const ArrayAccounting *acct = fe.arrayAccounting();
    ASSERT_NE(acct, nullptr);
    const XbcDataArray &array = fe.dataArray();
    // Every eviction was split into head or non-head, one event per
    // evicted line.
    EXPECT_EQ(acct->headEvictions.value() +
                  acct->nonHeadEvictions.value(),
              array.evictions.value());
    EXPECT_GT(acct->headEvictions.value(), 0u);
    // The shadow never outgrows its capacity (the physical line
    // count) and lifetime samples were actually collected.
    EXPECT_LE(acct->shadowSize(),
              (std::size_t)array.lineCount());
    EXPECT_GT(acct->buildToFirstHit().total(), 0u);
    EXPECT_GT(acct->hitsBeforeEvict().total(), 0u);
}

// ---------------------------------------------------------------
// Return-stack underflow accounting (bpred satellite).

TEST(ReturnStack, CountsUnderflows)
{
    ReturnStack rsb(4);
    EXPECT_EQ(rsb.underflows(), 0u);
    rsb.push(0x100);
    EXPECT_NE(rsb.pop(), 0u);
    EXPECT_EQ(rsb.underflows(), 0u);
    EXPECT_EQ(rsb.pop(), 0u);  // empty
    EXPECT_EQ(rsb.pop(), 0u);
    EXPECT_EQ(rsb.underflows(), 2u);
    rsb.reset();
    EXPECT_EQ(rsb.underflows(), 0u);
}

// ---------------------------------------------------------------
// Rollup JSON round-trip (the batch pipeline's carrier type).

TEST(AttribRollup, JsonRoundTripAndSums)
{
    StatGroup root("fe");
    AttribRecorder a(&root);
    a.enterBuild(Cause::ColdStart);
    a.chargeBuildUops(7);
    a.noteDisruption(Cause::XbcConflict);
    a.enterBuild(Cause::StructMiss);
    a.chargeBuildUops(13);
    a.noteStall(Cause::CondMispredict, 4);
    a.chargeSilentCycles(4);

    std::ostringstream os;
    {
        JsonWriter jw(os);
        jw.beginObject();
        a.writeJson(jw, /*build_uops=*/20, /*stall_cycles=*/4);
        jw.endObject();
    }
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(os.str(), &doc, &err)) << err;
    const JsonValue *attrib = doc.find("attrib");
    ASSERT_NE(attrib, nullptr);

    AttribRollup r = parseAttribRollup(*attrib);
    EXPECT_TRUE(r.has);
    EXPECT_EQ(r.buildUops, 20u);
    EXPECT_EQ(r.silentCycles, 4u);
    EXPECT_TRUE(r.sumsMatch());
    EXPECT_EQ(r.dominantUopCause(), "xbcConflict");

    // Round-trip through the rollup writer stays identical.
    std::ostringstream os2;
    {
        JsonWriter jw(os2);
        jw.beginObject();
        writeAttribRollup(jw, r);
        jw.endObject();
    }
    JsonValue doc2;
    ASSERT_TRUE(parseJson(os2.str(), &doc2, &err)) << err;
    AttribRollup r2 = parseAttribRollup(*doc2.find("attrib"));
    EXPECT_EQ(r2.buildUops, r.buildUops);
    EXPECT_EQ(r2.uops, r.uops);
    EXPECT_EQ(r2.cycles, r.cycles);

    // A perturbed category must be caught.
    r2.uops[0].second += 1;
    EXPECT_FALSE(r2.sumsMatch());
}

} // anonymous namespace
} // namespace xbs
