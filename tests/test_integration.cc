/**
 * @file
 * Cross-module integration tests: the paper's headline relationships
 * must hold end-to-end on catalog workloads for all three frontends,
 * across a parameterized sample of the catalog.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bbtc/bbtc_frontend.hh"
#include "common/json.hh"
#include "common/sha256.hh"
#include "core/xbc_frontend.hh"
#include "dc/dc_frontend.hh"
#include "ic/ic_frontend.hh"
#include "prof/phase_profiler.hh"
#include "sim/config.hh"
#include "sim/runner.hh"
#include "tc/tc_frontend.hh"
#include "verify/auditor.hh"
#include "workload/catalog.hh"

namespace xbs
{
namespace
{

constexpr uint64_t kLen = 60000;

struct Fixture
{
    explicit Fixture(const std::string &name)
        : trace(makeCatalogTrace(name, kLen)), ic(fp), tc(fp, {}),
          xbc(fp, {})
    {
        ic.run(trace);
        tc.run(trace);
        xbc.run(trace);
    }

    FrontendParams fp;
    Trace trace;
    IcFrontend ic;
    TcFrontend tc;
    XbcFrontend xbc;
};

class CrossFrontend : public testing::TestWithParam<std::string>
{
};

TEST_P(CrossFrontend, AllFrontendsConserveUops)
{
    Fixture f(GetParam());
    uint64_t total = f.trace.totalUops();
    EXPECT_EQ(f.ic.metrics().deliveryUops.value(), total);
    EXPECT_EQ(f.tc.metrics().deliveryUops.value() +
                  f.tc.metrics().buildUops.value(),
              total);
    EXPECT_EQ(f.xbc.metrics().deliveryUops.value() +
                  f.xbc.metrics().buildUops.value(),
              total);
}

TEST_P(CrossFrontend, DecodedStructuresBeatIcBandwidth)
{
    Fixture f(GetParam());
    EXPECT_GT(f.tc.metrics().bandwidth(),
              f.ic.metrics().bandwidth());
    EXPECT_GT(f.xbc.metrics().bandwidth(),
              f.ic.metrics().bandwidth());
}

TEST_P(CrossFrontend, XbcRedundancyBelowTc)
{
    Fixture f(GetParam());
    EXPECT_LT(f.xbc.dataArray().redundancy(),
              f.tc.cache().redundancy());
}

TEST_P(CrossFrontend, BandwidthParityBetweenTcAndXbc)
{
    // Figure 8: "the difference between the XBC and TC bandwidth is
    // negligible". Allow a generous band per workload.
    Fixture f(GetParam());
    double tc_bw = f.tc.metrics().bandwidth();
    double xbc_bw = f.xbc.metrics().bandwidth();
    EXPECT_NEAR(tc_bw, xbc_bw, 0.30 * std::max(tc_bw, xbc_bw));
}

TEST_P(CrossFrontend, XbcInvariantsAfterFullRun)
{
    Fixture f(GetParam());
    f.xbc.dataArray().checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    SampledWorkloads, CrossFrontend,
    testing::Values("gcc", "compress", "vortex", "word", "netscape",
                    "quake2", "falcon4"));

TEST(HeadlineResult, XbcMissRateBelowTcOnSuiteAverage)
{
    // Figure 9 at 32K uops: the XBC reduces misses versus the TC.
    // Evaluated on a 6-workload sample for test-time reasons; the
    // full 21-trace version lives in bench/fig9_missrate_size.
    SuiteRunner runner(kLen, {"gcc", "li", "word", "excel", "quake2",
                              "unreal"});
    auto results = runner.sweep({
        {"tc", SimConfig::tcBaseline(32768)},
        {"xbc", SimConfig::xbcBaseline(32768)},
    });
    double tc_mr = SuiteRunner::meanMissRate(results, "tc");
    double xbc_mr = SuiteRunner::meanMissRate(results, "xbc");
    EXPECT_LT(xbc_mr, tc_mr);
}

TEST(HeadlineResult, AssociativityReducesMisses)
{
    // Figure 10 shape: direct-mapped -> 2-way must cut misses.
    SuiteRunner runner(kLen, {"word", "gcc", "quake2"});
    auto results = runner.sweep({
        {"xbc1", SimConfig::xbcBaseline(32768, 1)},
        {"xbc2", SimConfig::xbcBaseline(32768, 2)},
    });
    EXPECT_GT(SuiteRunner::meanMissRate(results, "xbc1"),
              SuiteRunner::meanMissRate(results, "xbc2"));
}

TEST(HeadlineResult, MissRateFallsWithCapacity)
{
    SuiteRunner runner(kLen, {"word", "excel"});
    auto results = runner.sweep({
        {"s8", SimConfig::xbcBaseline(8192)},
        {"s64", SimConfig::xbcBaseline(65536)},
        {"t8", SimConfig::tcBaseline(8192)},
        {"t64", SimConfig::tcBaseline(65536)},
    });
    EXPECT_GT(SuiteRunner::meanMissRate(results, "s8"),
              SuiteRunner::meanMissRate(results, "s64"));
    EXPECT_GT(SuiteRunner::meanMissRate(results, "t8"),
              SuiteRunner::meanMissRate(results, "t64"));
}

/** All five structures, conservation and sane ranges. */
struct FiveWay
{
    std::string workload;
    FrontendKind kind;
};

class AllFrontends : public testing::TestWithParam<FiveWay>
{
};

TEST_P(AllFrontends, ConservesAndStaysInRange)
{
    const auto p = GetParam();
    SimConfig config;
    config.kind = p.kind;
    auto fe = makeFrontend(config);
    Trace trace = makeCatalogTrace(p.workload, 40000);
    fe->run(trace);
    const auto &m = fe->metrics();
    EXPECT_EQ(m.deliveryUops.value() + m.buildUops.value(),
              trace.totalUops())
        << frontendKindName(p.kind);
    EXPECT_LE(m.bandwidth(), 8.0 + 1e-9);
    EXPECT_GE(m.missRate(), 0.0);
    EXPECT_LE(m.missRate(), 1.0);
    EXPECT_GT(m.cycles.value(), trace.totalUops() / 8);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AllFrontends,
    testing::Values(FiveWay{"gcc", FrontendKind::Ic},
                    FiveWay{"gcc", FrontendKind::Dc},
                    FiveWay{"gcc", FrontendKind::Tc},
                    FiveWay{"gcc", FrontendKind::Bbtc},
                    FiveWay{"gcc", FrontendKind::Xbc},
                    FiveWay{"word", FrontendKind::Dc},
                    FiveWay{"word", FrontendKind::Bbtc},
                    FiveWay{"word", FrontendKind::Xbc},
                    FiveWay{"quake2", FrontendKind::Tc},
                    FiveWay{"quake2", FrontendKind::Bbtc},
                    FiveWay{"quake2", FrontendKind::Xbc}),
    [](const testing::TestParamInfo<FiveWay> &info) {
        return info.param.workload +
               std::string(frontendKindName(info.param.kind));
    });

/** The per-cycle contract (docs/MODEL.md): every simulated cycle is
 *  exactly one of delivery, build or stall. The auditor's metrics
 *  crosscheck asserts the same identity. */
class CycleIdentity : public testing::TestWithParam<FrontendKind>
{
};

TEST_P(CycleIdentity, EveryCycleIsDeliveryBuildOrStall)
{
    SimConfig config;
    config.kind = GetParam();
    auto fe = makeFrontend(config);
    Trace trace = makeCatalogTrace("gcc", kLen);
    InvariantAuditor auditor;
    auditor.attach(*fe, trace);
    fe->run(trace);
    auditor.finishRun(*fe);

    const auto &m = fe->metrics();
    if (GetParam() != FrontendKind::Ic) {
        EXPECT_GT(m.modeSwitches.value(), 0u);
    }
    EXPECT_EQ(m.deliveryCycles.value() + m.buildCycles.value() +
                  m.stallCycles.value(),
              m.cycles.value());
    std::ostringstream report;
    auditor.report(report);
    EXPECT_TRUE(auditor.ok()) << report.str();
}

/** Records every cycle number the loop reports to its observers. */
class CycleLog : public CycleObserver
{
  public:
    void onCycle(Frontend &, uint64_t cycle) override
    {
        seen.push_back(cycle);
    }

    std::vector<uint64_t> seen;
};

/** The cycle loop ticks its observers exactly once per simulated
 *  cycle, bubbles and mode switches included: a CycleObserver sees
 *  1, 2, ..., cycles, and every interval window's cycles delta is
 *  the window's length. The auditor, the fault injectors and the
 *  interval sampler all rely on this. */
TEST_P(CycleIdentity, EveryCycleIsObservedExactlyOnce)
{
    SimConfig config;
    config.kind = GetParam();
    auto fe = makeFrontend(config);
    Trace trace = makeCatalogTrace("gcc", kLen);
    CycleLog log;
    fe->attachCycleObserver(&log);
    std::ostringstream os;
    IntervalSampler sampler(fe->statRoot(), /*interval=*/1000);
    sampler.setOutput(&os);
    fe->attachSampler(&sampler);
    fe->run(trace);
    fe->finishObservation();

    const uint64_t cycles = fe->metrics().cycles.value();
    ASSERT_EQ(log.seen.size(), cycles);
    for (uint64_t i = 0; i < cycles; ++i)
        ASSERT_EQ(log.seen[i], i + 1) << "observation " << i;

    const std::string key = fe->name() + ".frontend.cycles";
    std::istringstream lines(os.str());
    std::string line;
    uint64_t windows = 0;
    while (std::getline(lines, line)) {
        JsonValue doc;
        std::string err;
        ASSERT_TRUE(parseJson(line, &doc, &err)) << err;
        const JsonValue *delta = doc.find("deltas")->find(key);
        EXPECT_EQ(delta ? delta->asUint() : 0,
                  doc.find("cycles")->asUint())
            << "window " << windows;
        ++windows;
    }
    EXPECT_GT(windows, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllFive, CycleIdentity,
    testing::Values(FrontendKind::Ic, FrontendKind::Dc,
                    FrontendKind::Tc, FrontendKind::Bbtc,
                    FrontendKind::Xbc),
    [](const testing::TestParamInfo<FrontendKind> &info) {
        return std::string(frontendKindName(info.param));
    });

TEST(SurveyOrdering, DecodedStructuresBeatAddressIndexed)
{
    // Section 2 taxonomy on one mid-size workload: TC-family
    // bandwidth >> IC/DC bandwidth; DC misses most (fragmentation).
    Trace trace = makeCatalogTrace("excel", kLen);
    FrontendParams fp;
    DcFrontend dc(fp, DecodedCacheParams{});
    TcFrontend tc(fp, TcParams{});
    BbtcFrontend bbtc(fp, BbtcParams{});
    XbcFrontend xbc(fp, XbcParams{});
    dc.run(trace);
    tc.run(trace);
    bbtc.run(trace);
    xbc.run(trace);

    EXPECT_GT(tc.metrics().bandwidth(),
              dc.metrics().bandwidth() + 2.0);
    EXPECT_GT(bbtc.metrics().bandwidth(),
              dc.metrics().bandwidth() + 2.0);
    EXPECT_GT(dc.metrics().missRate(), tc.metrics().missRate());
    EXPECT_GT(dc.metrics().missRate(), xbc.metrics().missRate());
}

TEST(Determinism, HostProfilingNeverPerturbsPaperMetrics)
{
    // The --profile contract: host-side phase timers must leave
    // every simulated metric bit-identical across all five frontends.
    Trace trace = makeCatalogTrace("gcc", 40000);
    for (FrontendKind kind :
         {FrontendKind::Ic, FrontendKind::Dc, FrontendKind::Tc,
          FrontendKind::Bbtc, FrontendKind::Xbc}) {
        SimConfig config;
        config.kind = kind;

        auto bare = makeFrontend(config);
        bare->run(trace);

        PhaseProfiler prof(0);  // worst case: sample every entry
        auto profiled = makeFrontend(config);
        profiled->attachProfiler(&prof);
        profiled->run(trace);

        const auto &a = bare->metrics();
        const auto &b = profiled->metrics();
        EXPECT_EQ(a.deliveryUops.value(), b.deliveryUops.value())
            << frontendKindName(kind);
        EXPECT_EQ(a.buildUops.value(), b.buildUops.value())
            << frontendKindName(kind);
        EXPECT_EQ(a.cycles.value(), b.cycles.value())
            << frontendKindName(kind);
        EXPECT_EQ(a.bandwidth(), b.bandwidth())
            << frontendKindName(kind);
        EXPECT_EQ(a.missRate(), b.missRate())
            << frontendKindName(kind);
    }
}

TEST(Determinism, IdenticalTracesAcrossProcessRuns)
{
    // Catalog traces must be bit-identical between constructions.
    Trace a = makeCatalogTrace("descent3", 5000);
    Trace b = makeCatalogTrace("descent3", 5000);
    ASSERT_EQ(a.numRecords(), b.numRecords());
    for (std::size_t i = 0; i < a.numRecords(); ++i) {
        ASSERT_EQ(a.record(i).staticIdx, b.record(i).staticIdx);
        ASSERT_EQ(a.record(i).taken, b.record(i).taken);
    }
}

/**
 * The canonical metrics document of a finished run: the headline
 * metrics at full %.17g precision, the miss-attribution report and
 * the whole stat tree. Nothing host-dependent (no wall clock, no
 * rusage) goes in, so a cell writes the same bytes on every build.
 */
std::string
canonicalMetricsJson(const Frontend &fe)
{
    std::ostringstream os;
    {
        JsonWriter jw(os);
        jw.beginObject();
        const FrontendMetrics &m = fe.metrics();
        jw.field("cycles", m.cycles.value());
        jw.fieldFull("bandwidth", m.bandwidth());
        jw.fieldFull("missRate", m.missRate());
        jw.fieldFull("overallIpc", m.overallIpc());
        jw.fieldFull("condMispredictRate", m.condMispredictRate());
        fe.attrib().writeJson(jw, m.buildUops.value(),
                              m.stallCycles.value(),
                              fe.arrayAccounting());
        fe.statRoot().dumpJson(jw, /*as_member=*/true);
        jw.endObject();
    }
    return os.str();
}

/** One xbsim cell (`--frontend --workload --insts --capacity`) and
 *  the SHA-256 of its canonicalMetricsJson(). */
struct SimGoldenCell
{
    const char *frontend;
    const char *workload;
    uint64_t insts;
    uint64_t capacity;
    const char *sha256;
};

/** Every frontend on gcc, the XBC's eviction path (access at 2K) and
 *  its remembered failed promotions (compress at 32K, 700K
 *  instructions). Any change to a simulated number, however small,
 *  fails here: a refactor leaves the digests as they are, and only a
 *  deliberate model change re-records them. */
const SimGoldenCell kSimGolden[] = {
    {"ic", "gcc", 30000, 32768,
     "673e54ecec2f81702900a0c6ccf747b4d389603e7cc9cb6b6f3efe0865510197"},
    {"dc", "gcc", 30000, 8192,
     "ba97d2bd25c4cab862f7c47c0812b0896fdb587813163eef32f1c2e3e0ff0ffc"},
    {"tc", "gcc", 30000, 8192,
     "8e48d76a6fab36e98c47f96b7a02ed3a065783d5c4e4622508de91d67b16d7b9"},
    {"bbtc", "gcc", 30000, 8192,
     "adf3b1e6a888331ec724a2990b1b844b42fca5c266243ee913097499cece3be0"},
    {"xbc", "gcc", 30000, 8192,
     "434406b1da6e2ee63e8465bec4fe9f14978b31cbe7f817002de60e6619a522fe"},
    {"xbc", "access", 300000, 2048,
     "27a59d1db6d7fc609539eaa60ae33ef48ac305a71d75a348071b2e0a1fbc186d"},
    {"xbc", "compress", 700000, 32768,
     "35b68db11d704a6d08098329dd9b20cfe14dde7031d340bba3eef9ee887716f9"},
};

TEST(SimGolden, StatTreesPinnedBitForBit)
{
    for (const SimGoldenCell &g : kSimGolden) {
        RunSpec spec;
        spec.frontend = g.frontend;
        spec.workload = g.workload;
        spec.insts = g.insts;
        spec.capacity = g.capacity;
        Expected<SimConfig> config = spec.config();
        ASSERT_TRUE(config.ok()) << spec.label();
        const Trace trace = makeCatalogTrace(g.workload, g.insts);
        std::unique_ptr<Frontend> fe = makeFrontend(config.value());
        fe->run(trace);
        EXPECT_EQ(sha256Hex(canonicalMetricsJson(*fe)), g.sha256)
            << spec.label();
    }
}

} // anonymous namespace
} // namespace xbs
