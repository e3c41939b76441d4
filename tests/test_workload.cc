/**
 * @file
 * Unit tests for the synthetic workload layer: CFG linking, dynamic
 * behaviors, the executor, the structured program builder, and the
 * 21-entry catalog.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/sha256.hh"
#include "trace/trace_stats.hh"
#include "workload/builder.hh"
#include "workload/catalog.hh"
#include "workload/cfg.hh"
#include "workload/executor.hh"

namespace xbs
{
namespace
{

/** A two-function program: main calls f1 in a loop of 3. */
std::shared_ptr<const Program>
makeCallLoopProgram(uint32_t trips = 3)
{
    CfgProgram cfg("callloop");
    int main_id = cfg.addFunction("main");
    int f1_id = cfg.addFunction("f1");

    auto &main_fn = cfg.function(main_id);
    int header = main_fn.addBlock();
    main_fn.blocks[header].body.push_back({4, 2});
    main_fn.blocks[header].term.kind = TermKind::Call;
    main_fn.blocks[header].term.calleeFunctions = {f1_id};
    main_fn.blocks[header].term.length = 5;
    main_fn.blocks[header].term.numUops = 2;

    int latch = main_fn.addBlock();
    main_fn.blocks[latch].body.push_back({3, 1});
    CondBehavior loop;
    loop.kind = CondBehavior::Kind::Loop;
    loop.tripCount = trips;
    loop.tripJitter = 0.0;
    main_fn.blocks[latch].term.kind = TermKind::CondBranch;
    main_fn.blocks[latch].term.targetBlock = header;
    main_fn.blocks[latch].term.cond = loop;
    main_fn.blocks[latch].term.length = 2;
    main_fn.blocks[latch].term.numUops = 1;

    int exit_blk = main_fn.addBlock();
    main_fn.blocks[exit_blk].term.kind = TermKind::Return;
    main_fn.blocks[exit_blk].term.length = 1;
    main_fn.blocks[exit_blk].term.numUops = 2;

    auto &f1 = cfg.function(f1_id);
    int body = f1.addBlock();
    f1.blocks[body].body.push_back({4, 3});
    f1.blocks[body].term.kind = TermKind::Return;
    f1.blocks[body].term.length = 1;
    f1.blocks[body].term.numUops = 2;

    return cfg.link(0x1000);
}

TEST(CfgLink, AssignsSequentialIps)
{
    auto prog = makeCallLoopProgram();
    const auto &code = prog->code();
    for (std::size_t i = 1; i < code.size(); ++i) {
        const auto &prev = code.inst((int32_t)i - 1);
        const auto &cur = code.inst((int32_t)i);
        EXPECT_GE(cur.ip, prev.ip + prev.length);
    }
    EXPECT_EQ(prog->functions().size(), 2u);
    EXPECT_EQ(prog->functions()[0].name, "main");
}

TEST(CfgLink, ResolvesCallTargets)
{
    auto prog = makeCallLoopProgram();
    const auto &code = prog->code();
    // Find the call and check it targets f1's entry instruction.
    const auto &f1 = prog->functions()[1];
    bool found = false;
    for (std::size_t i = 0; i < code.size(); ++i) {
        const auto &si = code.inst((int32_t)i);
        if (si.cls == InstClass::DirectCall) {
            EXPECT_EQ(si.takenIdx, f1.firstIdx);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(CfgLink, RejectsDanglingFallThrough)
{
    CfgProgram cfg("bad");
    int f = cfg.addFunction("f");
    cfg.function(f).addBlock();  // no terminator, falls off the end
    EXPECT_EXIT(cfg.link(), testing::ExitedWithCode(1),
                "last block");
}

TEST(CfgLink, RejectsBadTarget)
{
    CfgProgram cfg("bad");
    int f = cfg.addFunction("f");
    auto &fn = cfg.function(f);
    int b = fn.addBlock();
    fn.blocks[b].term.kind = TermKind::Jump;
    fn.blocks[b].term.targetBlock = 99;
    EXPECT_EXIT(cfg.link(), testing::ExitedWithCode(1),
                "bad target block");
}

TEST(CfgLink, LinkExReportsStatusWithoutAborting)
{
    // The recoverable path: every structural violation comes back as
    // a Status naming the function, so a driver can exit 2 instead
    // of aborting deep inside workload construction.
    CfgProgram cfg("bad");
    int f = cfg.addFunction("broken");
    auto &fn = cfg.function(f);
    int b = fn.addBlock();
    fn.blocks[b].term.kind = TermKind::Jump;
    fn.blocks[b].term.targetBlock = 42;
    auto p = cfg.linkEx();
    ASSERT_FALSE(p.ok());
    EXPECT_NE(p.status().cause().find("'broken'"),
              std::string::npos);
    EXPECT_NE(p.status().cause().find("bad target block 42"),
              std::string::npos);
}

TEST(CfgLink, LinkExRejectsEmptyProgram)
{
    CfgProgram cfg("empty");
    auto p = cfg.linkEx();
    ASSERT_FALSE(p.ok());
    EXPECT_NE(p.status().cause().find("has no functions"),
              std::string::npos);
}

TEST(CfgLink, LinkExRejectsDanglingFallThrough)
{
    CfgProgram cfg("bad");
    int f = cfg.addFunction("f");
    cfg.function(f).addBlock();  // no terminator, falls off the end
    auto p = cfg.linkEx();
    ASSERT_FALSE(p.ok());
    EXPECT_NE(p.status().cause().find("last block"),
              std::string::npos);
}

TEST(CfgLink, LinkExSucceedsOnValidProgram)
{
    CfgProgram cfg("ok");
    int f = cfg.addFunction("f");
    auto &fn = cfg.function(f);
    int b = fn.addBlock();
    fn.blocks[b].body.push_back(CfgInst{});
    fn.blocks[b].term.kind = TermKind::Return;
    auto p = cfg.linkEx();
    ASSERT_TRUE(p.ok()) << p.status().toString();
    EXPECT_EQ(p.value()->name(), "ok");
}

TEST(Executor, LoopTripCountExact)
{
    auto prog = makeCallLoopProgram(3);
    Executor ex(prog, 1);
    // Walk enough instructions to cover one outer activation:
    // 3 iterations x (seq, call, f1 body, f1 ret, latch seq, latch).
    Trace t = ex.run(60);
    t.validate();

    // Count latch executions and taken directions.
    const auto &code = prog->code();
    int latch_taken = 0, latch_total = 0;
    for (std::size_t i = 0; i < t.numRecords(); ++i) {
        const auto &si = t.inst(i);
        if (si.cls == InstClass::CondBranch) {
            ++latch_total;
            latch_taken += t.record(i).taken;
        }
    }
    (void)code;
    ASSERT_GT(latch_total, 3);
    // A 3-trip loop takes its latch twice then exits once: the taken
    // fraction must be 2/3.
    EXPECT_NEAR((double)latch_taken / latch_total, 2.0 / 3.0, 0.05);
}

TEST(Executor, CallReturnMatches)
{
    auto prog = makeCallLoopProgram();
    Executor ex(prog, 1);
    Trace t = ex.run(100);
    t.validate();
    // Every return's successor must be the instruction after a call.
    for (std::size_t i = 0; i + 1 < t.numRecords(); ++i) {
        if (t.inst(i).cls == InstClass::Return) {
            uint64_t succ = t.inst(i + 1).ip;
            // Either the call-site continuation or the entry restart.
            bool ok = false;
            for (std::size_t j = 0; j < t.code().size(); ++j) {
                const auto &si = t.code().inst((int32_t)j);
                if (isCall(si.cls) && si.fallThroughIp() == succ)
                    ok = true;
            }
            ok = ok || succ == t.code()
                               .inst(prog->entryIdx()).ip;
            EXPECT_TRUE(ok) << "return at record " << i;
        }
    }
}

TEST(Executor, RestartsAfterMainReturns)
{
    auto prog = makeCallLoopProgram(2);
    Executor ex(prog, 1);
    Trace t = ex.run(400);
    // The entry instruction must appear more than once (restart).
    int entries = 0;
    for (std::size_t i = 0; i < t.numRecords(); ++i) {
        if (t.record(i).staticIdx == prog->entryIdx())
            ++entries;
    }
    EXPECT_GT(entries, 1);
}

TEST(Executor, DeterministicAcrossRuns)
{
    auto prog = makeCallLoopProgram();
    Trace a = Executor(prog, 7).run(200);
    Trace b = Executor(prog, 7).run(200);
    ASSERT_EQ(a.numRecords(), b.numRecords());
    for (std::size_t i = 0; i < a.numRecords(); ++i) {
        EXPECT_EQ(a.record(i).staticIdx, b.record(i).staticIdx);
        EXPECT_EQ(a.record(i).taken, b.record(i).taken);
    }
}

TEST(Executor, PatternBehaviorRepeats)
{
    CfgProgram cfg("pattern");
    int f = cfg.addFunction("f");
    auto &fn = cfg.function(f);
    int b0 = fn.addBlock();
    CondBehavior pb;
    pb.kind = CondBehavior::Kind::Pattern;
    pb.patternLen = 3;
    pb.patternBits = 0b011;  // T, T, N repeating
    fn.blocks[b0].term.kind = TermKind::CondBranch;
    fn.blocks[b0].term.targetBlock = b0;
    fn.blocks[b0].term.cond = pb;
    int b1 = fn.addBlock();
    fn.blocks[b1].term.kind = TermKind::Return;
    auto prog = cfg.link();

    Executor ex(prog, 1);
    std::vector<bool> dirs;
    for (int i = 0; i < 9; ++i) {
        int32_t idx = ex.step();
        if (prog->code().inst(idx).cls == InstClass::CondBranch)
            dirs.push_back(ex.lastTaken());
    }
    ASSERT_GE(dirs.size(), 6u);
    EXPECT_TRUE(dirs[0]);
    EXPECT_TRUE(dirs[1]);
    EXPECT_FALSE(dirs[2]);
    EXPECT_TRUE(dirs[3]);
    EXPECT_TRUE(dirs[4]);
    EXPECT_FALSE(dirs[5]);
}

/** Steps @p ex @p n times, recording what run(n) would. */
std::vector<std::pair<int32_t, bool>>
stepRecords(Executor &ex, uint64_t n)
{
    std::vector<std::pair<int32_t, bool>> out;
    for (uint64_t i = 0; i < n; ++i) {
        const int32_t idx = ex.step();
        out.emplace_back(idx, ex.lastTaken());
    }
    return out;
}

// run(n) emits a run of Seq instructions in one loop and steps only
// control instructions, yet must give exactly the records of n calls
// of step() and leave the executor where they would: chunks of many
// lengths end mid-run and on a control instruction alike. The
// catalog's entry functions loop forever; the call-loop program
// returns from its entry and restarts there.
TEST(Executor, RunMatchesStepping)
{
    const std::pair<std::shared_ptr<const Program>, bool> programs[] = {
        {buildCatalogProgram(findWorkload("gcc")), false},
        {buildCatalogProgram(findWorkload("access")), false},
        {makeCallLoopProgram(2), true},
        {makeCallLoopProgram(3), true},
    };
    const uint64_t chunks[] = {1, 2, 3, 5, 7, 11, 1000, 4, 6, 20000, 9};
    for (const auto &[prog, restarts] : programs) {
        SCOPED_TRACE(prog->name());
        Executor ran(prog, 5), stepped(prog, 5);
        unsigned mid_run = 0, entries = 0;
        for (uint64_t n : chunks) {
            const Trace t = ran.run(n);
            const auto want = stepRecords(stepped, n);
            ASSERT_EQ(t.numRecords(), n);
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ((int32_t)t.record(i).staticIdx, want[i].first)
                    << "record " << i << " of a run(" << n << ")";
                ASSERT_EQ(t.record(i).taken != 0, want[i].second);
                entries += want[i].first == prog->entryIdx();
            }
            EXPECT_EQ(ran.lastTaken(), stepped.lastTaken());
            // The chunk ended inside a Seq run when its last record
            // was Seq and the next one follows it.
            const int32_t last = want.back().first;
            const int32_t next = stepped.step();
            EXPECT_EQ((int32_t)ran.run(1).record(0).staticIdx, next);
            mid_run += prog->code().inst(last).cls == InstClass::Seq &&
                       next == last + 1;
        }
        EXPECT_GT(mid_run, 0u);
        EXPECT_EQ(entries > 1, restarts);
    }
}

// A program whose last instruction is Seq falls off its end: run()
// must panic with step()'s message, not emit past the code image.
TEST(ExecutorDeath, SeqOffTheEndPanicsLikeStep)
{
    auto code = std::make_shared<StaticCode>();
    for (uint64_t ip : {0x1000, 0x1001}) {
        StaticInst si;
        si.ip = ip;
        code->append(si);
    }
    code->finalize();
    auto prog = std::make_shared<const Program>(
        code, std::vector<CondBehavior>{},
        std::vector<IndirectBehavior>{}, 0,
        std::vector<FunctionInfo>{}, "seqend");
    EXPECT_EQ(Executor(prog, 1).run(1).numRecords(), 1u);
    EXPECT_DEATH(
        {
            Executor ex(prog, 1);
            ex.step();
            ex.step();
        },
        "pc 2 escaped the program");
    EXPECT_DEATH(Executor(prog, 1).run(2), "pc 2 escaped the program");
    EXPECT_DEATH(
        {
            Executor ex(prog, 1);
            ex.run(1);
            ex.run(1);
        },
        "pc 2 escaped the program");
}

TEST(Builder, DeterministicFromSeed)
{
    WorkloadProfile p = specIntProfile();
    p.name = "det";
    p.seed = 1234;
    p.numFunctions = 20;
    auto a = buildProgram(p);
    auto b = buildProgram(p);
    ASSERT_EQ(a->code().size(), b->code().size());
    for (std::size_t i = 0; i < a->code().size(); ++i) {
        EXPECT_EQ(a->code().inst((int32_t)i).ip,
                  b->code().inst((int32_t)i).ip);
        EXPECT_EQ(a->code().inst((int32_t)i).cls,
                  b->code().inst((int32_t)i).cls);
    }
}

TEST(Builder, ProducesJoinPoints)
{
    // If/else diamonds must produce instructions that are both jump
    // targets and fall-through successors (the paper's multi-entry /
    // redundancy scenario).
    WorkloadProfile p = sysmarkProfile();
    p.name = "joins";
    p.seed = 5;
    p.numFunctions = 30;
    auto prog = buildProgram(p);
    const auto &code = prog->code();

    std::set<int32_t> jump_targets;
    for (std::size_t i = 0; i < code.size(); ++i) {
        const auto &si = code.inst((int32_t)i);
        if (si.cls == InstClass::DirectJump &&
            si.takenIdx != kNoTarget) {
            jump_targets.insert(si.takenIdx);
        }
    }
    // A jump target whose predecessor instruction is non-control is
    // a fall-through join.
    int joins = 0;
    for (int32_t t : jump_targets) {
        if (t > 0 && !code.inst(t - 1).isControl())
            ++joins;
    }
    EXPECT_GT(joins, 0);
}

class ProfileSweep
    : public testing::TestWithParam<std::pair<const char *, int>>
{
};

TEST_P(ProfileSweep, StatisticalShape)
{
    auto [suite, seed] = GetParam();
    WorkloadProfile p;
    if (std::string(suite) == "spec")
        p = specIntProfile();
    else if (std::string(suite) == "sysmark")
        p = sysmarkProfile();
    else
        p = gamesProfile();
    p.name = std::string("sweep-") + suite;
    p.seed = (uint64_t)seed;
    p.numFunctions = std::max(30u, p.numFunctions / 4);

    auto prog = buildProgram(p);
    Trace t = Executor(prog, (uint64_t)seed).run(40000);
    t.validate();

    // x86-like aggregates must hold for any seed.
    double uops_per_inst = (double)t.totalUops() / t.numRecords();
    EXPECT_GT(uops_per_inst, 1.2);
    EXPECT_LT(uops_per_inst, 2.2);

    uint64_t branches = 0, taken = 0, controls = 0;
    for (std::size_t i = 0; i < t.numRecords(); ++i) {
        const auto &si = t.inst(i);
        if (si.isControl())
            ++controls;
        if (si.cls == InstClass::CondBranch) {
            ++branches;
            taken += t.record(i).taken;
        }
    }
    // Conditional branches: 8-25% of the stream; controls below 40%.
    EXPECT_GT((double)branches / t.numRecords(), 0.05);
    EXPECT_LT((double)branches / t.numRecords(), 0.25);
    EXPECT_LT((double)controls / t.numRecords(), 0.40);
    // Taken fraction within a plausible band.
    EXPECT_GT((double)taken / branches, 0.35);
    EXPECT_LT((double)taken / branches, 0.95);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ProfileSweep,
    testing::Values(std::make_pair("spec", 1),
                    std::make_pair("spec", 2),
                    std::make_pair("sysmark", 1),
                    std::make_pair("sysmark", 2),
                    std::make_pair("games", 1),
                    std::make_pair("games", 2)),
    [](const auto &info) {
        return std::string(info.param.first) +
               std::to_string(info.param.second);
    });

TEST(Catalog, SuiteFootprintOrdering)
{
    // SYSmark32-like workloads must have the largest dynamic code
    // footprints and SPECint95-like the smallest (DESIGN.md suite
    // calibration); measured as unique uops touched in 150K insts.
    auto dyn_uops = [](const std::string &name) {
        Trace t = makeCatalogTrace(name, 150000);
        std::vector<bool> seen(t.code().size(), false);
        uint64_t uops = 0;
        for (std::size_t i = 0; i < t.numRecords(); ++i) {
            if (!seen[t.record(i).staticIdx]) {
                seen[t.record(i).staticIdx] = true;
                uops += t.inst(i).numUops;
            }
        }
        return uops;
    };
    auto suite_mean = [&](std::initializer_list<const char *> names) {
        uint64_t sum = 0;
        for (const char *n : names)
            sum += dyn_uops(n);
        return (double)sum / (double)names.size();
    };
    double spec = suite_mean({"go", "li", "vortex"});
    double sysm = suite_mean({"word", "excel", "netscape"});
    double games = suite_mean({"quake2", "unreal", "halflife"});
    EXPECT_GT(sysm, games);
    EXPECT_GT(games, spec * 0.8);
    EXPECT_GT(sysm, spec * 1.5);
}

TEST(Catalog, HasTwentyOneWorkloadsInThreeSuites)
{
    const auto &cat = workloadCatalog();
    ASSERT_EQ(cat.size(), 21u);
    int spec = 0, sys = 0, games = 0;
    for (const auto &e : cat) {
        if (e.suite == "SPECint95")
            ++spec;
        else if (e.suite == "SYSmark32")
            ++sys;
        else if (e.suite == "Games")
            ++games;
    }
    EXPECT_EQ(spec, 8);
    EXPECT_EQ(sys, 8);
    EXPECT_EQ(games, 5);
}

TEST(Catalog, FindByName)
{
    EXPECT_EQ(findWorkload("gcc").suite, "SPECint95");
    EXPECT_EQ(findWorkload("quake2").suite, "Games");
    EXPECT_EXIT(findWorkload("nosuch"), testing::ExitedWithCode(1),
                "unknown workload");
}

TEST(Catalog, FindExReturnsStatusForUnknown)
{
    Expected<const CatalogEntry *> e = findWorkloadEx("nosuch");
    ASSERT_FALSE(e.ok());
    EXPECT_NE(e.status().cause().find("unknown workload 'nosuch'"),
              std::string::npos);

    Expected<const CatalogEntry *> ok = findWorkloadEx("gcc");
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value()->suite, "SPECint95");
}

TEST(Catalog, WorkloadNamesEnumerateWholeCatalog)
{
    std::vector<std::string> names = catalogWorkloadNames();
    EXPECT_EQ(names.size(), workloadCatalog().size());
    EXPECT_EQ(names.size(), 21u);
    EXPECT_EQ(names.front(), "go");
    EXPECT_EQ(names.back(), "falcon4");
}

TEST(Catalog, TraceLengthHonored)
{
    Trace t = makeCatalogTrace("compress", 5000);
    EXPECT_EQ(t.numRecords(), 5000u);
    t.validate();
}

/** Every catalog workload must produce a valid, varied trace. */
class CatalogParam : public testing::TestWithParam<std::string>
{
};

TEST_P(CatalogParam, ShortTraceIsValid)
{
    Trace t = makeCatalogTrace(GetParam(), 20000);
    t.validate();
    EXPECT_EQ(t.numRecords(), 20000u);

    auto s = computeBlockLengthStats(t);
    // Block lengths must land in a plausible x86-like range.
    EXPECT_GT(s.basicBlock.mean(), 3.0);
    EXPECT_LT(s.basicBlock.mean(), 14.0);
    EXPECT_GE(s.xb.mean(), s.basicBlock.mean() - 0.01);
    EXPECT_GE(s.xbPromoted.mean(), s.xb.mean() - 0.01);
    EXPECT_GE(s.dualXb.mean(), s.xb.mean());
}

/**
 * SHA-256 of what catalog workload @p name generates: its program
 * image (every instruction's ip, length, numUops, cls, takenIdx and
 * behaviorId), its first 100K records (staticIdx, taken) and their
 * totalUops, each field little-endian at its serialized width.
 */
std::string
generatorDigest(const std::string &name)
{
    const Trace t = makeCatalogTrace(name, 100000);
    Sha256 h;
    auto put = [&h](uint64_t v, unsigned bytes) {
        uint8_t b[8];
        for (unsigned i = 0; i < bytes; ++i)
            b[i] = uint8_t(v >> (8 * i));
        h.update(b, bytes);
    };
    const StaticCode &code = t.code();
    put(code.size(), 8);
    for (std::size_t i = 0; i < code.size(); ++i) {
        const StaticInst &si = code.inst((int32_t)i);
        put(si.ip, 8);
        put(si.length, 1);
        put(si.numUops, 1);
        put((uint8_t)si.cls, 1);
        put((uint32_t)si.takenIdx, 4);
        put((uint32_t)si.behaviorId, 4);
    }
    put(t.numRecords(), 8);
    for (std::size_t i = 0; i < t.numRecords(); ++i) {
        put((uint32_t)t.record(i).staticIdx, 4);
        put(t.record(i).taken, 1);
    }
    put(t.totalUops(), 8);
    return h.hexDigest();
}

struct GoldenDigest
{
    const char *workload;
    const char *sha256;
};

/** generatorDigest() of every catalog workload, recorded before the
 *  4-byte trace record and the block-stepping executor: the generator
 *  must stay bit-for-bit what it was. */
const GoldenDigest kGoldenDigests[] = {
    {"go",
     "7cb63e0a2f53a2bfd4dce0359a12639fcafe5c32bb055d34cde72f6521234ead"},
    {"m88ksim",
     "94e93c42f1b53867bde461b65f38380a9428190b2ab8d8b2c39bb82229e462c8"},
    {"gcc",
     "85b66652cfbeefc4125628f0dfdcb167a79bf33ef0821fffded3204dcd9817ba"},
    {"compress",
     "c571ea125c88131c556ca4731c69a6f70650baa8306c37bad85a3cbd6e39febd"},
    {"li",
     "a8a72fed8ab85707369f52fa02191ebca73ca8950306775698b2ac5ffc381872"},
    {"ijpeg",
     "bd07daf9e5f5b929f12c27bedd3d8b0d80c7ecb26f1887e74288bdc824a526d1"},
    {"perl",
     "368ab7b24391943e74b6b9659efa9bf7ea5fc98586e0f9611c6fcdbda6f70f80"},
    {"vortex",
     "2f4c5de6a540a8daddbdf6b388210d558f977d362b4bc16bc082510e80ac75af"},
    {"word",
     "077207998f82e62fcd1151ec41444b04a7136f2b77f936fd4dd4805c103d90de"},
    {"excel",
     "cdc065ab5f13806edb2076c241d2ebfd5a865675afb23766114daa571a7251d4"},
    {"powerpnt",
     "af0c44da5d5964c511d5ffad4ea75c3b6ca73b18961516d4827fc5995b22d9a6"},
    {"access",
     "c9d04bacd89cea286dd12359ba924d219d46fb5261ff6d5fe4f38644c9c68ec0"},
    {"corel",
     "f6deddbf9bc402c7c30dea89a1713fbe3299a756c05f77484c0f471218694d06"},
    {"photoshp",
     "6494d9b4f56079fcc55eea362961fc688c52f48c00e4bb76f450d166fcb841e0"},
    {"premiere",
     "a2085cd57f11df98d74f6d79c26412ef7f4274918b501e8697e372047c7350f1"},
    {"netscape",
     "7ba207f59c55bf592ad0725ca7e56594a18ef447f1df1ae28618df10eeb8e982"},
    {"quake2",
     "6cc32829b39874b3e67595a9f5ab8f874434a7483e5c6cb569d8fb30ce52bdb1"},
    {"unreal",
     "2a1413c00733b6f563827d08258abd8be60358765ab6392efeb7080803995d6c"},
    {"halflife",
     "43738e7ee501db5843b2c1b2b0df76a908d71c1f968415f36b8bfc66cf5a2f1f"},
    {"descent3",
     "f18a3d1d25311adc5329cd98e5cf104521952846d483bfead25246dc2118c0d4"},
    {"falcon4",
     "29fce9dc52386c06fe0cccdd2f30d9a816f6b39abb708b1a83efcd481b68a571"},
};

TEST(CatalogGolden, GeneratorIsPinnedBitForBit)
{
    ASSERT_EQ(std::size(kGoldenDigests), workloadCatalog().size());
    for (const GoldenDigest &g : kGoldenDigests)
        EXPECT_EQ(generatorDigest(g.workload), g.sha256) << g.workload;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, CatalogParam,
    testing::Values("go", "m88ksim", "gcc", "compress", "li", "ijpeg",
                    "perl", "vortex", "word", "excel", "powerpnt",
                    "access", "corel", "photoshp", "premiere",
                    "netscape", "quake2", "unreal", "halflife",
                    "descent3", "falcon4"));

} // anonymous namespace
} // namespace xbs
