/**
 * @file
 * Warm-state checkpoint/restore tests: container integrity (every
 * single-bit flip detected), the corrupt-file corpus, per-frontend
 * bit-exact restore via the divergence oracle, identity and build
 * gating, ckpt-flip fault injection, and the bounds of the XBC data
 * array's inline storage.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "ckpt/serial.hh"
#include "common/bitops.hh"
#include "core/xbc_frontend.hh"
#include "prof/build_info.hh"
#include "sim/ckpt_io.hh"
#include "sim/config.hh"
#include "verify/divergence.hh"
#include "verify/inject.hh"
#include "workload/catalog.hh"

namespace xbs
{
namespace
{

std::string
dataPath(const std::string &name)
{
    return std::string(XBS_TEST_DATA_DIR) + "/" + name;
}

/** A small container with deterministic content for flip tests. */
std::string
tinyContainer()
{
    CheckpointWriter w;
    w.addSection("alpha", "first-section-payload");
    w.addSection("beta", std::string(64, '\x5a'));
    return w.encode();
}

TEST(CkptSerial, SinkSourceRoundtrip)
{
    CkptSink sink;
    sink.u8(0xab);
    sink.u16(0xbeef);
    sink.u32(0xdeadbeefu);
    sink.u64(0x0123456789abcdefull);
    sink.i32(-7);
    sink.i64(-1234567890123ll);
    sink.b(true);
    sink.f64(3.141592653589793);
    sink.str("hello");

    CkptSource src(sink.bytes());
    EXPECT_EQ(src.u8(), 0xab);
    EXPECT_EQ(src.u16(), 0xbeef);
    EXPECT_EQ(src.u32(), 0xdeadbeefu);
    EXPECT_EQ(src.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(src.i32(), -7);
    EXPECT_EQ(src.i64(), -1234567890123ll);
    EXPECT_TRUE(src.b());
    EXPECT_EQ(src.f64(), 3.141592653589793);
    EXPECT_EQ(src.str(), "hello");
    EXPECT_TRUE(src.ok());
    EXPECT_TRUE(src.consumed());
}

TEST(CkptContainer, Roundtrip)
{
    const std::string bytes = tinyContainer();
    Expected<CheckpointFile> file = parseCheckpoint(bytes);
    ASSERT_TRUE(file.ok()) << file.status().toString();
    ASSERT_NE(file.value().section("alpha"), nullptr);
    ASSERT_NE(file.value().section("beta"), nullptr);
    EXPECT_EQ(*file.value().section("alpha"),
              "first-section-payload");
    EXPECT_EQ(file.value().section("gamma"), nullptr);
    EXPECT_EQ(file.value().sections().size(), 2u);
}

// The format's core guarantee, asserted exhaustively: flipping ANY
// single bit of a container makes the parse fail with a typed
// status. Every byte is covered by the magic/version check, a
// section CRC, or the guard hash.
TEST(CkptContainer, EverySingleBitFlipDetected)
{
    const std::string good = tinyContainer();
    ASSERT_TRUE(parseCheckpoint(good).ok());
    for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
        std::string bad = good;
        bad[bit / 8] ^= (char)(1 << (bit % 8));
        Expected<CheckpointFile> file = parseCheckpoint(bad);
        EXPECT_FALSE(file.ok()) << "undetected flip at bit " << bit;
    }
}

TEST(CkptContainer, TruncationAtEveryLengthDetected)
{
    const std::string good = tinyContainer();
    for (std::size_t len = 0; len < good.size(); ++len) {
        Expected<CheckpointFile> file =
            parseCheckpoint(good.substr(0, len));
        EXPECT_FALSE(file.ok()) << "undetected truncation at " << len;
    }
}

TEST(CkptCorpus, ValidContainerParses)
{
    Expected<CheckpointFile> file =
        readCheckpointFile(dataPath("ckpt_valid_container.xbckpt"));
    ASSERT_TRUE(file.ok())
        << "corpus generator and reader disagree on the format: "
        << file.status().toString();
}

TEST(CkptCorpus, CorruptFilesRejected)
{
    const char *names[] = {
        "ckpt_trunc_header.xbckpt",  "ckpt_bad_magic.xbckpt",
        "ckpt_bad_version.xbckpt",   "ckpt_trunc_section.xbckpt",
        "ckpt_bad_crc.xbckpt",       "ckpt_bad_guard.xbckpt",
    };
    for (const char *name : names) {
        Expected<CheckpointFile> file =
            readCheckpointFile(dataPath(name));
        EXPECT_FALSE(file.ok()) << name << " was accepted";
        if (!file.ok()) {
            EXPECT_EQ(file.status().code(), StatusCode::Corrupt)
                << name << ": " << file.status().toString();
        }
    }
}

TEST(CkptCorpus, MissingFileIsNotFound)
{
    Expected<CheckpointFile> file =
        readCheckpointFile(dataPath("no_such_checkpoint.xbckpt"));
    ASSERT_FALSE(file.ok());
    EXPECT_EQ(file.status().code(), StatusCode::NotFound);
}

TEST(CkptMetaTest, EncodeDecodeRoundtrip)
{
    RunSpec spec;
    spec.frontend = "tc";
    spec.workload = "gcc";
    spec.insts = 12345;
    spec.capacity = 4096;
    spec.ways = 2;
    const Trace trace = makeCatalogTrace("gcc", 2000);
    const CkptMeta meta = makeCkptMeta(spec, trace, 777);

    Expected<CkptMeta> back = decodeCkptMeta(encodeCkptMeta(meta));
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back.value().frontend, "tc");
    EXPECT_EQ(back.value().workload, "gcc");
    EXPECT_EQ(back.value().insts, 12345u);
    EXPECT_EQ(back.value().cycle, 777u);
    EXPECT_EQ(back.value().traceName, trace.name());
    EXPECT_EQ(back.value().numRecords, trace.numRecords());
    EXPECT_EQ(back.value().specDigest, meta.specDigest);
    EXPECT_EQ(back.value().buildType, buildInfo().buildType);
}

TEST(CkptMetaTest, BuildGateRejectsMismatch)
{
    RunSpec spec;
    const Trace trace = makeCatalogTrace("gcc", 2000);
    CkptMeta meta = makeCkptMeta(spec, trace, 0);
    EXPECT_TRUE(checkCkptBuild(meta, buildInfo().buildType,
                               buildInfo().sanitized)
                    .isOk());
    EXPECT_FALSE(checkCkptBuild(meta, buildInfo().buildType,
                                !buildInfo().sanitized)
                     .isOk());
    meta.buildType = "SomeOtherBuildType";
    Status st = checkCkptBuild(meta, buildInfo().buildType,
                               buildInfo().sanitized);
    EXPECT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), StatusCode::Corrupt);
}

struct FrontendCase
{
    const char *flag;
    SimConfig config;
};

std::vector<FrontendCase>
allFrontends()
{
    return {
        {"ic", SimConfig::icBaseline()},
        {"dc", SimConfig::dcBaseline(8192)},
        {"tc", SimConfig::tcBaseline(8192, 2)},
        {"bbtc", SimConfig::bbtcBaseline(8192)},
        {"xbc", SimConfig::xbcBaseline(8192, 2)},
    };
}

RunSpec
specFor(const char *flag)
{
    RunSpec spec;
    spec.frontend = flag;
    spec.workload = "gcc";
    spec.insts = 30000;
    spec.capacity = 8192;
    spec.ways = 0;
    return spec;
}

/** Cut a real checkpoint of @p flag's frontend in memory. */
std::string
captureCheckpoint(const FrontendCase &fc, const Trace &trace,
                  RunSpec spec, uint64_t at = 2000)
{
    std::string bytes;
    auto fe = makeFrontend(fc.config);
    fe->armCheckpoint(at, [&](Frontend &f) -> Status {
        bytes = encodeCheckpoint(
            f, makeCkptMeta(spec, trace,
                            f.metrics().cycles.value()));
        return Status::ok();
    });
    fe->run(trace);
    EXPECT_TRUE(fe->checkpointTaken());
    return bytes;
}

/** The pending stall cycles a checkpoint's "loop" section parked. */
uint32_t
parkedStall(const std::string &bytes)
{
    Expected<CheckpointFile> f = parseCheckpoint(bytes);
    EXPECT_TRUE(f.ok());
    const std::string *loop = f.ok() ? f.value().section("loop")
                                     : nullptr;
    EXPECT_NE(loop, nullptr);
    if (!loop)
        return 0;
    CkptSource src(*loop);
    src.u64();  // rec
    src.u32();  // mode
    src.u32();  // buffer
    return src.u32();
}

// The tentpole guarantee, per frontend: a run restored from a
// mid-run checkpoint finishes with BIT-IDENTICAL metrics (headline
// numbers at full precision, the attribution report, and the entire
// stat tree) and passes the post-restore structural audit. Eleven
// consecutive cuts land in delivery, build and bubble cycles alike:
// the IC stalls on about a third of its cycles on gcc, so at least
// one of its cuts must park with a bubble pending.
TEST(CkptDivergence, RestoreIsBitExactOnEveryFrontend)
{
    const Trace trace = makeCatalogTrace("gcc", 30000);
    for (const FrontendCase &fc : allFrontends()) {
        const bool is_ic = std::string(fc.flag) == "ic";
        bool parked_in_bubble = false;
        for (uint64_t at = 2000; at <= 2010; ++at) {
            Expected<DivergenceReport> rep = runDivergenceOracle(
                fc.config, specFor(fc.flag), trace, at);
            ASSERT_TRUE(rep.ok()) << fc.flag << "@" << at << ": "
                                  << rep.status().toString();
            EXPECT_EQ(rep.value().auditViolations, 0u)
                << fc.flag << "@" << at;
            EXPECT_TRUE(rep.value().identical)
                << fc.flag << "@" << at
                << " diverged: " << rep.value().detail;
            // The loop advances one cycle at a time, so the cut
            // fires exactly where it was armed.
            EXPECT_EQ(rep.value().cutCycle, at) << fc.flag;
            EXPECT_GT(rep.value().checkpointBytes, 0u) << fc.flag;
            if (is_ic) {
                parked_in_bubble |=
                    parkedStall(captureCheckpoint(
                        fc, trace, specFor(fc.flag), at)) > 0;
            }
        }
        if (is_ic) {
            EXPECT_TRUE(parked_in_bubble);
        }
    }
}

// The XBC's host caches (XBTB hints, the promotion memo) are not
// checkpointed, so the restored run starts without them while the
// original keeps its own: the two must still finish bit-identical.
// compress retries, after the cut, promotions that failed before it;
// a memo that outlived an array change would skip those retries.
TEST(CkptDivergence, XbcHostCachesDoNotChangeResults)
{
    RunSpec spec = specFor("xbc");
    spec.workload = "compress";
    spec.insts = 700000;
    spec.capacity = 32768;
    const Trace trace = makeCatalogTrace(spec.workload, spec.insts);
    Expected<DivergenceReport> rep = runDivergenceOracle(
        SimConfig::xbcBaseline(), spec, trace, 100000);
    ASSERT_TRUE(rep.ok()) << rep.status().toString();
    EXPECT_TRUE(rep.value().identical) << rep.value().detail;
}

TEST(CkptDivergence, UnreachableCheckpointCycleIsAnError)
{
    const Trace trace = makeCatalogTrace("gcc", 2000);
    Expected<DivergenceReport> rep =
        runDivergenceOracle(SimConfig::xbcBaseline(8192, 2),
                            specFor("xbc"), trace, 1u << 30);
    EXPECT_FALSE(rep.ok());
}

// ckpt-flip injection: every seeded random single-bit flip of a real
// frontend checkpoint must be rejected on the full restore path.
TEST(CkptInject, SeededFlipsAlwaysRejected)
{
    const Trace trace = makeCatalogTrace("gcc", 30000);
    FrontendCase fc{"xbc", SimConfig::xbcBaseline(8192, 2)};
    const RunSpec spec = specFor("xbc");
    const std::string good = captureCheckpoint(fc, trace, spec);
    ASSERT_FALSE(good.empty());
    ASSERT_TRUE(parseCheckpoint(good).ok());

    Expected<InjectPlan> plan = parseInjectSpec("ckpt-flip");
    ASSERT_TRUE(plan.ok());
    for (uint64_t seed = 1; seed <= 64; ++seed) {
        FaultInjector injector(plan.value(), seed);
        const std::string bad =
            injector.prepareCheckpointBytes(good);
        EXPECT_EQ(injector.injections(), 1u);
        EXPECT_NE(bad, good);
        Expected<CheckpointFile> file = parseCheckpoint(bad);
        EXPECT_FALSE(file.ok()) << "seed " << seed << " undetected";
        if (!file.ok()) {
            EXPECT_EQ(file.status().code(), StatusCode::Corrupt);
        }
    }
}

/**
 * An XBC data-array payload: @p lines cold lines (line 0 holding
 * @p line0_slots slots) and one variant filed under @p key, with
 * tag @p tag, @p num_lines line uses and @p seq_len uops.
 */
std::string
arrayPayload(std::size_t lines, unsigned line0_slots, uint64_t key,
             uint64_t tag, unsigned num_lines, unsigned seq_len)
{
    CkptSink s;
    auto slots = [&s](unsigned n) {
        s.u64(n);
        for (unsigned i = 0; i < n; ++i) {
            s.i32(0);
            s.u8(0);
        }
    };
    s.u64(lines);
    for (std::size_t i = 0; i < lines; ++i) {
        s.b(false);
        s.u64(0);
        s.u64(0);
        s.u32(0);
        slots(i == 0 ? line0_slots : 0);
    }
    s.u64(1);  // one directory key
    s.u64(key);
    s.u64(1);  // one variant
    s.u64(tag);
    s.u32(1);
    s.u64(num_lines);
    for (unsigned i = 0; i < num_lines; ++i) {
        s.u8(0);
        s.u8(0);
        s.u16(1);
    }
    slots(seq_len);
    s.u64(0);  // LRU clock
    return s.take();
}

/**
 * A real XBC checkpoint (gcc, 8K, cut at cycle 2000) and the place in
 * its 'xbc' section where one unit's state sits, so a test can splice
 * in a crafted payload re-sealed with valid CRCs.
 */
struct XbcSplice
{
    using SaveUnit = std::function<void(const XbcFrontend &, CkptSink &)>;

    explicit XbcSplice(const SaveUnit &save_unit)
        : trace(makeCatalogTrace("gcc", 30000)),
          config(SimConfig::xbcBaseline(8192, 2)), spec(specFor("xbc"))
    {
        std::string bytes;
        auto fe = makeFrontend(config);
        fe->armCheckpoint(2000, [&](Frontend &f) -> Status {
            bytes = encodeCheckpoint(
                f, makeCkptMeta(spec, trace, f.metrics().cycles.value()));
            CkptSink sink;
            save_unit(static_cast<XbcFrontend &>(f), sink);
            unit = sink.take();
            return Status::ok();
        });
        fe->run(trace);
        Expected<CheckpointFile> parsed = parseCheckpoint(bytes);
        EXPECT_TRUE(parsed.ok());
        file = parsed.take();
        xbc = *file.section("xbc");
        at = xbc.find(unit);
        EXPECT_NE(at, std::string::npos);
        EXPECT_EQ(xbc.find(unit, at + 1), std::string::npos);
    }

    /** Restore a fresh frontend with @p payload as the unit's state. */
    Status
    restoreWith(const std::string &payload) const
    {
        std::string doctored = xbc;
        doctored.replace(at, unit.size(), payload);
        CheckpointWriter w;
        for (const auto &kv : file.sections())
            w.addSection(kv.first,
                         kv.first == "xbc" ? doctored : kv.second);
        Expected<CheckpointFile> sealed = parseCheckpoint(w.encode());
        EXPECT_TRUE(sealed.ok()) << sealed.status().toString();
        auto warm = makeFrontend(config);
        return restoreCheckpoint(*warm, sealed.value(), spec, trace);
    }

    Trace trace;
    SimConfig config;
    RunSpec spec;
    CheckpointFile file;
    std::string xbc;   ///< the 'xbc' section as saved
    std::string unit;  ///< the unit's state within it
    std::size_t at = 0;
};

// The data array's storage is inline and fixed by the geometry, so a
// checkpoint that does not fit it must fail as Corrupt before the
// load writes anything: a container with valid CRCs whose 'xbc'
// section carries an oversized line, variant or sequence, or a
// variant filed under another tag.
TEST(CkptBounds, OversizedXbcArrayStateRejected)
{
    std::size_t lines = 0;
    XbcSplice splice([&](const XbcFrontend &fe, CkptSink &sink) {
        fe.dataArray().ckptSave(sink);
        lines = fe.dataArray().lineCount();
    });

    const XbcParams &p = splice.config.xbc;
    const uint64_t key = 0x400000;
    // Control: the same splice within every bound restores.
    EXPECT_TRUE(splice
                    .restoreWith(arrayPayload(lines, p.bankUops, key, key,
                                              p.numBanks, p.xbQuotaUops))
                    .isOk());
    const std::string bad[] = {
        arrayPayload(lines, p.bankUops + 1, key, key, 1, 1),
        arrayPayload(lines, 0, key, key, p.numBanks + 1, 1),
        arrayPayload(lines, 0, key, key, 1, p.xbQuotaUops + 1),
        arrayPayload(lines, 0, key, key + 1, 1, 1),
    };
    for (const std::string &payload : bad) {
        Status st = splice.restoreWith(payload);
        EXPECT_FALSE(st.isOk());
        EXPECT_EQ(st.code(), StatusCode::Corrupt) << st.toString();
    }
}

/** An XBTB payload of @p entries cold entries except the first two
 *  ways of set 0, valid with tags @p ip0 and @p ip1. */
std::string
xbtbPayload(std::size_t entries, uint64_t ip0, uint64_t ip1)
{
    CkptSink s;
    auto pointer = [&s] {
        s.b(false);
        s.u64(0);
        s.u32(0);
        s.i32(kNoTarget);
    };
    s.u64(entries);
    for (std::size_t i = 0; i < entries; ++i) {
        s.b(i < 2);
        s.u64(i == 0 ? ip0 : i == 1 ? ip1 : 0);
        s.u64(i < 2 ? i + 1 : 0);  // LRU stamp
        s.u8((uint8_t)InstClass::CondBranch);
        pointer();
        pointer();
        s.u8(64);  // bias counter
        s.b(false);
        s.b(false);
        pointer();
    }
    s.u64(2);  // LRU clock
    return s.take();
}

// An XBTB hint is valid only because one IP holds at most one entry:
// a restore that files an IP in two ways of a set (where find() would
// silently pick the first) fails as Corrupt.
TEST(CkptBounds, DuplicateXbtbTagRejected)
{
    std::size_t entries = 0;
    unsigned sets = 0;
    XbcSplice splice([&](const XbcFrontend &fe, CkptSink &sink) {
        fe.xbtbUnit().ckptSave(sink);
        entries = fe.xbtbUnit().entryCount();
        sets = fe.xbtbUnit().numSets();
    });
    // Two IPs that index set 0, where the payload files them.
    std::vector<uint64_t> ips;
    for (uint64_t ip = 0x400000; ips.size() < 2; ++ip) {
        if (foldedIndex(ip, sets) == 0)
            ips.push_back(ip);
    }
    // Control: two different tags in one set restore.
    EXPECT_TRUE(
        splice.restoreWith(xbtbPayload(entries, ips[0], ips[1])).isOk());
    Status st = splice.restoreWith(xbtbPayload(entries, ips[0], ips[0]));
    EXPECT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), StatusCode::Corrupt) << st.toString();
}

/**
 * Restore a fresh TC from a real gcc checkpoint whose 'loop' section
 * @p edit rewrote, re-sealed with valid CRCs and guard hash.
 */
Status
restoreWithLoop(const std::function<void(RunLoopState &)> &edit)
{
    const Trace trace = makeCatalogTrace("gcc", 30000);
    const FrontendCase tc{"tc", SimConfig::tcBaseline(8192, 2)};
    Expected<CheckpointFile> file = parseCheckpoint(
        captureCheckpoint(tc, trace, specFor("tc")));
    EXPECT_TRUE(file.ok());
    CkptSource src(*file.value().section("loop"));
    RunLoopState st;
    st.rec = src.u64();
    st.mode = src.u32();
    st.buffer = src.u32();
    st.stall = src.u32();
    EXPECT_TRUE(src.consumed());
    edit(st);
    CkptSink loop;
    loop.u64(st.rec);
    loop.u32(st.mode);
    loop.u32(st.buffer);
    loop.u32(st.stall);

    CheckpointWriter w;
    for (const auto &kv : file.value().sections())
        w.addSection(kv.first, kv.first == "loop" ? loop.take() : kv.second);
    Expected<CheckpointFile> sealed = parseCheckpoint(w.encode());
    EXPECT_TRUE(sealed.ok()) << sealed.status().toString();
    auto warm = makeFrontend(tc.config);
    return restoreCheckpoint(*warm, sealed.value(), specFor("tc"), trace);
}

/** The loop limits of the TC restoreWithLoop() restores. */
RunLoopState
tcLimits()
{
    return makeFrontend(SimConfig::tcBaseline(8192, 2))->limits();
}

void
expectLoopCorrupt(const Status &st, const std::string &field)
{
    EXPECT_EQ(st.code(), StatusCode::Corrupt) << st.toString();
    EXPECT_NE(st.cause().find("'loop' " + field), std::string::npos)
        << st.toString();
}

// A crafted, well-formed checkpoint must not resume the cycle loop
// where no run can be at a cycle boundary. A stall rewritten to
// 400,000,000 once restored and reported 400,075,010 cycles; each
// field past its limit now fails as Corrupt, naming the field, and
// at its limit still restores.
TEST(CkptBounds, LoopStallBeyondLimitRejected)
{
    const uint32_t limit = tcLimits().stall;
    EXPECT_EQ(limit, 80u);  // two L2 misses of a line-straddling inst
    expectLoopCorrupt(
        restoreWithLoop([](RunLoopState &st) { st.stall = 400000000; }),
        "stall");
    expectLoopCorrupt(
        restoreWithLoop([&](RunLoopState &st) { st.stall = limit + 1; }),
        "stall");
    EXPECT_TRUE(
        restoreWithLoop([&](RunLoopState &st) { st.stall = limit; })
            .isOk());
}

TEST(CkptBounds, LoopBufferBeyondLimitRejected)
{
    const uint32_t limit = tcLimits().buffer;
    EXPECT_EQ(limit, 15u);  // one 16-uop trace line, less one
    expectLoopCorrupt(
        restoreWithLoop([](RunLoopState &st) { st.buffer = 400000000; }),
        "buffer");
    expectLoopCorrupt(
        restoreWithLoop([&](RunLoopState &st) { st.buffer = limit + 1; }),
        "buffer");
    EXPECT_TRUE(
        restoreWithLoop([&](RunLoopState &st) { st.buffer = limit; })
            .isOk());
}

TEST(CkptBounds, LoopModeNotZeroOrOneRejected)
{
    expectLoopCorrupt(
        restoreWithLoop([](RunLoopState &st) { st.mode = 2; }), "mode");
    expectLoopCorrupt(
        restoreWithLoop([](RunLoopState &st) { st.mode = 400000000; }),
        "mode");
    for (uint32_t mode : {0u, 1u}) {
        EXPECT_TRUE(
            restoreWithLoop([&](RunLoopState &st) { st.mode = mode; })
                .isOk());
    }
}

// A checkpoint must only restore the exact cell it was cut from:
// wrong frontend kind, wrong trace, or a doctored spec all fail as
// Corrupt before any state is touched.
TEST(CkptIdentity, CrossFrontendRestoreRejected)
{
    const Trace trace = makeCatalogTrace("gcc", 30000);
    FrontendCase tc{"tc", SimConfig::tcBaseline(8192, 2)};
    const std::string bytes =
        captureCheckpoint(tc, trace, specFor("tc"));
    Expected<CheckpointFile> file = parseCheckpoint(bytes);
    ASSERT_TRUE(file.ok());

    auto xbc = makeFrontend(SimConfig::xbcBaseline(8192, 2));
    Status st = restoreCheckpoint(*xbc, file.value(),
                                  specFor("xbc"), trace);
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), StatusCode::Corrupt);

    // Even bypassing the meta gate, the self-describing stat tree
    // refuses to load into the wrong frontend.
    auto xbc2 = makeFrontend(SimConfig::xbcBaseline(8192, 2));
    Status raw = xbc2->restoreState(file.value());
    EXPECT_FALSE(raw.isOk());
}

TEST(CkptIdentity, WrongTraceRejected)
{
    const Trace trace = makeCatalogTrace("gcc", 30000);
    FrontendCase fc{"xbc", SimConfig::xbcBaseline(8192, 2)};
    const std::string bytes =
        captureCheckpoint(fc, trace, specFor("xbc"));
    Expected<CheckpointFile> file = parseCheckpoint(bytes);
    ASSERT_TRUE(file.ok());

    const Trace other = makeCatalogTrace("gcc", 31000);
    auto fe = makeFrontend(fc.config);
    Status st = restoreCheckpoint(*fe, file.value(),
                                  specFor("xbc"), other);
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), StatusCode::Corrupt);
}

// Restoring build-incompatible state fails through the full
// restoreCheckpoint path (meta is re-encoded with a doctored build
// type; container integrity stays intact, so only the gate fires).
TEST(CkptIdentity, BuildMismatchRejectedOnRestorePath)
{
    const Trace trace = makeCatalogTrace("gcc", 30000);
    FrontendCase fc{"xbc", SimConfig::xbcBaseline(8192, 2)};
    const std::string bytes =
        captureCheckpoint(fc, trace, specFor("xbc"));
    Expected<CheckpointFile> file = parseCheckpoint(bytes);
    ASSERT_TRUE(file.ok());

    Expected<CkptMeta> meta =
        decodeCkptMeta(*file.value().section("meta"));
    ASSERT_TRUE(meta.ok());
    CkptMeta doctored = meta.take();
    doctored.buildType = "NotThisBuildType";

    CheckpointWriter w;
    w.addSection("meta", encodeCkptMeta(doctored));
    for (const auto &kv : file.value().sections()) {
        if (kv.first != "meta")
            w.addSection(kv.first, kv.second);
    }
    Expected<CheckpointFile> redone = parseCheckpoint(w.encode());
    ASSERT_TRUE(redone.ok()) << redone.status().toString();

    auto fe = makeFrontend(fc.config);
    Status st = restoreCheckpoint(*fe, redone.value(),
                                  specFor("xbc"), trace);
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), StatusCode::Corrupt);
}

} // anonymous namespace
} // namespace xbs
