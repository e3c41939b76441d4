/**
 * @file
 * Robustness tests for the binary trace reader/writer: every file in
 * the malformed corpus under tests/data/ (gen_trace_corpus.py) must
 * come back as a structured Status (never an abort or UB), with the
 * cause naming the defect and the byte offset populated; a flipped
 * byte anywhere in a file, including one that still parses, must be
 * rejected; traces larger than the reader's buffer must round-trip
 * exactly; and the writer must refuse values the format cannot
 * represent instead of silently wrapping.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "common/status.hh"
#include "test_helpers.hh"
#include "trace/trace_io.hh"

#ifndef XBS_TEST_DATA_DIR
#error "XBS_TEST_DATA_DIR must point at tests/data"
#endif

namespace xbs
{
namespace
{

std::string
dataPath(const std::string &file)
{
    return std::string(XBS_TEST_DATA_DIR) + "/" + file;
}

/** Read a corpus file, assert a structured error whose cause
 *  mentions @p expect_substr. */
void
expectCorrupt(const std::string &file, const std::string &expect_substr)
{
    SCOPED_TRACE(file);
    Expected<Trace> t = readTraceEx(dataPath(file));
    ASSERT_FALSE(t.ok()) << "corrupt file parsed successfully";
    const Status &st = t.status();
    EXPECT_NE(st.toString().find(expect_substr), std::string::npos)
        << "error was: " << st.toString();
    // Every corpus defect sits at a known place in the byte stream.
    EXPECT_TRUE(st.offset().has_value())
        << "error carries no byte offset: " << st.toString();
}

TEST(TraceIoCorpus, ValidControlParses)
{
    Expected<Trace> t = readTraceEx(dataPath("valid_min.xbt"));
    ASSERT_TRUE(t.ok()) << t.status().toString();
    Trace trace = t.take();
    EXPECT_EQ(trace.name(), "mini");
    EXPECT_EQ(trace.numRecords(), 2u);
    EXPECT_EQ(trace.totalUops(), 2u);
}

TEST(TraceIoCorpus, MissingFile)
{
    Expected<Trace> t = readTraceEx(dataPath("no_such_file.xbt"));
    ASSERT_FALSE(t.ok());
    EXPECT_NE(t.status().toString().find("cannot open"),
              std::string::npos);
}

TEST(TraceIoCorpus, EmptyFile)
{
    expectCorrupt("empty.xbt", "not an XBT2 trace");
}

TEST(TraceIoCorpus, BadMagic)
{
    expectCorrupt("bad_magic.xbt", "not an XBT2 trace");
}

TEST(TraceIoCorpus, TruncatedHeader)
{
    expectCorrupt("trunc_header.xbt", "not an XBT2 trace");
}

TEST(TraceIoCorpus, TruncatedName)
{
    expectCorrupt("trunc_name.xbt", "name length 100");
}

TEST(TraceIoCorpus, NameBeyondFormatCap)
{
    expectCorrupt("huge_name.xbt", "exceeds the format limit");
}

TEST(TraceIoCorpus, OversizedInstructionCount)
{
    expectCorrupt("oversized_inst_count.xbt", "instruction count");
}

TEST(TraceIoCorpus, UnknownInstructionClass)
{
    expectCorrupt("bad_inst_class.xbt", "unknown class 99");
}

TEST(TraceIoCorpus, TakenIdxOutOfRange)
{
    expectCorrupt("bad_taken_idx.xbt", "takenIdx 5 out of range");
}

TEST(TraceIoCorpus, ZeroUopInstruction)
{
    expectCorrupt("zero_uops.xbt", "uop count 0 outside 1..4");
}

TEST(TraceIoCorpus, InstructionWiderThanTheIsa)
{
    expectCorrupt("wide_uops.xbt", "uop count 5 outside 1..4");
}

TEST(TraceIoCorpus, DuplicateIp)
{
    expectCorrupt("dup_ip.xbt", "duplicate ip");
}

TEST(TraceIoCorpus, DescendingIp)
{
    expectCorrupt("descending_ip.xbt", "instruction 1: descending ip 4096");
}

TEST(TraceIoCorpus, RecordIndexOutOfRange)
{
    expectCorrupt("bad_record_idx.xbt", "staticIdx 7 out of range");
}

TEST(TraceIoCorpus, BadTakenFlag)
{
    expectCorrupt("bad_taken_flag.xbt", "taken flag 2 is not 0/1");
}

TEST(TraceIoCorpus, TruncatedRecordSection)
{
    expectCorrupt("trunc_records.xbt", "record count 50");
}

TEST(TraceIoCorpus, TrailingBytes)
{
    expectCorrupt("trailing_bytes.xbt", "trailing bytes");
}

TEST(TraceIoCorpus, Xbt1IsNotRead)
{
    expectCorrupt("xbt1.xbt", "not an XBT2 trace");
}

TEST(TraceIoCorpus, InRangeFlipFailsChecksum)
{
    expectCorrupt("bad_checksum.xbt", "checksum mismatch");
}

TEST(TraceIoCorpus, TruncatedTrailer)
{
    expectCorrupt("trunc_trailer.xbt", "truncated checksum trailer");
}

// ---------------------------------------------------------------
// Writer-side refusals.

TEST(TraceIoWriter, RefusesOverlongName)
{
    CodeBuilder cb;
    int32_t a = cb.seq();
    cb.jump(0);
    auto code = cb.finalize();
    Trace t = makeTestTrace(code, {{a, false}},
                            std::string(kMaxTraceNameLen + 1, 'n'));
    Status st = writeTraceEx(t, "/tmp/xbs_overlong_name.xbt");
    ASSERT_FALSE(st.isOk());
    EXPECT_NE(st.toString().find("exceeds the format limit"),
              std::string::npos);
}

TEST(TraceIoWriter, RefusesUnwritablePath)
{
    CodeBuilder cb;
    int32_t a = cb.seq();
    cb.jump(0);
    auto code = cb.finalize();
    Trace t = makeTestTrace(code, {{a, false}});
    Status st = writeTraceEx(t, "/no/such/dir/out.xbt");
    ASSERT_FALSE(st.isOk());
    EXPECT_NE(st.toString().find("cannot open"), std::string::npos);
}

TEST(TraceIoWriter, RoundTripSurvives)
{
    CodeBuilder cb;
    int32_t a = cb.seq(3);
    int32_t b = cb.cond(0, 2);
    auto code = cb.finalize();
    Trace t = makeTestTrace(code,
                            {{a, false}, {b, true}, {a, false}},
                            "roundtrip");
    // Not test_trace's xbs_roundtrip.xbt: ctest -j runs both binaries
    // at once, and one would delete the other's file mid-read.
    const std::string path =
        testing::TempDir() + "xbs_io_corrupt_roundtrip.xbt";
    ASSERT_TRUE(writeTraceEx(t, path).isOk());
    Expected<Trace> back = readTraceEx(path);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back.value().numRecords(), t.numRecords());
    EXPECT_EQ(back.value().totalUops(), t.totalUops());
    EXPECT_EQ(back.value().name(), "roundtrip");
    std::remove(path.c_str());
}

TEST(TraceIoWriter, ReportsFailedWrite)
{
    // /dev/full opens fine and fails every write with ENOSPC; a trace
    // this small only reaches the device when the file is flushed.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this host";
    CodeBuilder cb;
    int32_t a = cb.seq();
    cb.jump(0);
    Trace t = makeTestTrace(cb.finalize(), {{a, false}});
    Status st = writeTraceEx(t, "/dev/full");
    ASSERT_FALSE(st.isOk());
    EXPECT_NE(st.toString().find("trace write failed"), std::string::npos)
        << st.toString();
}

// ---------------------------------------------------------------
// Traces larger than the reader's buffer, and single-byte flips.

std::vector<char>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

void
writeBytes(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream(path, std::ios::binary)
        .write(bytes.data(), (std::streamsize)bytes.size());
}

/** 2048 instructions of every class, length and uop count, and
 *  @p n records over them, named "bulk". */
Trace
bulkTrace(std::size_t n)
{
    constexpr int32_t kInsts = 2048;
    CodeBuilder cb;
    for (int32_t i = 0; i < kInsts; ++i) {
        const auto cls = (InstClass)(i % (int)InstClass::NumClasses);
        const bool direct = cls == InstClass::CondBranch ||
                            cls == InstClass::DirectJump ||
                            cls == InstClass::DirectCall;
        cb.add(cls, (uint8_t)(1 + i % 15), (uint8_t)(1 + i % 4),
               direct ? (i * 7) % kInsts : kNoTarget,
               cls == InstClass::CondBranch ? i : kNoBehavior);
    }
    std::vector<std::pair<int32_t, bool>> path(n);
    for (std::size_t i = 0; i < n; ++i)
        path[i] = {(int32_t)(i * 7919 % kInsts), i / 3 % 2 == 1};
    return makeTestTrace(cb.finalize(), path, "bulk");
}

/** File offsets of a bulk trace's sections (format in trace_io.hh). */
constexpr uint64_t kBulkInstTable = 4 + 4 + 4 + 8;

uint64_t
bulkRecordSection(const Trace &t)
{
    return kBulkInstTable + 19 * t.code().size() + 8;
}

/** Offset of the record that holds the first buffer boundary. */
uint64_t
bulkStraddler(const Trace &t)
{
    const uint64_t recs = bulkRecordSection(t);
    return recs + (kTraceBufBytes - recs) / 5 * 5;
}

TEST(TraceIoBulk, RoundTripAcrossBufferRefills)
{
    const Trace t = bulkTrace(600000);
    // Not the flip test's file: ctest -j may run them at once.
    const std::string path = testing::TempDir() + "xbs_io_bulk.xbt";
    ASSERT_TRUE(writeTraceEx(t, path).isOk());
    // The record section crosses several buffer refills, and the
    // first boundary falls inside a record.
    EXPECT_GT(std::filesystem::file_size(path), 2 * kTraceBufBytes);
    EXPECT_LT(bulkStraddler(t), kTraceBufBytes);
    Expected<Trace> back = readTraceEx(path);
    std::remove(path.c_str());
    ASSERT_TRUE(back.ok()) << back.status().toString();

    const Trace &u = back.value();
    EXPECT_EQ(u.name(), "bulk");
    ASSERT_EQ(u.code().size(), t.code().size());
    auto fields = [](const StaticInst &si) {
        return std::make_tuple(si.ip, si.length, si.numUops, (int)si.cls,
                               si.takenIdx, si.behaviorId);
    };
    for (int32_t i = 0; i < (int32_t)t.code().size(); ++i)
        ASSERT_EQ(fields(u.code().inst(i)), fields(t.code().inst(i)))
            << "instruction " << i;
    ASSERT_EQ(u.numRecords(), t.numRecords());
    std::size_t same = 0;
    while (same < t.numRecords() &&
           u.record(same).staticIdx == t.record(same).staticIdx &&
           u.record(same).taken == t.record(same).taken) {
        ++same;
    }
    EXPECT_EQ(same, t.numRecords()) << "first record that differs";
    EXPECT_EQ(u.totalUops(), t.totalUops());
}

TEST(TraceIoBulk, SingleByteFlipInEveryRegionIsRejected)
{
    const Trace t = bulkTrace(300000);
    const std::string path = testing::TempDir() + "xbs_io_bulk_flip.xbt";
    ASSERT_TRUE(writeTraceEx(t, path).isOk());
    const std::vector<char> good = readBytes(path);
    ASSERT_LT(bulkStraddler(t), kTraceBufBytes);

    struct Flip
    {
        const char *region;
        uint64_t at;
        const char *expect;
    };
    // Every flip but the magic's leaves a file that parses: the IP
    // flip (high byte of the last instruction's) keeps the IPs
    // ascending, and the record flips keep staticIdx in range (2048
    // instructions).
    const Flip flips[] = {
        {"magic", 0, "not an XBT2 trace"},
        {"name", 8, "checksum mismatch"},
        {"instruction table",
         kBulkInstTable + 19 * (t.code().size() - 1) + 7,
         "checksum mismatch"},
        {"record straddling the buffer boundary", bulkStraddler(t),
         "checksum mismatch"},
        {"last record", good.size() - 4 - 5, "checksum mismatch"},
        {"trailer", good.size() - 1, "checksum mismatch"},
    };
    for (const Flip &flip : flips) {
        SCOPED_TRACE(flip.region);
        std::vector<char> bad = good;
        bad[flip.at] ^= 0x01;
        writeBytes(path, bad);
        Expected<Trace> back = readTraceEx(path);
        ASSERT_FALSE(back.ok()) << "flipped file parsed";
        EXPECT_EQ(back.status().code(), StatusCode::Corrupt);
        EXPECT_NE(back.status().cause().find(flip.expect),
                  std::string::npos)
            << back.status().toString();
        EXPECT_TRUE(back.status().offset().has_value());
    }
    std::remove(path.c_str());
}

TEST(TraceIoBulk, EveryByteFlipOfValidMinIsRejected)
{
    const std::vector<char> good = readBytes(dataPath("valid_min.xbt"));
    ASSERT_FALSE(good.empty());
    const std::string path = testing::TempDir() + "xbs_io_flip_min.xbt";
    for (std::size_t at = 0; at < good.size(); ++at) {
        for (int mask : {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80,
                         0xff}) {
            std::vector<char> bad = good;
            bad[at] ^= (char)mask;
            writeBytes(path, bad);
            EXPECT_FALSE(readTraceEx(path).ok())
                << "byte " << at << " ^ " << mask << " parsed";
        }
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Status / Expected unit behavior.

TEST(Status, ContextAttachmentInnerWins)
{
    Status st = Status::error("boom").withOffset(7);
    st.withFile("a.xbt").withOffset(99).withFile("b.xbt");
    EXPECT_EQ(st.file(), "a.xbt");
    ASSERT_TRUE(st.offset().has_value());
    EXPECT_EQ(*st.offset(), 7u);
    EXPECT_EQ(st.toString(), "boom in 'a.xbt' at byte 7");
}

TEST(Status, OkCarriesNoContext)
{
    Status st = Status::ok();
    EXPECT_TRUE(st.isOk());
    st.withFile("ignored").withOffset(3);
    EXPECT_EQ(st.toString(), "ok");
}

TEST(ExpectedT, ValueAndTake)
{
    Expected<int> e(42);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value(), 42);
    EXPECT_EQ(e.take(), 42);

    Expected<int> bad(Status::error("nope"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().cause(), "nope");
}

} // anonymous namespace
} // namespace xbs
