/**
 * @file
 * Robustness tests for the binary trace reader/writer: every file in
 * the malformed corpus under tests/data/ must come back as a
 * structured Status (never an abort or UB), with the cause naming the
 * defect and the byte offset populated; the writer must refuse values
 * the format cannot represent instead of silently wrapping.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

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
    expectCorrupt("empty.xbt", "not an XBT1 trace");
}

TEST(TraceIoCorpus, BadMagic)
{
    expectCorrupt("bad_magic.xbt", "not an XBT1 trace");
}

TEST(TraceIoCorpus, TruncatedHeader)
{
    expectCorrupt("trunc_header.xbt", "not an XBT1 trace");
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
    expectCorrupt("zero_uops.xbt", "uop count 0 outside 1..16");
}

TEST(TraceIoCorpus, DuplicateIp)
{
    expectCorrupt("dup_ip.xbt", "duplicate ip");
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

// ---------------------------------------------------------------
// Writer-side refusals and the legacy fatal wrappers.

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

TEST(TraceIoLegacy, FatalWrapperStillAborts)
{
    EXPECT_EXIT(readTrace(dataPath("bad_magic.xbt")),
                testing::ExitedWithCode(1), "not an XBT1 trace");
}

TEST(TraceIoLegacy, ReadWrapperReportsFileAndOffset)
{
    // The Status already carries the path and byte offset; the
    // legacy wrapper must surface both in its fatal message, not
    // just the cause string.
    EXPECT_EXIT(readTrace(dataPath("bad_taken_idx.xbt")),
                testing::ExitedWithCode(1),
                "bad_taken_idx\\.xbt' at byte [0-9]+");
}

TEST(TraceIoLegacy, ReadWrapperReportsFileWithoutOffset)
{
    // fopen failures have no offset, but the wrapper still attaches
    // the path it was asked to read.
    EXPECT_EXIT(readTrace(dataPath("no_such_file.xbt")),
                testing::ExitedWithCode(1),
                "cannot open for reading in '.*no_such_file\\.xbt'");
}

TEST(TraceIoLegacy, WriteWrapperReportsFile)
{
    CodeBuilder cb;
    int32_t a = cb.seq();
    cb.jump(0);
    auto code = cb.finalize();
    Trace t = makeTestTrace(code, {{a, false}});
    EXPECT_EXIT(writeTrace(t, "/no/such/dir/out.xbt"),
                testing::ExitedWithCode(1),
                "in '/no/such/dir/out\\.xbt'");
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
