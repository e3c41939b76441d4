/**
 * @file
 * Tests for the live-telemetry layer (src/obs): heartbeat records and
 * their torn-write/resume guarantees, the sweep span log, and the
 * merged Perfetto trace writer.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/fs.hh"
#include "common/json.hh"
#include "obs/heartbeat.hh"
#include "obs/span.hh"
#include "obs/trace_merge.hh"

using namespace xbs;

namespace
{

std::string
makeTempDir()
{
    char tmpl[] = "/tmp/xbs_obs_XXXXXX";
    const char *dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp";
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Heartbeat records
// ---------------------------------------------------------------------

TEST(Heartbeat, RenderParseRoundTrip)
{
    HeartbeatRecord rec;
    rec.seq = 42;
    rec.pid = 1234;
    rec.phase = "sim:xbc";
    rec.uops = 123456789;
    rec.totalUops = 250000000;
    rec.cycles = 987654;
    rec.uopsPerSec = 1.5e6;
    rec.wallSeconds = 3.25;
    rec.rssKb = 51200;
    rec.done = true;

    Expected<HeartbeatRecord> back = parseHeartbeat(renderHeartbeat(rec));
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back.value().seq, rec.seq);
    EXPECT_EQ(back.value().pid, rec.pid);
    EXPECT_EQ(back.value().phase, rec.phase);
    EXPECT_EQ(back.value().uops, rec.uops);
    EXPECT_EQ(back.value().totalUops, rec.totalUops);
    EXPECT_EQ(back.value().cycles, rec.cycles);
    EXPECT_DOUBLE_EQ(back.value().uopsPerSec, rec.uopsPerSec);
    EXPECT_DOUBLE_EQ(back.value().wallSeconds, rec.wallSeconds);
    EXPECT_EQ(back.value().rssKb, rec.rssKb);
    EXPECT_TRUE(back.value().done);
}

TEST(Heartbeat, ParseRejectsGarbage)
{
    EXPECT_FALSE(parseHeartbeat("").ok());
    EXPECT_FALSE(parseHeartbeat("not json").ok());
    // A torn record (truncated mid-object) must parse as an error,
    // not as a half-filled record.
    EXPECT_FALSE(parseHeartbeat("{\"seq\":3,\"phase\":\"si").ok());
    // seq and phase are mandatory.
    EXPECT_FALSE(parseHeartbeat("{\"phase\":\"sim\"}").ok());
    EXPECT_FALSE(parseHeartbeat("{\"seq\":1}").ok());
    EXPECT_FALSE(parseHeartbeat("[1,2,3]").ok());
}

TEST(Heartbeat, WriterStampsMonotonicSeq)
{
    const std::string dir = makeTempDir();
    const std::string path = dir + "/hb.json";

    HeartbeatWriter w(path);
    for (uint64_t i = 1; i <= 3; ++i) {
        HeartbeatRecord rec;
        rec.phase = "sim";
        rec.uops = i * 100;
        ASSERT_TRUE(w.write(rec).isOk());
        EXPECT_EQ(rec.seq, i);
        EXPECT_GT(rec.pid, 0);
        EXPECT_GE(rec.wallSeconds, 0.0);

        Expected<HeartbeatRecord> seen = readHeartbeat(path);
        ASSERT_TRUE(seen.ok());
        EXPECT_EQ(seen.value().seq, i);
        EXPECT_EQ(seen.value().uops, i * 100);
    }
}

TEST(Heartbeat, SeqResumesAcrossWriters)
{
    // A retried attempt reopens its predecessor's heartbeat file; a
    // watcher comparing seq across the retry must never see it go
    // backwards.
    const std::string dir = makeTempDir();
    const std::string path = dir + "/hb.json";

    {
        HeartbeatWriter w(path);
        HeartbeatRecord rec;
        rec.phase = "sim";
        ASSERT_TRUE(w.write(rec).isOk());
        ASSERT_TRUE(w.write(rec).isOk());
        EXPECT_EQ(rec.seq, 2u);
    }
    {
        HeartbeatWriter w(path);  // the "retry"
        EXPECT_EQ(w.seq(), 2u);
        HeartbeatRecord rec;
        rec.phase = "start";
        ASSERT_TRUE(w.write(rec).isOk());
        EXPECT_EQ(rec.seq, 3u);
    }
    Expected<HeartbeatRecord> seen = readHeartbeat(path);
    ASSERT_TRUE(seen.ok());
    EXPECT_EQ(seen.value().seq, 3u);
}

TEST(Heartbeat, TornTmpFileIsHarmless)
{
    // Simulate a writer crash between temp-write and rename: the
    // target still holds the previous complete record, and a stale
    // temp file sits next to it. Readers and later writers must be
    // unaffected.
    const std::string dir = makeTempDir();
    const std::string path = dir + "/hb.json";

    HeartbeatWriter w(path);
    HeartbeatRecord rec;
    rec.phase = "sim";
    rec.uops = 777;
    ASSERT_TRUE(w.write(rec).isOk());

    ASSERT_TRUE(writeFileAtomic(path + ".tmp.9999",
                                "{\"seq\":99,\"pha").isOk());

    Expected<HeartbeatRecord> seen = readHeartbeat(path);
    ASSERT_TRUE(seen.ok());
    EXPECT_EQ(seen.value().seq, 1u);
    EXPECT_EQ(seen.value().uops, 777u);

    // The next writer (a retry) resumes from the *committed* record,
    // not the torn temp, and its publish supersedes cleanly.
    HeartbeatWriter w2(path);
    EXPECT_EQ(w2.seq(), 1u);
    HeartbeatRecord rec2;
    rec2.phase = "sim";
    rec2.uops = 888;
    ASSERT_TRUE(w2.write(rec2).isOk());
    seen = readHeartbeat(path);
    ASSERT_TRUE(seen.ok());
    EXPECT_EQ(seen.value().seq, 2u);
    EXPECT_EQ(seen.value().uops, 888u);
}

TEST(Heartbeat, CorruptTargetReadsAsAbsence)
{
    const std::string dir = makeTempDir();
    const std::string path = dir + "/hb.json";
    ASSERT_TRUE(writeFileAtomic(path, "{{{{").isOk());

    EXPECT_FALSE(readHeartbeat(path).ok());
    EXPECT_FALSE(readHeartbeat(dir + "/missing.json").ok());

    // A writer opened on garbage starts numbering fresh.
    HeartbeatWriter w(path);
    EXPECT_EQ(w.seq(), 0u);
    HeartbeatRecord rec;
    rec.phase = "start";
    ASSERT_TRUE(w.write(rec).isOk());
    EXPECT_EQ(rec.seq, 1u);
}

TEST(Heartbeat, EmitterBeatsThroughPhases)
{
    const std::string dir = makeTempDir();
    const std::string path = dir + "/hb.json";

    HeartbeatEmitter em(path, 0.05);
    em.beat(nullptr);
    Expected<HeartbeatRecord> hb = readHeartbeat(path);
    ASSERT_TRUE(hb.ok());
    EXPECT_EQ(hb.value().phase, "start");
    EXPECT_FALSE(hb.value().done);

    em.setPhase("decode");
    em.setTotalUops(500);
    em.beat(nullptr);
    hb = readHeartbeat(path);
    ASSERT_TRUE(hb.ok());
    EXPECT_EQ(hb.value().phase, "decode");
    EXPECT_EQ(hb.value().totalUops, 500u);
    EXPECT_EQ(hb.value().seq, 2u);

    em.setPhase("done");
    em.beat(nullptr, /*done=*/true);
    hb = readHeartbeat(path);
    ASSERT_TRUE(hb.ok());
    EXPECT_TRUE(hb.value().done);
    EXPECT_EQ(hb.value().seq, 3u);
}

// ---------------------------------------------------------------------
// Span log
// ---------------------------------------------------------------------

TEST(SpanLog, RecordsAndClosesAttempts)
{
    SweepSpanLog log;
    EXPECT_FALSE(log.started());
    EXPECT_EQ(log.now(), 0.0);

    log.startSweep();
    EXPECT_TRUE(log.started());

    log.noteLaunch(3, "gcc/tc/32768", 1, 0);
    log.noteLaunch(5, "go/xbc/32768", 1, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    log.noteExit(3, 1, "ok");
    // Job 5 never reports an exit (drained mid-flight).
    log.noteBackoff(3, 2, log.now(), log.now() + 0.01);
    log.finishSweep();

    ASSERT_EQ(log.attempts().size(), 2u);
    const AttemptSpan &a3 = log.attempts()[0];
    EXPECT_EQ(a3.job, 3u);
    EXPECT_EQ(a3.label, "gcc/tc/32768");
    EXPECT_FALSE(a3.open);
    EXPECT_EQ(a3.cls, "ok");
    EXPECT_GE(a3.endSec, a3.startSec);

    const AttemptSpan &a5 = log.attempts()[1];
    EXPECT_EQ(a5.job, 5u);
    EXPECT_FALSE(a5.open) << "finishSweep must close drained spans";
    EXPECT_EQ(a5.cls, "");
    EXPECT_LE(a5.endSec, log.sweepSeconds() + 1e-9);

    ASSERT_EQ(log.backoffs().size(), 1u);
    EXPECT_EQ(log.backoffs()[0].job, 3u);
    EXPECT_EQ(log.backoffs()[0].attempt, 2u);

    // Exit for a span that was never launched is ignored, not fatal.
    log.noteExit(99, 1, "crash");
}

TEST(SpanLog, ExitClosesNewestMatchingAttempt)
{
    SweepSpanLog log;
    log.startSweep();
    log.noteLaunch(1, "li/tc/32768", 1, 0);
    log.noteExit(1, 1, "timeout");
    log.noteLaunch(1, "li/tc/32768", 2, 0);
    log.noteExit(1, 2, "ok");
    log.finishSweep();

    ASSERT_EQ(log.attempts().size(), 2u);
    EXPECT_EQ(log.attempts()[0].cls, "timeout");
    EXPECT_EQ(log.attempts()[1].cls, "ok");
    EXPECT_EQ(log.attempts()[1].attempt, 2u);
}

// ---------------------------------------------------------------------
// Trace merge
// ---------------------------------------------------------------------

namespace
{

/**
 * Perfetto sanity-check: replay every B/E pair per (pid,tid) as a
 * stack. Returns the number of slices closed; any structural problem
 * (stray E, mismatched name, span left open) fails expectations.
 */
int
checkBalanced(const JsonValue &doc)
{
    const JsonValue *events = doc.find("traceEvents");
    EXPECT_NE(events, nullptr);
    EXPECT_TRUE(events->isArray());
    std::map<std::pair<uint64_t, uint64_t>, std::vector<std::string>>
        stacks;
    std::map<std::pair<uint64_t, uint64_t>, double> last_ts;
    int closed = 0;
    for (const JsonValue &ev : events->items) {
        const std::string ph = ev.find("ph")->asString();
        if (ph == "M")
            continue;
        const auto key = std::make_pair(ev.find("pid")->asUint(),
                                        ev.find("tid")->asUint());
        const std::string name = ev.find("name")->asString();
        const double ts = ev.find("ts")->asNumber();
        EXPECT_GE(ts, last_ts[key] - 1e-9)
            << "timestamps regress on pid/tid track";
        last_ts[key] = ts;
        if (ph == "B") {
            stacks[key].push_back(name);
        } else if (ph == "E") {
            EXPECT_FALSE(stacks[key].empty())
                << "stray E for " << name;
            if (stacks[key].empty())
                continue;
            EXPECT_EQ(stacks[key].back(), name)
                << "E does not close the innermost open span";
            stacks[key].pop_back();
            ++closed;
        } else {
            ADD_FAILURE() << "unexpected event phase " << ph;
        }
    }
    for (const auto &[key, stack] : stacks) {
        EXPECT_TRUE(stack.empty())
            << "orphan span left open on pid " << key.first
            << " tid " << key.second;
    }
    return closed;
}

/** Spin until the span clock reads later than it does now, so the
 *  next recorded timestamp is strictly greater (no assumption about
 *  how long a sleep takes). */
void
waitForClockToAdvance(const SweepSpanLog &log)
{
    const double t = log.now();
    while (log.now() <= t) {
    }
}

} // anonymous namespace

TEST(TraceMerge, SchedulerOnlyTimelineIsBalanced)
{
    const std::string dir = makeTempDir();
    SweepSpanLog log;
    log.startSweep();
    log.noteLaunch(0, "gcc/tc/32768", 1, 0);
    log.noteLaunch(1, "go/tc/32768", 1, 1);
    waitForClockToAdvance(log);
    log.noteExit(0, 1, "ok");
    log.noteExit(1, 1, "crash");
    const double backoff_start = log.now();
    waitForClockToAdvance(log);
    log.noteLaunch(1, "go/tc/32768", 2, 1);
    waitForClockToAdvance(log);
    log.noteExit(1, 2, "ok");
    // The retry launched inside its own backoff window, which ends
    // halfway through the retry: the two slices overlap on job 1's
    // track instead of nesting.
    const AttemptSpan retry = log.attempts().back();
    const double backoff_end = (retry.startSec + retry.endSec) / 2;
    log.noteBackoff(1, 2, backoff_start, backoff_end);
    log.finishSweep();
    ASSERT_LT(backoff_start, retry.startSec);
    ASSERT_LT(retry.startSec, backoff_end);
    ASSERT_LT(backoff_end, retry.endSec);

    const std::string out = dir + "/trace.json";
    ASSERT_TRUE(writeSweepTrace(out, log, "").isOk());

    Expected<JsonValue> doc = readJsonFile(out);
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    EXPECT_GT(checkBalanced(doc.value()), 0);

    // The sweep span, both jobs, the retried attempt, and its
    // backoff all appear by name.
    Expected<std::string> text = readFileToString(out);
    ASSERT_TRUE(text.ok());
    EXPECT_NE(text.value().find("\"sweep\""), std::string::npos);
    EXPECT_NE(text.value().find("job 0"), std::string::npos);
    EXPECT_NE(text.value().find("attempt 2 [ok]"), std::string::npos);
    EXPECT_NE(text.value().find("backoff"), std::string::npos);
    EXPECT_NE(text.value().find("worker 1"), std::string::npos);
}

TEST(TraceMerge, RepairsUnbalancedChildTrace)
{
    const std::string dir = makeTempDir();
    const std::string events = dir + "/events";
    ASSERT_TRUE(ensureDir(events).isOk());

    // A deliberately damaged child trace: a stray E with no B (ring
    // dropped the Begin), a dangling B never closed (child was
    // killed), plus one well-formed pair and a thread_name meta.
    ASSERT_TRUE(writeFileAtomic(
        events + "/job-7-a1.json",
        "{\"traceEvents\":["
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"mode\"}},"
        "{\"name\":\"lost\",\"ph\":\"E\",\"ts\":50,\"pid\":1,\"tid\":0},"
        "{\"name\":\"build\",\"ph\":\"B\",\"ts\":100,\"pid\":1,\"tid\":0},"
        "{\"name\":\"build\",\"ph\":\"E\",\"ts\":400,\"pid\":1,\"tid\":0},"
        "{\"name\":\"deliver\",\"ph\":\"B\",\"ts\":500,\"pid\":1,"
        "\"tid\":0}"
        "]}").isOk());

    SweepSpanLog log;
    log.startSweep();
    log.noteLaunch(7, "gcc/xbc/32768", 1, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    log.noteExit(7, 1, "stalled");
    log.finishSweep();

    const std::string out = dir + "/trace.json";
    ASSERT_TRUE(writeSweepTrace(out, log, events).isOk());

    Expected<JsonValue> doc = readJsonFile(out);
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    EXPECT_GT(checkBalanced(doc.value()), 0);

    Expected<std::string> text = readFileToString(out);
    ASSERT_TRUE(text.ok());
    // The stray E is gone; the dangling B became a closed span; the
    // child track is labeled with its attempt.
    EXPECT_EQ(text.value().find("\"lost\""), std::string::npos);
    EXPECT_NE(text.value().find("\"deliver\""), std::string::npos);
    EXPECT_NE(text.value().find("mode (a1)"), std::string::npos);
    EXPECT_NE(text.value().find("attempt 1 [stalled]"),
              std::string::npos);
}

TEST(TraceMerge, MissingChildTraceOmitsSimTracks)
{
    const std::string dir = makeTempDir();
    const std::string events = dir + "/events";
    ASSERT_TRUE(ensureDir(events).isOk());

    SweepSpanLog log;
    log.startSweep();
    log.noteLaunch(2, "li/dc/32768", 1, 0);
    log.noteExit(2, 1, "ok");
    log.finishSweep();

    const std::string out = dir + "/trace.json";
    ASSERT_TRUE(writeSweepTrace(out, log, events).isOk());
    Expected<JsonValue> doc = readJsonFile(out);
    ASSERT_TRUE(doc.ok());
    EXPECT_GT(checkBalanced(doc.value()), 0);
}
