#include "obs/heartbeat.hh"

#include <sstream>
#include <unistd.h>

#include "common/fs.hh"
#include "common/json.hh"
#include "frontend/frontend.hh"
#include "prof/host_counters.hh"

namespace xbs
{

std::string
renderHeartbeat(const HeartbeatRecord &rec)
{
    std::ostringstream os;
    {
        JsonWriter jw(os, /*pretty=*/false);
        jw.beginObject();
        jw.field("seq", rec.seq);
        jw.field("pid", rec.pid);
        jw.field("phase", rec.phase);
        jw.field("uops", rec.uops);
        jw.field("totalUops", rec.totalUops);
        jw.field("cycles", rec.cycles);
        jw.field("uopsPerSec", rec.uopsPerSec);
        jw.field("wallSeconds", rec.wallSeconds);
        jw.field("rssKb", rec.rssKb);
        jw.field("done", rec.done);
        if (!rec.restoredFrom.empty())
            jw.field("restoredFrom", rec.restoredFrom);
        jw.endObject();
    }
    os << '\n';
    return os.str();
}

Expected<HeartbeatRecord>
parseHeartbeat(const std::string &text)
{
    JsonValue doc;
    std::string err;
    if (!parseJson(text, &doc, &err))
        return Status::error("bad heartbeat: " + err);
    if (!doc.isObject())
        return Status::error("bad heartbeat: not an object");
    const JsonValue *seq = doc.find("seq");
    const JsonValue *phase = doc.find("phase");
    if (!seq || !seq->isNumber() || !phase || !phase->isString())
        return Status::error("bad heartbeat: missing seq/phase");

    HeartbeatRecord rec;
    rec.seq = seq->asUint();
    if (const JsonValue *v = doc.find("pid"))
        rec.pid = (int64_t)v->asNumber();
    rec.phase = phase->asString();
    if (const JsonValue *v = doc.find("uops"))
        rec.uops = v->asUint();
    if (const JsonValue *v = doc.find("totalUops"))
        rec.totalUops = v->asUint();
    if (const JsonValue *v = doc.find("cycles"))
        rec.cycles = v->asUint();
    if (const JsonValue *v = doc.find("uopsPerSec"))
        rec.uopsPerSec = v->asNumber();
    if (const JsonValue *v = doc.find("wallSeconds"))
        rec.wallSeconds = v->asNumber();
    if (const JsonValue *v = doc.find("rssKb"))
        rec.rssKb = v->asUint();
    if (const JsonValue *v = doc.find("done"))
        rec.done = v->isBool() && v->boolValue;
    if (const JsonValue *v = doc.find("restoredFrom"))
        rec.restoredFrom = v->asString();
    return rec;
}

Expected<HeartbeatRecord>
readHeartbeat(const std::string &path)
{
    Expected<std::string> text = readFileToString(path);
    if (!text.ok())
        return text.status();
    return parseHeartbeat(text.value());
}

HeartbeatWriter::HeartbeatWriter(std::string path)
    : path_(std::move(path)), start_(Clock::now())
{
    // Resume numbering after any record a previous attempt left
    // behind, so watchers never see seq go backwards on retry.
    if (Expected<HeartbeatRecord> prev = readHeartbeat(path_);
        prev.ok()) {
        seq_ = prev.value().seq;
    }
}

Status
HeartbeatWriter::write(HeartbeatRecord &rec)
{
    rec.seq = ++seq_;
    rec.pid = (int64_t)::getpid();
    rec.wallSeconds =
        std::chrono::duration<double>(Clock::now() - start_).count();
    // writeFileAtomic gives the torn-read guarantee (temp + rename);
    // the fsync it performs is overkill for advisory telemetry but
    // at ~1 Hz the cost is irrelevant next to the simulation.
    return writeFileAtomic(path_, renderHeartbeat(rec));
}

HeartbeatEmitter::HeartbeatEmitter(std::string path, double period_sec)
    : writer_(std::move(path)),
      periodSec_(period_sec < 0.01 ? 0.01 : period_sec),
      lastBeat_(Clock::now())
{
}

void
HeartbeatEmitter::publish(uint64_t uops, uint64_t cycles,
                          const char *mode, bool done)
{
    const Clock::time_point now = Clock::now();
    const double window =
        std::chrono::duration<double>(now - lastBeat_).count();

    HeartbeatRecord rec;
    rec.phase = phase_;
    if (mode && phase_ == "sim")
        rec.phase += std::string(":") + mode;
    rec.uops = uops;
    rec.totalUops = totalUops_;
    rec.cycles = cycles;
    // Rate over the beat window; first beat has no window yet. The
    // epsilon guard mirrors ThroughputMeter: a sub-tick window must
    // not produce inf/nan in the record.
    if (everBeat_ && window > 1e-9 && uops >= lastUops_)
        rec.uopsPerSec = (double)(uops - lastUops_) / window;
    rec.rssKb = HostCounters::self().maxRssKb;
    rec.done = done;
    rec.restoredFrom = restoredFrom_;
    if (writer_.write(rec).isOk()) {
        lastBeat_ = now;
        lastUops_ = uops;
        everBeat_ = true;
    }
}

void
HeartbeatEmitter::beat(const Frontend *fe, bool done)
{
    uint64_t uops = 0;
    uint64_t cycles = 0;
    const char *mode = nullptr;
    if (fe) {
        const FrontendMetrics &m = fe->metrics();
        uops = m.deliveryUops.value() + m.buildUops.value();
        cycles = m.cycles.value();
        mode = fe->modeLabel();
    }
    publish(uops, cycles, mode, done);
}

void
HeartbeatEmitter::onCycle(const Frontend &fe)
{
    // A steady_clock read costs ~20ns; sampling it every cycle would
    // be measurable, so only look every 4096 simulated cycles.
    if (++ticks_ % 4096 != 0)
        return;
    const double since = std::chrono::duration<double>(
        Clock::now() - lastBeat_).count();
    if (since < periodSec_)
        return;
    beat(&fe, /*done=*/false);
}

} // namespace xbs
