#include "batch/journal.hh"

#include <sstream>

#include "common/json.hh"

namespace xbs
{

void
writeJobMetricsFields(JsonWriter &jw, const JobMetrics &m)
{
    // Full precision: these values are read back on resume and
    // must stay bit-identical to the simulated originals
    // all the way into report.json.
    jw.fieldFull("bandwidth", m.bandwidth);
    jw.fieldFull("missRate", m.missRate);
    jw.fieldFull("overallIpc", m.overallIpc);
    jw.field("cycles", m.cycles);
    jw.field("totalUops", m.totalUops);
    if (m.attrib.has)
        writeAttribRollup(jw, m.attrib);
}

JobMetrics
readJobMetricsFields(const JsonValue &v)
{
    JobMetrics m;
    if (const JsonValue *f = v.find("bandwidth"))
        m.bandwidth = f->asNumber();
    if (const JsonValue *f = v.find("missRate"))
        m.missRate = f->asNumber();
    if (const JsonValue *f = v.find("overallIpc"))
        m.overallIpc = f->asNumber();
    if (const JsonValue *f = v.find("cycles"))
        m.cycles = f->asUint();
    if (const JsonValue *f = v.find("totalUops"))
        m.totalUops = f->asUint();
    if (const JsonValue *f = v.find("attrib"))
        m.attrib = parseAttribRollup(*f);
    return m;
}

const char *
journalEventKindName(JournalEvent::Kind kind)
{
    switch (kind) {
      case JournalEvent::Kind::Launch: return "launch";
      case JournalEvent::Kind::Result: return "result";
      case JournalEvent::Kind::Final:  return "final";
    }
    return "?";
}

std::string
SweepJournal::manifestPath(const std::string &dir)
{
    return dir + "/manifest.json";
}

std::string
SweepJournal::journalPath(const std::string &dir)
{
    return dir + "/journal.jsonl";
}

Status
SweepJournal::writeManifest(const std::string &dir,
                            const SweepManifest &manifest)
{
    std::ostringstream os;
    {
        JsonWriter jw(os, /*pretty=*/true);
        jw.beginObject();
        jw.field("version", (uint64_t)manifest.version);
        jw.field("xbsim", manifest.xbsim);
        jw.field("workers", (uint64_t)manifest.workers);
        jw.field("timeoutSec", manifest.timeoutSec);
        jw.field("maxRetries", (uint64_t)manifest.maxRetries);
        jw.field("backoffMs", (uint64_t)manifest.backoffMs);
        if (manifest.intervalCycles)
            jw.field("intervalCycles", manifest.intervalCycles);
        jw.beginArray("jobs");
        for (const JobSpec &job : manifest.jobs) {
            jw.beginObject();
            jw.field("id", (uint64_t)job.id);
            jw.beginArray("spec");
            for (const std::string &flag : job.run.toArgv())
                jw.field("", flag);
            jw.endArray();
            jw.endObject();
        }
        jw.endArray();
        jw.endObject();
    }
    return writeFileAtomic(manifestPath(dir), os.str());
}

Expected<SweepManifest>
SweepJournal::readManifest(const std::string &dir)
{
    const std::string path = manifestPath(dir);
    Expected<std::string> text = readFileToString(path);
    if (!text.ok())
        return text.status();

    JsonValue root;
    std::string err;
    if (!parseJson(text.value(), &root, &err)) {
        return Status::error("malformed manifest: " + err)
            .withFile(path);
    }
    if (!root.isObject())
        return Status::error("manifest is not an object")
            .withFile(path);

    SweepManifest m;
    if (const JsonValue *v = root.find("version"))
        m.version = (int)v->asUint();
    if (m.version != 1) {
        return Status::error("unsupported manifest version " +
                             std::to_string(m.version))
            .withFile(path);
    }
    if (const JsonValue *v = root.find("xbsim"))
        m.xbsim = v->asString();
    if (const JsonValue *v = root.find("workers"))
        m.workers = (unsigned)v->asUint();
    if (const JsonValue *v = root.find("timeoutSec"))
        m.timeoutSec = v->asNumber();
    if (const JsonValue *v = root.find("maxRetries"))
        m.maxRetries = (unsigned)v->asUint();
    if (const JsonValue *v = root.find("backoffMs"))
        m.backoffMs = (unsigned)v->asUint();
    if (const JsonValue *v = root.find("intervalCycles"))
        m.intervalCycles = v->asUint();

    const JsonValue *jobs = root.find("jobs");
    if (!jobs || !jobs->isArray())
        return Status::error("manifest has no jobs array")
            .withFile(path);
    for (const JsonValue &jv : jobs->items) {
        JobSpec job;
        if (const JsonValue *v = jv.find("id"))
            job.id = (int)v->asUint();
        const JsonValue *spec = jv.find("spec");
        if (!spec || !spec->isArray()) {
            return Status::error("manifest job " +
                                 std::to_string(job.id) +
                                 " has no spec array").withFile(path);
        }
        std::vector<std::string> flags;
        for (const JsonValue &f : spec->items)
            flags.push_back(f.asString());
        Expected<RunSpec> run = RunSpec::fromArgv(flags);
        if (!run.ok()) {
            Status st = run.status();
            return st.withFile(path);
        }
        job.run = run.take();
        m.jobs.push_back(std::move(job));
    }
    return m;
}

Status
SweepJournal::open(const std::string &dir)
{
    dir_ = dir;
    return log_.open(journalPath(dir));
}

Status
SweepJournal::append(JournalEvent &event)
{
    event.seq = ++seq_;
    std::ostringstream os;
    {
        JsonWriter jw(os, /*pretty=*/false);
        jw.beginObject();
        jw.field("seq", event.seq);
        jw.field("event", journalEventKindName(event.kind));
        jw.field("job", (int64_t)event.job);
        jw.field("attempt", (int64_t)event.attempt);
        if (event.kind != JournalEvent::Kind::Launch) {
            jw.field("class", jobClassName(event.cls));
            jw.field("exit", (int64_t)event.exitCode);
            jw.field("signal", (int64_t)event.termSignal);
            jw.fieldFull("seconds", event.seconds);
            if (event.hasMetrics)
                writeJobMetricsFields(jw, event.metrics);
            if (event.hasUsage) {
                jw.field("maxRssKb", event.usage.maxRssKb);
                jw.field("userSec", event.usage.userSec);
                jw.field("sysSec", event.usage.sysSec);
                if (event.usage.inBlock)
                    jw.field("inBlock", event.usage.inBlock);
                if (event.usage.outBlock)
                    jw.field("outBlock", event.usage.outBlock);
            }
            if (!event.note.empty())
                jw.field("note", event.note);
        }
        jw.endObject();
    }
    return log_.append(os.str());
}

Expected<std::vector<JournalEvent>>
SweepJournal::replay(const std::string &dir)
{
    const std::string path = journalPath(dir);
    Expected<std::string> text = readFileToString(path);
    if (!text.ok())
        return text.status();

    std::vector<JournalEvent> events;
    std::istringstream is(text.value());
    std::string line;
    uint64_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        bool at_tail = is.peek() == std::istream::traits_type::eof();
        // A crash can tear only the final line (O_APPEND single
        // write); getline also drops a missing trailing newline
        // there. Skip a malformed tail, reject corruption anywhere
        // else.
        if (line.empty())
            continue;
        JsonValue v;
        std::string err;
        auto corrupt = [&](const std::string &why) {
            return Status::error(StatusCode::Corrupt,
                                 "journal line " +
                                     std::to_string(lineno) + ": " +
                                     why).withFile(path);
        };
        if (!parseJson(line, &v, &err) || !v.isObject()) {
            if (at_tail)
                break;
            return corrupt("malformed journal record: " + err);
        }
        JournalEvent ev;
        const JsonValue *kind = v.find("event");
        if (!kind) {
            if (at_tail)
                break;
            return corrupt("no event field");
        }
        const std::string &k = kind->asString();
        if (k == "launch") {
            ev.kind = JournalEvent::Kind::Launch;
        } else if (k == "result") {
            ev.kind = JournalEvent::Kind::Result;
        } else if (k == "final") {
            ev.kind = JournalEvent::Kind::Final;
        } else {
            return corrupt("unknown event '" + k + "'");
        }
        if (const JsonValue *f = v.find("seq"))
            ev.seq = f->asUint();
        if (const JsonValue *f = v.find("job"))
            ev.job = (int)f->asNumber();
        if (const JsonValue *f = v.find("attempt"))
            ev.attempt = (int)f->asNumber();
        if (const JsonValue *f = v.find("class")) {
            Expected<JobClass> cls = jobClassFromName(f->asString());
            if (!cls.ok())
                return corrupt(cls.status().toString());
            ev.cls = cls.value();
        }
        if (const JsonValue *f = v.find("exit"))
            ev.exitCode = (int)f->asNumber();
        if (const JsonValue *f = v.find("signal"))
            ev.termSignal = (int)f->asNumber();
        if (const JsonValue *f = v.find("seconds"))
            ev.seconds = f->asNumber();
        if (v.find("bandwidth") || v.find("cycles")) {
            ev.hasMetrics = true;
            ev.metrics = readJobMetricsFields(v);
        }
        if (const JsonValue *f = v.find("maxRssKb")) {
            ev.hasUsage = true;
            ev.usage.maxRssKb = f->asUint();
            if (const JsonValue *u = v.find("userSec"))
                ev.usage.userSec = u->asNumber();
            if (const JsonValue *u = v.find("sysSec"))
                ev.usage.sysSec = u->asNumber();
            if (const JsonValue *u = v.find("inBlock"))
                ev.usage.inBlock = u->asUint();
            if (const JsonValue *u = v.find("outBlock"))
                ev.usage.outBlock = u->asUint();
        }
        if (const JsonValue *f = v.find("note"))
            ev.note = f->asString();
        events.push_back(std::move(ev));
    }
    return events;
}

} // namespace xbs
