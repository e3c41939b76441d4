#include "prof/bench_io.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/fs.hh"
#include "common/histogram.hh"
#include "common/json.hh"
#include "common/table.hh"

namespace xbs
{

namespace
{

// Interval bandwidths are real-valued in [0, ~16] uops/cycle; the
// integer histogram stores them in milli-uops so percentile() keeps
// three decimal digits of resolution.
constexpr uint32_t kBwScale = 1000;
constexpr uint32_t kBwMaxMilli = 64 * kBwScale;

std::string
rowLabel(const std::string &frontend, const std::string &workload,
         uint64_t capacity, uint64_t ways)
{
    // Mirrors RunSpec::label() so bench rows line up with xbatch and
    // xbreport output without xbs_prof depending on xbs_sim.
    std::string s = frontend;
    s += "/";
    s += workload;
    s += "@";
    s += std::to_string(capacity);
    if (ways != 0) {
        s += "w";
        s += std::to_string(ways);
    }
    return s;
}

BenchHost
parseHost(const JsonValue &obj)
{
    BenchHost h;
    h.has = true;
    if (const JsonValue *v = obj.find("seconds"))
        h.seconds = v->asNumber();
    if (const JsonValue *v = obj.find("userSec"))
        h.userSec = v->asNumber();
    if (const JsonValue *v = obj.find("sysSec"))
        h.sysSec = v->asNumber();
    if (const JsonValue *v = obj.find("maxRssKb"))
        h.maxRssKb = v->asUint();
    if (const JsonValue *v = obj.find("uopsPerHostSec"))
        h.uopsPerHostSec = v->asNumber();
    return h;
}

void
writeHost(JsonWriter &jw, const BenchHost &h, const std::string &key)
{
    jw.beginObject(key);
    jw.field("seconds", h.seconds);
    jw.field("userSec", h.userSec);
    jw.field("sysSec", h.sysSec);
    jw.field("maxRssKb", h.maxRssKb);
    jw.field("uopsPerHostSec", h.uopsPerHostSec);
    jw.endObject();
}

/**
 * Fold one job's interval JSONL into bandwidth percentiles. A torn
 * tail (crash mid-write) or a malformed line stops the scan but
 * keeps every complete window before it.
 */
BenchIntervals
readIntervalFile(const std::string &path)
{
    BenchIntervals iv;
    Expected<std::string> text = readFileToString(path);
    if (!text.ok())
        return iv;  // missing file: has stays false

    iv.has = true;
    Histogram bw(kBwMaxMilli);
    std::istringstream is(text.value());
    JsonlScan scan = forEachJsonLine(is, [&](const JsonValue &window) {
        const JsonValue *b = window.find("bandwidth");
        if (!b) {
            iv.torn = true;
            return false;
        }
        double milli = b->asNumber() * kBwScale;
        if (milli < 0.0)
            milli = 0.0;
        if (milli > kBwMaxMilli)
            milli = kBwMaxMilli;
        bw.add((uint32_t)std::lround(milli));
        ++iv.windows;
        return true;
    });
    if (!scan.clean())
        iv.torn = true;
    if (iv.windows > 0) {
        iv.bwP50 = (double)bw.percentile(0.50) / kBwScale;
        iv.bwP95 = (double)bw.percentile(0.95) / kBwScale;
        iv.bwP99 = (double)bw.percentile(0.99) / kBwScale;
    }
    return iv;
}

void
writeRow(JsonWriter &jw, const BenchRow &row)
{
    jw.beginObject();
    jw.field("id", row.id);
    jw.field("frontend", row.frontend);
    jw.field("workload", row.workload);
    jw.field("capacity", row.capacity);
    jw.field("missRate", row.missRate);
    jw.field("bandwidth", row.bandwidth);
    jw.field("overallIpc", row.overallIpc);
    jw.field("cycles", row.cycles);
    jw.field("totalUops", row.totalUops);
    if (row.host.has)
        writeHost(jw, row.host, "host");
    if (row.intervals.has) {
        jw.beginObject("intervals");
        jw.field("windows", row.intervals.windows);
        jw.field("torn", row.intervals.torn);
        jw.field("bwP50", row.intervals.bwP50);
        jw.field("bwP95", row.intervals.bwP95);
        jw.field("bwP99", row.intervals.bwP99);
        jw.endObject();
    }
    if (row.attrib.has)
        writeAttribRollup(jw, row.attrib);
    jw.endObject();
}

BenchRow
parseRow(const JsonValue &obj)
{
    BenchRow row;
    if (const JsonValue *v = obj.find("id"))
        row.id = v->asString();
    if (const JsonValue *v = obj.find("frontend"))
        row.frontend = v->asString();
    if (const JsonValue *v = obj.find("workload"))
        row.workload = v->asString();
    if (const JsonValue *v = obj.find("capacity"))
        row.capacity = v->asUint();
    if (const JsonValue *v = obj.find("missRate"))
        row.missRate = v->asNumber();
    if (const JsonValue *v = obj.find("bandwidth"))
        row.bandwidth = v->asNumber();
    if (const JsonValue *v = obj.find("overallIpc"))
        row.overallIpc = v->asNumber();
    if (const JsonValue *v = obj.find("cycles"))
        row.cycles = v->asUint();
    if (const JsonValue *v = obj.find("totalUops"))
        row.totalUops = v->asUint();
    if (const JsonValue *v = obj.find("host"); v && v->isObject())
        row.host = parseHost(*v);
    if (const JsonValue *v = obj.find("intervals");
        v && v->isObject()) {
        row.intervals.has = true;
        if (const JsonValue *w = v->find("windows"))
            row.intervals.windows = w->asUint();
        if (const JsonValue *w = v->find("torn"))
            row.intervals.torn = w->isBool() && w->boolValue;
        if (const JsonValue *w = v->find("bwP50"))
            row.intervals.bwP50 = w->asNumber();
        if (const JsonValue *w = v->find("bwP95"))
            row.intervals.bwP95 = w->asNumber();
        if (const JsonValue *w = v->find("bwP99"))
            row.intervals.bwP99 = w->asNumber();
    }
    if (const JsonValue *v = obj.find("attrib"))
        row.attrib = parseAttribRollup(*v);
    return row;
}

} // anonymous namespace

Expected<BenchReport>
aggregateSweepDir(const std::string &dir)
{
    const std::string report_path = dir + "/report.json";
    Expected<JsonValue> parsed = readJsonFile(report_path);
    if (!parsed.ok())
        return parsed.status();
    const JsonValue &doc = parsed.value();
    if (!doc.isObject()) {
        return Status::error("malformed sweep report: not an object")
            .withFile(report_path);
    }

    BenchReport bench;
    bench.build = buildInfo();
    // Prefer the provenance of the binary that *ran* the sweep (the
    // report stamp) over this aggregator's own.
    if (const JsonValue *bi = doc.find("buildInfo"); bi && bi->isObject())
        bench.build = parseBuildInfoJson(*bi);
    if (const JsonValue *v = doc.find("intervalCycles"))
        bench.intervalCycles = v->asUint();
    if (const JsonValue *summary = doc.find("summary")) {
        if (const JsonValue *v = summary->find("total"))
            bench.jobsTotal = v->asUint();
        if (const JsonValue *v = summary->find("ok"))
            bench.jobsOk = v->asUint();
        if (const JsonValue *v = summary->find("failed"))
            bench.jobsFailed = v->asUint();
    }
    if (const JsonValue *timing = doc.find("timing"))
        if (const JsonValue *v = timing->find("wallSeconds"))
            bench.wallSeconds = v->asNumber();

    const JsonValue *jobs = doc.find("jobs");
    if (!jobs || !jobs->isArray()) {
        return Status::error("sweep report has no jobs array")
            .withFile(report_path);
    }

    double host_user = 0.0, host_sys = 0.0;
    uint64_t host_rss = 0, host_uops = 0;
    bool any_host = false;

    for (const JsonValue &job : jobs->items) {
        const JsonValue *done = job.find("done");
        const JsonValue *cls = job.find("class");
        if (!done || !done->boolValue || !cls ||
            cls->asString() != "ok") {
            continue;
        }
        const JsonValue *metrics = job.find("metrics");
        if (!metrics || !metrics->isObject())
            continue;

        BenchRow row;
        uint64_t id = 0, ways = 0;
        if (const JsonValue *v = job.find("id"))
            id = v->asUint();
        if (const JsonValue *v = job.find("frontend"))
            row.frontend = v->asString();
        if (const JsonValue *v = job.find("workload"))
            row.workload = v->asString();
        if (const JsonValue *v = job.find("capacity"))
            row.capacity = v->asUint();
        if (const JsonValue *v = job.find("ways"))
            ways = v->asUint();
        row.id = rowLabel(row.frontend, row.workload, row.capacity,
                          ways);

        if (const JsonValue *v = metrics->find("missRate"))
            row.missRate = v->asNumber();
        if (const JsonValue *v = metrics->find("bandwidth"))
            row.bandwidth = v->asNumber();
        if (const JsonValue *v = metrics->find("overallIpc"))
            row.overallIpc = v->asNumber();
        if (const JsonValue *v = metrics->find("cycles"))
            row.cycles = v->asUint();
        if (const JsonValue *v = metrics->find("totalUops"))
            row.totalUops = v->asUint();
        if (const JsonValue *v = metrics->find("attrib"))
            row.attrib = parseAttribRollup(*v);

        if (const JsonValue *ru = job.find("rusage");
            ru && ru->isObject()) {
            row.host = parseHost(*ru);
            if (const JsonValue *v = job.find("seconds"))
                row.host.seconds = v->asNumber();
            if (row.host.cpuSec() > 0.0) {
                row.host.uopsPerHostSec =
                    (double)row.totalUops / row.host.cpuSec();
            }
            any_host = true;
            host_user += row.host.userSec;
            host_sys += row.host.sysSec;
            host_rss = std::max(host_rss, row.host.maxRssKb);
            host_uops += row.totalUops;
        }

        row.intervals = readIntervalFile(
            dir + "/intervals/job-" + std::to_string(id) + ".jsonl");

        bench.rows.push_back(std::move(row));
    }

    if (any_host) {
        bench.host.has = true;
        bench.host.seconds = bench.wallSeconds;
        bench.host.userSec = host_user;
        bench.host.sysSec = host_sys;
        bench.host.maxRssKb = host_rss;
        if (bench.host.cpuSec() > 0.0) {
            bench.host.uopsPerHostSec =
                (double)host_uops / bench.host.cpuSec();
        }
    }
    return bench;
}

std::string
renderBenchJson(const BenchReport &report)
{
    std::ostringstream os;
    {
        JsonWriter jw(os, /*pretty=*/true);
        jw.beginObject();
        jw.field("version", (uint64_t)report.version);
        writeBuildInfoJson(jw, report.build);
        jw.beginObject("jobs");
        jw.field("total", report.jobsTotal);
        jw.field("ok", report.jobsOk);
        jw.field("failed", report.jobsFailed);
        jw.endObject();
        jw.field("wallSeconds", report.wallSeconds);
        jw.field("intervalCycles", report.intervalCycles);
        if (report.host.has)
            writeHost(jw, report.host, "host");
        jw.beginArray("rows");
        for (const BenchRow &row : report.rows)
            writeRow(jw, row);
        jw.endArray();
        jw.endObject();
    }
    return os.str();
}

Expected<BenchReport>
parseBenchJson(const std::string &text, const std::string &path)
{
    JsonValue doc;
    std::string err;
    if (!parseJson(text, &doc, &err) || !doc.isObject()) {
        return Status::error("malformed bench report: " + err)
            .withFile(path);
    }
    BenchReport bench;
    if (const JsonValue *v = doc.find("version"))
        bench.version = (int)v->asUint();
    if (bench.version != 1) {
        return Status::error("unsupported bench report version " +
                             std::to_string(bench.version))
            .withFile(path);
    }
    if (const JsonValue *v = doc.find("buildInfo"); v && v->isObject())
        bench.build = parseBuildInfoJson(*v);
    if (const JsonValue *jobs = doc.find("jobs")) {
        if (const JsonValue *v = jobs->find("total"))
            bench.jobsTotal = v->asUint();
        if (const JsonValue *v = jobs->find("ok"))
            bench.jobsOk = v->asUint();
        if (const JsonValue *v = jobs->find("failed"))
            bench.jobsFailed = v->asUint();
    }
    if (const JsonValue *v = doc.find("wallSeconds"))
        bench.wallSeconds = v->asNumber();
    if (const JsonValue *v = doc.find("intervalCycles"))
        bench.intervalCycles = v->asUint();
    if (const JsonValue *v = doc.find("host"); v && v->isObject())
        bench.host = parseHost(*v);
    if (const JsonValue *rows = doc.find("rows");
        rows && rows->isArray()) {
        for (const JsonValue &row : rows->items)
            bench.rows.push_back(parseRow(row));
    }
    return bench;
}

Expected<BenchReport>
readBenchFile(const std::string &path)
{
    Expected<std::string> text = readFileToString(path);
    if (!text.ok())
        return text.status();
    return parseBenchJson(text.value(), path);
}

const char *
metricVerdictName(MetricVerdict v)
{
    switch (v) {
      case MetricVerdict::Pass:          return "pass";
      case MetricVerdict::Warn:          return "warn";
      case MetricVerdict::Regress:       return "regress";
      case MetricVerdict::MissingMetric: return "missing";
    }
    return "?";
}

namespace
{

/** lower-is-better, higher-is-better, or must-match-exactly. */
enum class Direction
{
    Lower,
    Higher,
    Exact,
};

void
compareMetric(RegressReport &out, const RegressOptions &opts,
              const std::string &name, double baseline, double current,
              Direction dir, bool host)
{
    MetricDelta d;
    d.name = name;
    d.baseline = baseline;
    d.current = current;
    d.host = host;
    d.tol = dir == Direction::Exact ? 0.0
            : host                  ? opts.hostTol
                                    : opts.paperTol;
    if (std::fabs(baseline) > 1e-12)
        d.rel = (current - baseline) / std::fabs(baseline);
    else
        d.rel = current - baseline;  // absolute fallback near zero

    bool worse = false;
    switch (dir) {
      case Direction::Lower:
        worse = d.rel > d.tol;
        d.improved = d.rel < -d.tol;
        break;
      case Direction::Higher:
        worse = d.rel < -d.tol;
        d.improved = d.rel > d.tol;
        break;
      case Direction::Exact:
        // Deterministic counters (uop totals): any drift in either
        // direction means the simulation changed, not just got
        // slower/faster.
        worse = std::fabs(d.rel) > 1e-12;
        break;
    }

    if (worse) {
        if (host && !opts.gateHost) {
            d.verdict = MetricVerdict::Warn;
            ++out.warnings;
        } else {
            d.verdict = MetricVerdict::Regress;
            ++out.regressions;
        }
    } else {
        d.verdict = MetricVerdict::Pass;
        if (d.improved)
            ++out.improvements;
    }
    ++out.compared;
    out.deltas.push_back(std::move(d));
}

/**
 * Name the attribution category whose uop count moved the most
 * between two rollups ("" when nothing moved); used to annotate a
 * regressed row with its dominant loss source.
 */
std::string
dominantAttribShift(const AttribRollup &base, const AttribRollup &cur)
{
    auto countOf =
        [](const std::vector<std::pair<std::string, uint64_t>> &cats,
           const std::string &name) -> uint64_t {
        for (const auto &[n, c] : cats)
            if (n == name)
                return c;
        return 0;
    };
    std::string best;
    int64_t best_shift = 0;
    uint64_t best_mag = 0;
    auto consider = [&](const std::string &name) {
        if (name == best)
            return;
        int64_t shift = (int64_t)countOf(cur.uops, name) -
                        (int64_t)countOf(base.uops, name);
        uint64_t mag = (uint64_t)(shift < 0 ? -shift : shift);
        if (mag > best_mag) {
            best_mag = mag;
            best_shift = shift;
            best = name;
        }
    };
    for (const auto &[name, count] : base.uops)
        consider(name);
    for (const auto &[name, count] : cur.uops)
        consider(name);
    if (best.empty())
        return "";
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s %s%lld buildUops",
                  best.c_str(), best_shift >= 0 ? "+" : "",
                  (long long)best_shift);
    return buf;
}

void
missingMetric(RegressReport &out, const std::string &name,
              double baseline, bool host)
{
    MetricDelta d;
    d.name = name;
    d.baseline = baseline;
    d.host = host;
    d.verdict = MetricVerdict::MissingMetric;
    ++out.missing;
    out.deltas.push_back(std::move(d));
}

} // anonymous namespace

RegressReport
compareBench(const BenchReport &current, const BenchReport &baseline,
             const RegressOptions &opts)
{
    RegressReport out;
    out.buildMismatch =
        !buildCompatible(current.build, baseline.build,
                         &out.buildNotes);
    out.buildGated = out.buildMismatch && !opts.allowBuildMismatch;

    for (const BenchRow &base : baseline.rows) {
        const auto it = std::find_if(
            current.rows.begin(), current.rows.end(),
            [&](const BenchRow &r) { return r.id == base.id; });
        if (it == current.rows.end()) {
            missingMetric(out, base.id, base.bandwidth, false);
            continue;
        }
        const BenchRow &cur = *it;
        const std::size_t row_regressions = out.regressions;
        compareMetric(out, opts, base.id + ".missRate",
                      base.missRate, cur.missRate, Direction::Lower,
                      false);
        compareMetric(out, opts, base.id + ".bandwidth",
                      base.bandwidth, cur.bandwidth, Direction::Higher,
                      false);
        compareMetric(out, opts, base.id + ".overallIpc",
                      base.overallIpc, cur.overallIpc,
                      Direction::Higher, false);
        compareMetric(out, opts, base.id + ".cycles",
                      (double)base.cycles, (double)cur.cycles,
                      Direction::Lower, false);
        compareMetric(out, opts, base.id + ".totalUops",
                      (double)base.totalUops, (double)cur.totalUops,
                      Direction::Exact, false);
        if (base.intervals.has && base.intervals.windows > 0) {
            if (!cur.intervals.has || cur.intervals.windows == 0) {
                missingMetric(out, base.id + ".bwP50",
                              base.intervals.bwP50, false);
            } else {
                compareMetric(out, opts, base.id + ".bwP50",
                              base.intervals.bwP50,
                              cur.intervals.bwP50, Direction::Higher,
                              false);
                compareMetric(out, opts, base.id + ".bwP95",
                              base.intervals.bwP95,
                              cur.intervals.bwP95, Direction::Higher,
                              false);
                compareMetric(out, opts, base.id + ".bwP99",
                              base.intervals.bwP99,
                              cur.intervals.bwP99, Direction::Higher,
                              false);
            }
        }
        // A regressed row with attribution on both sides gets a note
        // naming where the loss went, so the gate failure points at a
        // mechanism and not just a number.
        if (out.regressions > row_regressions && base.attrib.has &&
            cur.attrib.has) {
            std::string shift =
                dominantAttribShift(base.attrib, cur.attrib);
            if (!shift.empty())
                out.attribNotes.push_back(base.id + ": " + shift);
        }
    }

    // Host throughput is compared sweep-wide only: per-job host
    // numbers are too noisy for even a loose gate.
    if (baseline.host.has) {
        if (!current.host.has) {
            missingMetric(out, "host.cpuSec", baseline.host.cpuSec(),
                          true);
        } else {
            compareMetric(out, opts, "host.cpuSec",
                          baseline.host.cpuSec(),
                          current.host.cpuSec(), Direction::Lower,
                          true);
            compareMetric(out, opts, "host.maxRssKb",
                          (double)baseline.host.maxRssKb,
                          (double)current.host.maxRssKb,
                          Direction::Lower, true);
            compareMetric(out, opts, "host.uopsPerHostSec",
                          baseline.host.uopsPerHostSec,
                          current.host.uopsPerHostSec,
                          Direction::Higher, true);
        }
    }

    return out;
}

std::string
renderRegressTable(const RegressReport &report, bool all)
{
    TextTable table({"metric", "baseline", "current", "delta%",
                     "tol%", "verdict"});
    for (const MetricDelta &d : report.deltas) {
        if (!all && d.verdict == MetricVerdict::Pass && !d.improved)
            continue;
        std::string verdict = metricVerdictName(d.verdict);
        if (d.improved)
            verdict += " (improved)";
        table.addRow({d.name, TextTable::num(d.baseline, 4),
                      d.verdict == MetricVerdict::MissingMetric
                          ? "-"
                          : TextTable::num(d.current, 4),
                      d.verdict == MetricVerdict::MissingMetric
                          ? "-"
                          : TextTable::num(d.rel * 100.0, 2),
                      TextTable::num(d.tol * 100.0, 2), verdict});
    }

    std::ostringstream os;
    for (const std::string &note : report.buildNotes)
        os << "note: build differs: " << note << "\n";
    for (const std::string &note : report.attribNotes)
        os << "note: dominant loss shift: " << note << "\n";
    if (report.buildMismatch) {
        os << (report.buildGated ? "FAIL" : "note")
           << ": baseline build incompatible (buildType/sanitizer "
              "mismatch)\n";
    }
    if (table.numRows() > 0)
        os << table.render();
    char line[224];
    std::snprintf(line, sizeof(line),
                  "regress: %zu compared, %zu regression%s, %zu "
                  "warning%s, %zu missing, %zu improved -> %s\n",
                  report.compared, report.regressions,
                  report.regressions == 1 ? "" : "s", report.warnings,
                  report.warnings == 1 ? "" : "s", report.missing,
                  report.improvements,
                  report.pass() ? "PASS" : "FAIL");
    os << line;
    return os.str();
}

std::string
renderBenchRecord(const BenchReport &current,
                  const RegressReport &regress,
                  const std::string &baseline_path)
{
    std::ostringstream os;
    {
        JsonWriter jw(os, /*pretty=*/true);
        jw.beginObject();
        jw.field("verdict", regress.pass() ? "pass" : "fail");
        jw.field("baseline", baseline_path);
        jw.beginObject("comparison");
        jw.field("compared", (uint64_t)regress.compared);
        jw.field("regressions", (uint64_t)regress.regressions);
        jw.field("warnings", (uint64_t)regress.warnings);
        jw.field("missing", (uint64_t)regress.missing);
        jw.field("improved", (uint64_t)regress.improvements);
        jw.field("buildMismatch", regress.buildMismatch);
        jw.endObject();
        // Baseline provenance: the sampling geometry the record was
        // taken with, so a refresh with a different window size or
        // window count is visible at review time.
        {
            uint64_t windows = 0;
            for (const BenchRow &row : current.rows)
                windows += row.intervals.windows;
            jw.beginObject("recordedFrom");
            jw.field("intervalCycles", current.intervalCycles);
            jw.field("windows", windows);
            jw.field("rows", (uint64_t)current.rows.size());
            jw.endObject();
        }
        jw.beginArray("attribNotes");
        for (const std::string &note : regress.attribNotes)
            jw.field("", note);
        jw.endArray();
        jw.beginArray("flagged");
        for (const MetricDelta &d : regress.deltas) {
            if (d.verdict == MetricVerdict::Pass && !d.improved)
                continue;
            jw.beginObject();
            jw.field("metric", d.name);
            jw.field("baseline", d.baseline);
            jw.field("current", d.current);
            jw.field("rel", d.rel);
            jw.field("verdict", metricVerdictName(d.verdict));
            jw.field("improved", d.improved);
            jw.endObject();
        }
        jw.endArray();
        // Full current numbers so the record is self-contained.
        jw.beginObject("bench");
        jw.field("version", (uint64_t)current.version);
        writeBuildInfoJson(jw, current.build);
        jw.beginObject("jobs");
        jw.field("total", current.jobsTotal);
        jw.field("ok", current.jobsOk);
        jw.field("failed", current.jobsFailed);
        jw.endObject();
        jw.field("wallSeconds", current.wallSeconds);
        jw.field("intervalCycles", current.intervalCycles);
        if (current.host.has)
            writeHost(jw, current.host, "host");
        jw.beginArray("rows");
        for (const BenchRow &row : current.rows)
            writeRow(jw, row);
        jw.endArray();
        jw.endObject();
        jw.endObject();
    }
    return os.str();
}

} // namespace xbs
