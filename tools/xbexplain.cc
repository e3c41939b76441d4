/**
 * @file
 * xbexplain - renders the miss-attribution layer's answer to "where
 * did the lost cycles and build uops go?".
 *
 * Input is either one xbsim --json document (a top-level "attrib"
 * object) or one xbatch report.json (a "jobs" array whose ok jobs
 * carry metrics.attrib); the tool does not care which tool wrote the
 * file, only which shape it finds.
 *
 * Single mode prints, per run, the uop and silent-cycle categories
 * ranked by share. Diff mode (--diff BASE CUR) matches runs by id and
 * prints per-category deltas ranked by magnitude — the table a bench
 * gate failure should be read next to. Both modes write a
 * machine-readable explain.json with --out (schema:
 * tools/explain.schema.json).
 *
 * The category-sum invariants (uops == buildUops, cycles ==
 * silentCycles) are checked for every run; a violation prints the
 * offender and exits 2 (kExitData), so CI can gate on accounting
 * integrity.
 *
 * Examples:
 *   xbsim --frontend=xbc --json > run.json && xbexplain run.json
 *   xbexplain --diff base/report.json cur/report.json --out=explain.json
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "attrib/rollup.hh"
#include "common/args.hh"
#include "common/json.hh"
#include "common/status.hh"
#include "common/table.hh"

using namespace xbs;

namespace
{

/** One attributed run: a single xbsim invocation or one sweep job. */
struct Unit
{
    std::string id;  ///< "frontend/workload@capacity" label
    AttribRollup attrib;
};

std::string
unitLabel(const std::string &frontend, const std::string &workload,
          uint64_t capacity, uint64_t ways)
{
    std::string s = frontend + "/" + workload;
    if (capacity) {
        s += "@" + std::to_string(capacity);
        if (ways)
            s += "w" + std::to_string(ways);
    }
    return s;
}

/** Pull the units out of either input shape. */
int
extractUnits(const std::string &path, std::vector<Unit> *units)
{
    Expected<JsonValue> parsed = readJsonFile(path);
    if (!parsed.ok()) {
        std::fprintf(stderr, "xbexplain: %s\n",
                     parsed.status().toString().c_str());
        return kExitData;
    }
    const JsonValue &doc = parsed.value();
    if (!doc.isObject()) {
        std::fprintf(stderr, "xbexplain: %s: not a JSON object\n",
                     path.c_str());
        return kExitData;
    }

    if (const JsonValue *jobs = doc.find("jobs");
        jobs && jobs->isArray()) {
        // Sweep report: one unit per completed ok job with attrib.
        for (const JsonValue &job : jobs->items) {
            const JsonValue *done = job.find("done");
            const JsonValue *cls = job.find("class");
            if (!done || !done->boolValue || !cls ||
                cls->asString() != "ok") {
                continue;
            }
            const JsonValue *metrics = job.find("metrics");
            const JsonValue *attrib =
                metrics ? metrics->find("attrib") : nullptr;
            if (!attrib)
                continue;
            Unit u;
            u.attrib = parseAttribRollup(*attrib);
            std::string frontend, workload;
            uint64_t capacity = 0, ways = 0;
            if (const JsonValue *v = job.find("frontend"))
                frontend = v->asString();
            if (const JsonValue *v = job.find("workload"))
                workload = v->asString();
            if (const JsonValue *v = job.find("capacity"))
                capacity = v->asUint();
            if (const JsonValue *v = job.find("ways"))
                ways = v->asUint();
            u.id = unitLabel(frontend, workload, capacity, ways);
            units->push_back(std::move(u));
        }
        if (units->empty()) {
            std::fprintf(stderr,
                         "xbexplain: %s: no ok jobs carry an attrib "
                         "rollup\n",
                         path.c_str());
            return kExitData;
        }
        return kExitOk;
    }

    const JsonValue *attrib = doc.find("attrib");
    if (!attrib) {
        std::fprintf(stderr,
                     "xbexplain: %s: neither a jobs array nor an "
                     "attrib object\n",
                     path.c_str());
        return kExitData;
    }
    Unit u;
    u.attrib = parseAttribRollup(*attrib);
    std::string frontend, workload;
    uint64_t capacity = 0;
    if (const JsonValue *v = doc.find("frontend"))
        frontend = v->asString();
    if (const JsonValue *v = doc.find("workload"))
        workload = v->asString();
    if (const JsonValue *v = doc.find("capacityUops"))
        capacity = v->asUint();
    u.id = unitLabel(frontend, workload, capacity, 0);
    units->push_back(std::move(u));
    return kExitOk;
}

/** Check both sum invariants; print every violation found. */
bool
checkSums(const std::vector<Unit> &units, const std::string &path)
{
    bool ok = true;
    for (const Unit &u : units) {
        if (u.attrib.sumsMatch())
            continue;
        ok = false;
        std::fprintf(stderr,
                     "xbexplain: %s: %s: category sums broken "
                     "(uops %llu vs buildUops %llu, cycles %llu vs "
                     "silentCycles %llu)\n",
                     path.c_str(), u.id.c_str(),
                     (unsigned long long)u.attrib.uopSum(),
                     (unsigned long long)u.attrib.buildUops,
                     (unsigned long long)u.attrib.cycleSum(),
                     (unsigned long long)u.attrib.silentCycles);
    }
    return ok;
}

using Categories = std::vector<std::pair<std::string, uint64_t>>;

uint64_t
countOf(const Categories &cats, const std::string &name)
{
    for (const auto &[n, c] : cats)
        if (n == name)
            return c;
    return 0;
}

/** Category names present in either list, baseline order first. */
std::vector<std::string>
unionNames(const Categories &a, const Categories &b)
{
    std::vector<std::string> names;
    auto add = [&](const std::string &n) {
        if (std::find(names.begin(), names.end(), n) == names.end())
            names.push_back(n);
    };
    for (const auto &[n, c] : a)
        add(n);
    for (const auto &[n, c] : b)
        add(n);
    return names;
}

void
printTopLoss(const Unit &u, unsigned top)
{
    std::printf("%s  (buildUops %llu, silentCycles %llu)\n",
                u.id.c_str(),
                (unsigned long long)u.attrib.buildUops,
                (unsigned long long)u.attrib.silentCycles);
    auto render = [&](const char *kind, const Categories &cats,
                      uint64_t total) {
        Categories sorted = cats;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const auto &a, const auto &b) {
                             return a.second > b.second;
                         });
        TextTable table({"cause", kind, "share"});
        unsigned shown = 0;
        for (const auto &[name, count] : sorted) {
            if (shown++ >= top)
                break;
            table.addRow({name, std::to_string(count),
                          TextTable::pct(
                              total ? (double)count / (double)total
                                    : 0.0)});
        }
        if (table.numRows() > 0)
            std::fputs(table.render().c_str(), stdout);
    };
    render("buildUops", u.attrib.uops, u.attrib.buildUops);
    render("silentCycles", u.attrib.cycles, u.attrib.silentCycles);
    std::printf("\n");
}

/** One matched pair's per-category deltas, magnitude-ranked. */
struct DiffRow
{
    std::string unit;
    std::string kind;  ///< "uops" | "cycles"
    std::string cause;
    uint64_t baseline = 0;
    uint64_t current = 0;
    int64_t delta = 0;
};

std::vector<DiffRow>
diffUnits(const Unit &base, const Unit &cur)
{
    std::vector<DiffRow> rows;
    auto fold = [&](const char *kind, const Categories &b,
                    const Categories &c) {
        for (const std::string &name : unionNames(b, c)) {
            DiffRow row;
            row.unit = base.id;
            row.kind = kind;
            row.cause = name;
            row.baseline = countOf(b, name);
            row.current = countOf(c, name);
            row.delta =
                (int64_t)row.current - (int64_t)row.baseline;
            if (row.delta != 0)
                rows.push_back(std::move(row));
        }
    };
    fold("uops", base.attrib.uops, cur.attrib.uops);
    fold("cycles", base.attrib.cycles, cur.attrib.cycles);
    return rows;
}

void
writeExplainJson(const std::string &path, const std::string &mode,
                 const std::vector<Unit> &units,
                 const std::vector<DiffRow> &diff, bool sums_ok)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "xbexplain: cannot write '%s'\n",
                     path.c_str());
        std::exit(kExitData);
    }
    JsonWriter jw(os, /*pretty=*/true);
    jw.beginObject();
    jw.field("version", (uint64_t)1);
    jw.field("mode", mode);
    jw.field("sumsOk", sums_ok);
    jw.beginArray("units");
    for (const Unit &u : units) {
        jw.beginObject();
        jw.field("id", u.id);
        jw.field("sumsOk", u.attrib.sumsMatch());
        writeAttribRollup(jw, u.attrib);
        jw.endObject();
    }
    jw.endArray();
    jw.beginArray("diff");
    for (const DiffRow &row : diff) {
        jw.beginObject();
        jw.field("unit", row.unit);
        jw.field("kind", row.kind);
        jw.field("cause", row.cause);
        jw.field("baseline", row.baseline);
        jw.field("current", row.current);
        jw.field("delta", row.delta);
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();
    os << "\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool diff = false;
    std::string out;
    std::string top_str = "8";

    ArgParser args("xbexplain",
                   "attribute lost uops/cycles to root causes");
    args.addBool("diff", &diff,
                 "compare two runs: BASELINE CURRENT");
    args.addString("out", &out, "write machine-readable explain.json");
    args.addString("top", &top_str, "rows per table (single mode)");
    if (!args.parse(argc, argv))
        return kExitOk;

    const auto &paths = args.positional();
    if ((diff && paths.size() != 2) || (!diff && paths.size() != 1)) {
        std::fprintf(stderr,
                     "xbexplain: expected %s, got %zu paths "
                     "(--help for usage)\n",
                     diff ? "--diff BASELINE CURRENT" : "one input",
                     paths.size());
        return kExitUsage;
    }
    unsigned top = (unsigned)std::strtoul(top_str.c_str(), nullptr, 10);
    if (top == 0)
        top = 8;

    std::vector<Unit> units;
    int rc = extractUnits(paths[0], &units);
    if (rc != kExitOk)
        return rc;
    bool sums_ok = checkSums(units, paths[0]);
    std::vector<DiffRow> diff_rows;

    if (!diff) {
        for (const Unit &u : units)
            printTopLoss(u, top);
    } else {
        std::vector<Unit> current;
        rc = extractUnits(paths[1], &current);
        if (rc != kExitOk)
            return rc;
        sums_ok = checkSums(current, paths[1]) && sums_ok;

        // Match by id; two single-run files are paired directly so a
        // capacity sweep of the same workload stays comparable.
        std::size_t matched = 0;
        TextTable table({"unit", "kind", "cause", "baseline",
                         "current", "delta"});
        for (const Unit &base : units) {
            const Unit *cur = nullptr;
            if (units.size() == 1 && current.size() == 1) {
                cur = &current[0];
            } else {
                auto it = std::find_if(
                    current.begin(), current.end(),
                    [&](const Unit &u) { return u.id == base.id; });
                cur = it != current.end() ? &*it : nullptr;
            }
            if (!cur)
                continue;
            ++matched;
            std::vector<DiffRow> rows = diffUnits(base, *cur);
            diff_rows.insert(diff_rows.end(), rows.begin(),
                             rows.end());
        }
        std::stable_sort(diff_rows.begin(), diff_rows.end(),
                         [](const DiffRow &a, const DiffRow &b) {
                             uint64_t ma = (uint64_t)(a.delta < 0
                                                          ? -a.delta
                                                          : a.delta);
                             uint64_t mb = (uint64_t)(b.delta < 0
                                                          ? -b.delta
                                                          : b.delta);
                             return ma > mb;
                         });
        for (const DiffRow &row : diff_rows) {
            table.addRow({row.unit, row.kind, row.cause,
                          std::to_string(row.baseline),
                          std::to_string(row.current),
                          (row.delta >= 0 ? "+" : "") +
                              std::to_string(row.delta)});
        }
        if (table.numRows() > 0)
            std::fputs(table.render().c_str(), stdout);
        else
            std::printf("no attribution deltas\n");
        if (matched == 0) {
            std::fprintf(stderr,
                         "xbexplain: no units match between the two "
                         "inputs\n");
            return kExitData;
        }
        // The explain.json carries the *current* side's units.
        units = std::move(current);
    }

    if (!out.empty())
        writeExplainJson(out, diff ? "diff" : "single", units,
                         diff_rows, sums_ok);
    return sums_ok ? kExitOk : kExitData;
}
