/**
 * @file
 * xbreport - post-processor for xbsim's interval statistics: reads
 * the interval JSONL emitted by `xbsim --interval-stats=N`,
 * classifies each window into a phase by its miss rate (delivery /
 * mixed / build), merges consecutive same-phase windows, and prints a
 * per-phase summary table plus whole-run totals. This turns the raw
 * window stream into the phase-level picture the paper's figures
 * reason about. Malformed input exits 1 (CI uses it as a gate).
 *
 * Examples:
 *   xbsim --frontend=xbc --interval-stats=10000
 *   xbreport intervals.jsonl
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"

using namespace xbs;

namespace
{

/** One parsed interval window (headline fields only). */
struct Window
{
    uint64_t index = 0;
    uint64_t startCycle = 0;
    uint64_t endCycle = 0;
    double bandwidth = 0.0;
    double missRate = 0.0;
    uint64_t deliveryUops = 0;
    uint64_t buildUops = 0;
    uint64_t renamedUops = 0;
    uint64_t modeSwitches = 0;
};

/** A run of consecutive same-phase windows. */
struct Phase
{
    std::string name;
    uint64_t startCycle = 0;
    uint64_t endCycle = 0;
    uint64_t windows = 0;
    uint64_t deliveryUops = 0;
    uint64_t buildUops = 0;
    uint64_t renamedUops = 0;
    uint64_t modeSwitches = 0;
};

/** Find the delta whose dotted path ends in @p suffix. */
uint64_t
deltaOf(const JsonValue &deltas, const std::string &suffix)
{
    const JsonValue *v = findBySuffix(deltas, suffix);
    return v ? v->asUint() : 0;
}

std::string
classify(const Window &w, double build_thresh, double delivery_thresh)
{
    if (w.missRate >= build_thresh)
        return "build";
    if (w.missRate <= delivery_thresh)
        return "delivery";
    return "mixed";
}

int
reportIntervals(const std::string &path, double build_thresh,
                double delivery_thresh, bool csv)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "xbreport: cannot open '%s'\n",
                     path.c_str());
        return 1;
    }

    std::vector<Window> windows;
    JsonlScan scan = forEachJsonLine(in, [&](const JsonValue &doc) {
        Window w;
        if (const auto *v = doc.find("interval"))
            w.index = v->asUint();
        if (const auto *v = doc.find("startCycle"))
            w.startCycle = v->asUint();
        if (const auto *v = doc.find("endCycle"))
            w.endCycle = v->asUint();
        if (const auto *v = doc.find("bandwidth"))
            w.bandwidth = v->asNumber();
        if (const auto *v = doc.find("missRate"))
            w.missRate = v->asNumber();
        if (const auto *d = doc.find("deltas"); d && d->isObject()) {
            w.deliveryUops = deltaOf(*d, "frontend.deliveryUops");
            w.buildUops = deltaOf(*d, "frontend.buildUops");
            w.renamedUops = deltaOf(*d, "frontend.renamedUops");
            w.modeSwitches = deltaOf(*d, "frontend.modeSwitches");
        }
        windows.push_back(w);
        return true;
    });
    if (!scan.clean()) {
        std::fprintf(stderr, "xbreport: %s:%zu: %s\n", path.c_str(),
                     scan.badLine, scan.error.c_str());
        return 1;
    }
    if (windows.empty()) {
        std::fprintf(stderr, "xbreport: '%s' holds no windows\n",
                     path.c_str());
        return 1;
    }

    // Merge consecutive same-phase windows.
    std::vector<Phase> phases;
    for (const auto &w : windows) {
        std::string name = classify(w, build_thresh, delivery_thresh);
        if (phases.empty() || phases.back().name != name) {
            Phase p;
            p.name = name;
            p.startCycle = w.startCycle;
            phases.push_back(p);
        }
        Phase &p = phases.back();
        p.endCycle = w.endCycle;
        ++p.windows;
        p.deliveryUops += w.deliveryUops;
        p.buildUops += w.buildUops;
        p.renamedUops += w.renamedUops;
        p.modeSwitches += w.modeSwitches;
    }

    TextTable table({"phase", "cycles", "windows", "deliveryUops",
                     "buildUops", "missRate", "bandwidth",
                     "modeSwitches"});
    Phase total;
    total.name = "total";
    total.startCycle = windows.front().startCycle;
    total.endCycle = windows.back().endCycle;
    auto addRow = [&](const Phase &p) {
        uint64_t uops = p.deliveryUops + p.buildUops;
        uint64_t cycles = p.endCycle - p.startCycle;
        table.addRow(
            {p.name, std::to_string(cycles),
             std::to_string(p.windows),
             std::to_string(p.deliveryUops),
             std::to_string(p.buildUops),
             TextTable::pct(uops ? (double)p.buildUops / (double)uops
                                 : 0.0),
             TextTable::num(cycles ? (double)p.renamedUops /
                                         (double)cycles
                                   : 0.0),
             std::to_string(p.modeSwitches)});
    };
    for (const auto &p : phases) {
        addRow(p);
        total.windows += p.windows;
        total.deliveryUops += p.deliveryUops;
        total.buildUops += p.buildUops;
        total.renamedUops += p.renamedUops;
        total.modeSwitches += p.modeSwitches;
    }
    addRow(total);

    std::fputs(csv ? table.csv().c_str() : table.render().c_str(),
               stdout);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    double build_thresh = 0.5;
    double delivery_thresh = 0.05;
    bool csv = false;

    ArgParser args("xbreport", "summarize xbsim interval output");
    args.addDouble("build-threshold", &build_thresh,
                   "missRate at/above which a window is 'build'");
    args.addDouble("delivery-threshold", &delivery_thresh,
                   "missRate at/below which a window is 'delivery'");
    args.addBool("csv", &csv, "emit CSV instead of an aligned table");
    if (!args.parse(argc, argv))
        return 0;
    if (delivery_thresh > build_thresh) {
        std::fprintf(stderr,
                     "xbreport: --delivery-threshold (%g) exceeds "
                     "--build-threshold (%g)\n",
                     delivery_thresh, build_thresh);
        return 1;
    }

    const auto &rest = args.positional();
    std::string path = rest.empty() ? "intervals.jsonl" : rest[0];
    return reportIntervals(path, build_thresh, delivery_thresh, csv);
}
