#include "bench.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <optional>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/sha256.hh"
#include "core/data_array.hh"
#include "prof/host_counters.hh"
#include "trace/trace_io.hh"
#include "workload/builder.hh"
#include "workload/catalog.hh"
#include "workload/executor.hh"

namespace xbs::perfbench
{

void
SpanLog::open(const std::string &name, const std::string &layer,
              const std::string &cell)
{
    if (!enabled_)
        return;
    spans_.push_back(Span{name, layer, cell, nowSec(), 0.0,
                          stack_.empty() ? -1 : stack_.back(), 0});
    stack_.push_back((int)spans_.size() - 1);
}

void
SpanLog::close(uint64_t items)
{
    if (!enabled_)
        return;
    xbs_assert(!stack_.empty(), "SpanLog::close without open");
    Span &s = spans_[stack_.back()];
    s.end = nowSec();
    s.items = items;
    stack_.pop_back();
}

void
SpanLog::add(const std::string &name, const std::string &layer,
             const std::string &cell, double start, double end,
             uint64_t items)
{
    if (!enabled_)
        return;
    spans_.push_back(Span{name, layer, cell, start, end,
                          stack_.empty() ? -1 : stack_.back(), items});
}

std::vector<std::pair<std::string, double>>
SpanLog::selfTimes() const
{
    // Children never overlap their siblings (one thread), so the
    // covered part of a span is the sum of its children's durations.
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            self[s.parent] -= s.end - s.start;
    }
    std::vector<std::pair<std::string, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto it = std::find_if(out.begin(), out.end(), [&](auto &p) {
            return p.first == spans_[i].layer;
        });
        if (it == out.end())
            out.emplace_back(spans_[i].layer, self[i]);
        else
            it->second += self[i];
    }
    std::sort(out.begin(), out.end());
    return out;
}

void
SpanLog::writeChromeJson(std::ostream &os) const
{
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    JsonWriter json(os, /*pretty=*/false);
    json.beginObject();
    json.beginArray("traceEvents");
    json.beginObject();
    json.field("name", "process_name");
    json.field("ph", "M");
    json.field("pid", (uint64_t)0);
    json.beginObject("args");
    json.field("name", "perfbench");
    json.endObject();
    json.endObject();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        json.beginObject();
        json.field("name", s.name);
        json.field("cat", s.layer);
        json.field("ph", "X");
        json.fieldFull("ts", (s.start - t0) * 1e6);
        json.fieldFull("dur", (s.end - s.start) * 1e6);
        json.field("pid", (uint64_t)0);
        json.field("tid", (uint64_t)0);
        json.beginObject("args");
        json.field("id", (uint64_t)i);
        json.field("parent", (int64_t)s.parent);
        json.field("cell", s.cell);
        json.field("items", s.items);
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << "\n";
}

HostSpeed::HostSpeed() : table_(std::size_t(1) << 21)
{
    for (std::size_t i = 0; i < table_.size(); ++i)
        table_[i] = i * 2654435761u;
}

double
HostSpeed::factor()
{
    // 1M loads at addresses from an LCG, so they miss the private
    // caches like the simulator's tables do; the parity branch is
    // unpredictable, like the simulator's own.
    constexpr std::size_t kLoads = 1 << 20;
    const std::size_t mask = table_.size() - 1;
    uint64_t x = state_, sum = checksum_;
    const double t0 = nowSec();
    for (std::size_t i = 0; i < kLoads; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const uint64_t v = table_[(x >> 20) & mask];
        if (v & 1)
            sum += v;
        else
            sum ^= v >> 3;
    }
    const double sec = nowSec() - t0;
    state_ = x;
    checksum_ = sum;
    return sec / kQuietSec;
}

uint64_t
CellResult::count(const std::string &path) const
{
    for (const auto &[name, value] : counts) {
        if (name == path)
            return value;
    }
    return 0;
}

namespace
{

void
expectEqual(CellResult &cell, const char *what, uint64_t got,
            uint64_t want, const std::string &detail)
{
    if (got == want)
        return;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s: %" PRIu64 " != %" PRIu64 " (off by %" PRId64
                  ")%s",
                  what, got, want, (int64_t)(got - want),
                  detail.c_str());
    cell.failures.emplace_back(buf);
}

SimConfig
simConfig(const CellConfig &c)
{
    switch (c.kind) {
      case FrontendKind::Ic:
        return SimConfig::icBaseline();
      case FrontendKind::Dc:
        return SimConfig::dcBaseline((unsigned)c.capacity);
      case FrontendKind::Tc:
        return SimConfig::tcBaseline((unsigned)c.capacity);
      case FrontendKind::Bbtc:
        return SimConfig::bbtcBaseline((unsigned)c.capacity);
      case FrontendKind::Xbc:
        break;
    }
    return SimConfig::xbcBaseline((unsigned)c.capacity);
}

/** The IC baseline has a fixed geometry, so its label has no size. */
std::string
cellLabel(const CellConfig &c, const std::string &workload)
{
    std::string label =
        std::string(frontendKindFlag(c.kind)) + "/" + workload;
    if (c.kind != FrontendKind::Ic)
        label += "@" + std::to_string(c.capacity);
    return label;
}

/** Stat counters (relative to the frontend's stat root) behind the
 *  per-layer count metrics. */
const std::vector<std::string> &
countersOf(FrontendKind kind)
{
    static const std::vector<std::string> none;
    static const std::vector<std::string> ic = {"frontend.icMisses"};
    static const std::vector<std::string> tc = {
        "tc.lookups", "tc.hits", "tc.inserts"};
    static const std::vector<std::string> xbc = {
        "xbSupplies",      "xbtb.lookups",      "xbtb.hits",
        "outmux.segments", "xbc.inserts",       "xbc.evictions",
        "xbc.variantDrops", "xbc.setSearches",  "xbc.setSearchHits",
        "xfu.xbsBuilt"};
    switch (kind) {
      case FrontendKind::Ic:
        return ic;
      case FrontendKind::Tc:
        return tc;
      case FrontendKind::Xbc:
        return xbc;
      default:
        return none;
    }
}

} // anonymous namespace

void
checkCell(CellResult &c)
{
    expectEqual(c, "uops: deliveryUops + buildUops", c.simUops(),
                c.traceUops, " vs the trace's total uops");
    expectEqual(c, "records: traceRecords", c.recordsSeen,
                c.traceRecords, " vs the trace's record count");
    expectEqual(c, "cycles: delivery + build + stall cycles",
                c.deliveryCycles + c.buildCycles + c.stallCycles,
                c.cycles, " vs cycles");
    expectEqual(c, "attrib: sum of attrib.uops", c.attribUops,
                c.buildUops, " vs buildUops");
    expectEqual(c, "attrib: sum of attrib.cycles", c.attribCycles,
                c.stallCycles, " vs stallCycles");
}

std::string
simDigest(const std::vector<CellResult> &cells)
{
    Sha256 sha;
    char buf[512];
    for (const CellResult &c : cells) {
        std::snprintf(buf, sizeof(buf),
                      "%s %" PRIu64 " %" PRIu64 " %" PRIu64
                      " %.17g %.17g\n",
                      c.label.c_str(), c.cycles, c.deliveryUops,
                      c.buildUops, c.bandwidth, c.missRate);
        sha.update(buf, std::strlen(buf));
    }
    return sha.hexDigest();
}

void
Outcome::addCells(const std::vector<CellResult> &cells)
{
    for (const CellResult &c : cells) {
        ++attempted;
        if (c.failures.empty())
            continue;
        ++failed;
        failedCells.emplace(c.label, c.failures.front());
        completed = completed && c.completed;
    }
}

void
Outcome::addRep(const std::vector<CellResult> &cells)
{
    addCells(cells);
    const std::string d = simDigest(cells);
    if (digest.empty())
        digest = d;
    else if (d != digest)
        digestMismatch = true;
}

const std::vector<std::pair<const char *, const char *>> &
endToEndMetrics()
{
    static const std::vector<std::pair<const char *, const char *>> m = {
        {"wall_s", "s"},         {"setup_s", "s"},
        {"sim_muops_per_s", "Muops/s"}, {"cpu_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return m;
}

const std::vector<std::pair<const char *, const char *>> &
perLayerMetrics()
{
    static const std::vector<std::pair<const char *, const char *>> m = {
        {"workload.program_ms", "ms"},
        {"workload.exec_ns_per_rec", "ns/rec"},
        {"trace.read_ns_per_rec", "ns/rec"},
        {"trace.write_ns_per_rec", "ns/rec"},
        {"trace.bytes_per_rec", "B/rec"},
        {"sim.make_frontend_ms", "ms"},
        {"core.run_ns_per_uop", "ns/uop"},
        {"core.array.lookup_ns", "ns"},
        {"core.array.insert_ns", "ns"},
        {"core.xb_supplies_per_kuop", "1/kuop"},
        {"core.xbtb.lookups_per_kuop", "1/kuop"},
        {"core.outmux.segments_per_kuop", "1/kuop"},
        {"core.array.inserts_per_kuop", "1/kuop"},
        {"core.array.evictions_per_kuop", "1/kuop"},
        {"core.array.variant_drops_per_kuop", "1/kuop"},
        {"core.array.set_searches_per_kuop", "1/kuop"},
        {"core.xfu.xbs_built_per_kuop", "1/kuop"},
        {"core.xbtb.hit_ratio", "ratio"},
        {"core.array.set_search_hit_ratio", "ratio"},
        {"core.build_cycle_share", "ratio"},
        {"ic.run_ns_per_uop", "ns/uop"},
        {"dc.run_ns_per_uop", "ns/uop"},
        {"tc.run_ns_per_uop", "ns/uop"},
        {"bbtc.run_ns_per_uop", "ns/uop"},
        {"tc.hit_ratio", "ratio"},
        {"tc.inserts_per_kuop", "1/kuop"},
        {"ic.misses_per_kuop", "1/kuop"},
        {"batch.cell_s_p50", "s"},
        {"batch.cell_s_max", "s"},
        {"batch.worker_busy_ratio", "ratio"},
        {"batch.overhead_s", "s"},
        {"batch.child_cpu_s", "s"},
        {"batch.child_rss_mb_max", "MB"},
        {"batch.retries", "count"},
        {"bench.trace_overhead_ratio", "ratio"},
    };
    return m;
}

bool
planFor(const std::string &workload, Plan *plan)
{
    if (workload != "in-process")
        return false;
    // 5M instructions: a cell's fixed costs (program synthesis,
    // frontend construction) stay under a tenth of it, and a 55-s run
    // holds about ten repetitions to take medians over.
    plan->name = workload;
    plan->insts = 5000000;
    plan->groups = {
        {"xbc-paper", {"gcc", "li", "word", "quake2"},
         {{FrontendKind::Xbc, 32768}}, false},
        {"xbc-small", {"access", "powerpnt"},
         {{FrontendKind::Xbc, 2048}}, false},
        {"replay", {"gcc", "word"},
         {{FrontendKind::Ic, 32768}, {FrontendKind::Dc, 32768},
          {FrontendKind::Tc, 32768}, {FrontendKind::Bbtc, 32768}},
         true},
    };
    return true;
}

uint64_t
executorSeed(const std::string &name, uint64_t seed)
{
    const uint64_t catalog = findWorkload(name).profile.seed;
    return seed == 0 ? catalog : catalog ^ Rng(seed).next();
}

Trace
generateTrace(const std::string &name, uint64_t seed, uint64_t insts,
              SpanLog &spans)
{
    const double t0 = nowSec();
    std::shared_ptr<const Program> program =
        buildProgram(findWorkload(name).profile);
    const double t1 = nowSec();
    Executor executor(program, executorSeed(name, seed));
    Trace trace = executor.run(insts);
    const double t2 = nowSec();
    spans.add("buildProgram", "workload", name, t0, t1, 1);
    spans.add("Executor::run", "workload", name, t1, t2,
              trace.numRecords());
    return trace;
}

CellResult
runCell(const Trace &trace, const std::string &workload,
        const CellConfig &config, SpanLog &spans, double *setup_sec)
{
    CellResult c;
    c.label = cellLabel(config, workload);
    c.workload = workload;
    c.frontend = frontendKindFlag(config.kind);
    c.capacity = config.kind == FrontendKind::Ic ? 0 : config.capacity;
    c.traceUops = trace.totalUops();
    c.traceRecords = trace.numRecords();

    const double t0 = nowSec();
    std::unique_ptr<Frontend> fe = makeFrontend(simConfig(config));
    const double t1 = nowSec();
    fe->run(trace);
    const double t2 = nowSec();
    *setup_sec = t1 - t0;
    c.runSec = t2 - t1;

    const FrontendMetrics &m = fe->metrics();
    c.cycles = m.cycles.value();
    c.deliveryCycles = m.deliveryCycles.value();
    c.buildCycles = m.buildCycles.value();
    c.stallCycles = m.stallCycles.value();
    c.deliveryUops = m.deliveryUops.value();
    c.buildUops = m.buildUops.value();
    c.recordsSeen = m.traceRecords.value();
    c.attribUops = fe->attrib().chargedUops();
    c.attribCycles = fe->attrib().chargedCycles();
    c.bandwidth = m.bandwidth();
    c.missRate = m.missRate();
    for (const std::string &path : countersOf(config.kind)) {
        const auto *stat = dynamic_cast<const ScalarStat *>(
            fe->statRoot().find(path));
        if (!stat)
            xbs_fatal("perfbench: stat '%s' missing under '%s'",
                      path.c_str(), fe->name().c_str());
        c.counts.emplace_back(path, stat->value());
    }

    const std::string layer = c.frontend == "xbc" ? "core" : c.frontend;
    spans.add("makeFrontend", "sim", c.label, t0, t1, 1);
    spans.add("Frontend::run", layer, c.label, t1, t2, c.simUops());
    return c;
}

std::string
replayTracePath(const std::string &work_dir, const std::string &name,
                uint64_t seed)
{
    return work_dir + "/" + name + "-" + std::to_string(seed) + ".xbt";
}

double
cpuNowSec()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec / 1e9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

RepResult
runPlanRep(const Plan &plan, uint64_t seed, const std::string &work_dir,
           HostSpeed &speed, SpanLog &spans)
{
    RepResult rep;
    const double t0 = nowSec();
    spans.open("repetition", "bench", plan.name);
    double before = speed.factor();
    for (const Group &group : plan.groups) {
        for (const std::string &name : group.workloads) {
            RepResult::Part part;
            part.group = group.name;
            const double cpu0 = cpuNowSec();
            const double s0 = nowSec();
            spans.open("workload", "bench", group.name + "/" + name);
            std::optional<Trace> trace;
            if (group.replay) {
                const std::string path =
                    replayTracePath(work_dir, name, seed);
                Expected<Trace> loaded = readTraceEx(path);
                if (!loaded.ok())
                    xbs_fatal("perfbench: %s",
                              loaded.status().toString().c_str());
                trace.emplace(loaded.take());
                spans.add("readTraceEx", "trace", name, s0, nowSec(),
                          trace->numRecords());
            } else {
                trace.emplace(
                    generateTrace(name, seed, plan.insts, spans));
            }
            part.setupSec = nowSec() - s0;
            uint64_t uops = 0;
            const std::size_t first_cell = rep.cells.size();
            for (const CellConfig &config : group.configs) {
                spans.open("cell", "bench", cellLabel(config, name));
                double make_sec = 0.0;
                CellResult c = runCell(*trace, name, config, spans,
                                       &make_sec);
                checkCell(c);
                spans.close(c.simUops());
                part.setupSec += make_sec;
                uops += c.simUops();
                rep.cells.push_back(std::move(c));
            }
            trace.reset();
            spans.close(uops);
            part.wallSec = nowSec() - s0;
            part.cpuSec = cpuNowSec() - cpu0;
            const double after = speed.factor();
            part.hostFactor = (before + after) / 2.0;
            before = after;
            for (std::size_t i = first_cell; i < rep.cells.size(); ++i)
                rep.cells[i].hostFactor = part.hostFactor;
            rep.parts.push_back(part);
        }
    }
    spans.close();
    rep.wallSec = nowSec() - t0;
    rep.peakRssKb = HostCounters::self().maxRssKb - speed.tableKb();
    return rep;
}

std::vector<RepResult>
atQuietSpeed(std::vector<RepResult> reps)
{
    for (RepResult &r : reps) {
        double wall = 0.0;
        for (RepResult::Part &p : r.parts) {
            p.wallSec /= p.hostFactor;
            p.setupSec /= p.hostFactor;
            p.cpuSec /= p.hostFactor;
            p.hostFactor = 1.0;
            wall += p.wallSec;
        }
        r.wallSec = wall;
        for (CellResult &c : r.cells) {
            c.runSec /= c.hostFactor;
            c.hostFactor = 1.0;
        }
    }
    return reps;
}

std::vector<double>
endToEndValues(const std::vector<RepResult> &reps,
               const std::vector<double> &setups)
{
    std::vector<double> wall, cpu, rate;
    uint64_t rss_kb = 0;
    for (const RepResult &r : reps) {
        double w = 0.0, c = 0.0, run = 0.0, uops = 0.0;
        for (const RepResult::Part &part : r.parts) {
            w += part.wallSec;
            c += part.cpuSec;
        }
        for (const CellResult &cell : r.cells) {
            run += cell.runSec;
            uops += (double)cell.simUops();
        }
        wall.push_back(w);
        cpu.push_back(c);
        rate.push_back(uops / run / 1e6);
        rss_kb = std::max(rss_kb, r.peakRssKb);
    }
    return {median(wall), median(setups), median(rate), median(cpu),
            (double)rss_kb / 1024.0};
}

ArrayReplay
replayXbStream(const Trace &trace, uint64_t capacity)
{
    // XBs are inserted and looked up in batches of kBatch so the
    // clock is read twice per batch rather than around every call;
    // a lookup therefore follows up to kBatch-1 later inserts.
    constexpr std::size_t kBatch = 16;
    const XbcParams params =
        SimConfig::xbcBaseline((unsigned)capacity).xbc;
    StatGroup root("replay");
    XbcDataArray array(params, &root);
    array.bindCode(&trace.code());

    ArrayReplay r;
    std::vector<XbSeq> seqs;
    std::vector<uint64_t> ends;
    std::vector<XbPointer> ptrs(kBatch);
    uint64_t found = 0;
    auto flush = [&] {
        const double t0 = nowSec();
        for (std::size_t i = 0; i < seqs.size(); ++i)
            array.insert(seqs[i], ends[i], 0, &ptrs[i]);
        const double t1 = nowSec();
        for (std::size_t i = 0; i < seqs.size(); ++i) {
            if (!ptrs[i].valid)
                continue;
            const auto acc = array.lookup(ptrs[i].xbIp, ptrs[i].mask,
                                          ptrs[i].entryIdx);
            found += acc.variant != nullptr;
            ++r.lookups;
        }
        const double t2 = nowSec();
        r.insertSec += t1 - t0;
        r.lookupSec += t2 - t1;
        r.inserts += seqs.size();
        seqs.clear();
        ends.clear();
    };

    XbSeq seq;
    for (std::size_t i = 0; i < trace.numRecords(); ++i) {
        const StaticInst &si = trace.inst(i);
        if (seq.size() + si.numUops > params.xbQuotaUops)
            seq.clear();
        appendInstUops(trace.code(), trace.record(i).staticIdx, seq);
        if (si.endsXb()) {
            seqs.push_back(seq);
            ends.push_back(si.ip);
            seq.clear();
            if (seqs.size() == kBatch)
                flush();
        }
    }
    flush();
    if (found == 0 && r.lookups != 0)
        xbs_fatal("perfbench: no XB looked up after insert was found");
    return r;
}

} // namespace xbs::perfbench
