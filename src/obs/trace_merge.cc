#include "obs/trace_merge.hh"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "common/fs.hh"
#include "common/json.hh"

namespace xbs
{

namespace
{

constexpr uint64_t kJobPidBase = 100;
/// tid stride per attempt inside a job pid: attempt N's child tracks
/// live at 1 + (N-1)*kAttemptTidStride + track.
constexpr uint64_t kAttemptTidStride = 16;

double
usOf(double sec)
{
    return sec * 1e6;
}

void
metaEvent(JsonWriter &jw, const char *kind, uint64_t pid,
          uint64_t tid, bool has_tid, const std::string &name)
{
    jw.beginObject();
    jw.field("name", kind);
    jw.field("ph", "M");
    jw.field("pid", pid);
    if (has_tid)
        jw.field("tid", tid);
    jw.beginObject("args");
    jw.field("name", name);
    jw.endObject();
    jw.endObject();
}

void
spanEvent(JsonWriter &jw, const char *ph, const std::string &name,
          double ts_us, uint64_t pid, uint64_t tid)
{
    jw.beginObject();
    jw.field("name", name);
    jw.field("ph", ph);
    jw.field("ts", ts_us);
    jw.field("pid", pid);
    jw.field("tid", tid);
    jw.endObject();
}

/** A complete B..E pair, ready to emit in nesting order. */
struct Slice
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    uint64_t tid = 0;
};

/**
 * Fold one child trace file into @p slices: scale cycle timestamps
 * into [attempt start, attempt end] µs and rebalance B/E per track.
 * Instants/counters are dropped (the merged file is a span
 * timeline; per-cycle counters stay in the per-job files).
 */
void
foldChildTrace(const std::string &file, double start_us,
               double end_us, uint64_t tid_base,
               std::vector<Slice> *slices,
               std::map<uint64_t, std::string> *track_names)
{
    Expected<JsonValue> doc = readJsonFile(file);
    if (!doc.ok())
        return;  // missing/corrupt child trace: no in-sim tracks
    const JsonValue *events = doc.value().find("traceEvents");
    if (!events || !events->isArray())
        return;

    // Pass 1: the cycle span of the trace, for the linear rescale.
    uint64_t max_ts = 0;
    for (const JsonValue &ev : events->items) {
        const JsonValue *ph = ev.find("ph");
        if (!ph || !ph->isString() || ph->asString() == "M")
            continue;
        if (const JsonValue *ts = ev.find("ts"))
            max_ts = std::max(max_ts, ts->asUint());
    }
    const double dur_us = end_us - start_us;
    const double scale = max_ts ? dur_us / (double)max_ts : 0.0;

    struct Open
    {
        std::string name;
        double startUs;
    };
    std::map<uint64_t, std::vector<Open>> open;

    for (const JsonValue &ev : events->items) {
        const JsonValue *ph = ev.find("ph");
        const JsonValue *name = ev.find("name");
        if (!ph || !ph->isString() || !name || !name->isString())
            continue;
        const std::string &kind = ph->asString();
        const uint64_t raw_tid =
            ev.find("tid") ? ev.find("tid")->asUint() : 0;
        const uint64_t tid = tid_base + raw_tid;

        if (kind == "M") {
            if (name->asString() == "thread_name") {
                if (const JsonValue *args = ev.find("args")) {
                    if (const JsonValue *n = args->find("name")) {
                        (*track_names)[tid] =
                            n->asString() + " (a" +
                            std::to_string(
                                (tid_base - 1) / kAttemptTidStride
                                + 1) + ")";
                    }
                }
            }
            continue;
        }

        const double ts_us =
            start_us +
            (ev.find("ts") ? ev.find("ts")->asUint() : 0) * scale;
        if (kind == "B") {
            open[tid].push_back({name->asString(), ts_us});
        } else if (kind == "E") {
            auto &stack = open[tid];
            if (stack.empty())
                continue;  // stray End (ring drop): discard
            Slice s;
            s.name = stack.back().name;
            s.startUs = stack.back().startUs;
            s.endUs = ts_us;
            s.tid = tid;
            stack.pop_back();
            slices->push_back(std::move(s));
        }
        // Instants/counters: dropped on purpose (see doc comment).
    }

    // Dangling Begins (child died or ring dropped the End): close at
    // the attempt end so every emitted span is complete.
    for (auto &[tid, stack] : open) {
        while (!stack.empty()) {
            Slice s;
            s.name = stack.back().name;
            s.startUs = stack.back().startUs;
            s.endUs = end_us;
            s.tid = tid;
            stack.pop_back();
            slices->push_back(std::move(s));
        }
    }
}

/**
 * Emit @p slices of one pid as properly nested B/E events: sorted by
 * start (ties: longer first) per tid, Begin emitted at open, End
 * when the next slice starts after its end. A simple stack replay.
 * Slices from foldChildTrace nest (they came from balanced stacks),
 * but scheduler slices may only overlap: a retry can launch inside
 * its own backoff window and outlive it. An open slice that the new
 * slice outlives is ended at the new slice's start, so every track
 * stays nested and its timestamps never go down.
 */
void
emitSlices(JsonWriter &jw, uint64_t pid, std::vector<Slice> slices)
{
    std::stable_sort(slices.begin(), slices.end(),
                     [](const Slice &a, const Slice &b) {
                         if (a.tid != b.tid)
                             return a.tid < b.tid;
                         if (a.startUs != b.startUs)
                             return a.startUs < b.startUs;
                         return a.endUs > b.endUs;
                     });
    std::vector<const Slice *> stack;
    uint64_t cur_tid = ~0ull;
    auto drain = [&](double until_us) {
        while (!stack.empty() &&
               stack.back()->endUs <= until_us + 1e-9) {
            spanEvent(jw, "E", stack.back()->name,
                      stack.back()->endUs, pid, stack.back()->tid);
            stack.pop_back();
        }
    };
    for (const Slice &s : slices) {
        if (s.tid != cur_tid) {
            drain(1e300);
            cur_tid = s.tid;
        }
        drain(s.startUs);
        while (!stack.empty() && stack.back()->endUs < s.endUs) {
            spanEvent(jw, "E", stack.back()->name, s.startUs, pid,
                      s.tid);
            stack.pop_back();
        }
        spanEvent(jw, "B", s.name, s.startUs, pid, s.tid);
        stack.push_back(&s);
    }
    drain(1e300);
}

} // anonymous namespace

Status
writeSweepTrace(const std::string &path, const SweepSpanLog &spans,
                const std::string &events_dir)
{
    std::ostringstream os;
    {
        JsonWriter jw(os, /*pretty=*/false);
        jw.beginObject();
        jw.beginArray("traceEvents");

        // --- pid 0: the scheduler itself ---
        metaEvent(jw, "process_name", 0, 0, false, "scheduler");
        metaEvent(jw, "thread_name", 0, 0, true, "control");
        const double sweep_us = usOf(spans.sweepSeconds());
        spanEvent(jw, "B", "sweep", 0.0, 0, 0);

        // Worker-slot occupancy tracks (tid 1+slot).
        unsigned max_slot = 0;
        for (const AttemptSpan &a : spans.attempts())
            max_slot = std::max(max_slot, a.slot);
        for (unsigned s = 0; s <= max_slot; ++s) {
            metaEvent(jw, "thread_name", 0, 1 + s, true,
                      "worker " + std::to_string(s));
        }
        {
            std::vector<Slice> slot_slices;
            for (const AttemptSpan &a : spans.attempts()) {
                Slice s;
                s.name = "job " + std::to_string(a.job) + " a" +
                         std::to_string(a.attempt);
                s.startUs = usOf(a.startSec);
                s.endUs = usOf(a.endSec);
                s.tid = 1 + a.slot;
                slot_slices.push_back(std::move(s));
            }
            emitSlices(jw, 0, std::move(slot_slices));
        }
        spanEvent(jw, "E", "sweep", sweep_us, 0, 0);

        // --- one pid per job ---
        std::map<uint64_t, std::vector<const AttemptSpan *>> by_job;
        for (const AttemptSpan &a : spans.attempts())
            by_job[a.job].push_back(&a);

        for (auto &[job, list] : by_job) {
            const uint64_t pid = kJobPidBase + job;
            metaEvent(jw, "process_name", pid, 0, false,
                      "job " + std::to_string(job) + ": " +
                          list.front()->label);
            metaEvent(jw, "thread_name", pid, 0, true, "attempts");

            std::vector<Slice> slices;
            double job_start = list.front()->startSec;
            double job_end = list.front()->endSec;
            for (const AttemptSpan *a : list) {
                job_start = std::min(job_start, a->startSec);
                job_end = std::max(job_end, a->endSec);
            }
            for (const BackoffSpan &b : spans.backoffs()) {
                if (b.job != job)
                    continue;
                job_end = std::max(job_end, b.endSec);
                Slice s;
                s.name = "backoff";
                s.startUs = usOf(b.startSec);
                s.endUs = usOf(b.endSec);
                s.tid = 0;
                slices.push_back(std::move(s));
            }
            {
                Slice s;
                s.name = "job " + std::to_string(job);
                s.startUs = usOf(job_start);
                s.endUs = usOf(job_end);
                s.tid = 0;
                slices.push_back(std::move(s));
            }
            std::map<uint64_t, std::string> track_names;
            for (const AttemptSpan *a : list) {
                Slice s;
                s.name = "attempt " + std::to_string(a->attempt) +
                         (a->cls.empty() ? "" : " [" + a->cls + "]");
                s.startUs = usOf(a->startSec);
                s.endUs = usOf(a->endSec);
                s.tid = 0;
                slices.push_back(std::move(s));

                if (!events_dir.empty()) {
                    const std::string file =
                        events_dir + "/job-" + std::to_string(job) +
                        "-a" + std::to_string(a->attempt) + ".json";
                    foldChildTrace(
                        file, usOf(a->startSec), usOf(a->endSec),
                        1 + (uint64_t)(a->attempt - 1) *
                                kAttemptTidStride,
                        &slices, &track_names);
                }
            }
            for (const auto &[tid, name] : track_names)
                metaEvent(jw, "thread_name", pid, tid, true, name);
            emitSlices(jw, pid, std::move(slices));
        }

        jw.endArray();
        jw.field("displayTimeUnit", "ms");
        jw.endObject();
    }
    std::string text = os.str();
    text += '\n';
    return writeFileAtomic(path, text);
}

} // namespace xbs
