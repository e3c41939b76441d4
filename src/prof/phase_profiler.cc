#include "prof/phase_profiler.hh"

#include <cstdio>

namespace xbs
{

unsigned
PhaseProfiler::definePhase(const std::string &name, unsigned parent)
{
    for (unsigned i = 0; i < phases_.size(); ++i) {
        if (phases_[i].name == name && phases_[i].parent == parent)
            return i;
    }
    Phase p;
    p.name = name;
    p.parent = parent;
    phases_.push_back(std::move(p));
    return (unsigned)phases_.size() - 1;
}

uint64_t
PhaseProfiler::estimatedNs(unsigned id) const
{
    const Phase &p = phases_[id];
    if (!p.sampledCalls)
        return 0;
    // Scale sampled time by the sampling ratio. Doubles keep the
    // intermediate product from overflowing on long runs; the result
    // is an estimate anyway.
    return (uint64_t)((double)p.sampledNs * (double)p.calls /
                      (double)p.sampledCalls);
}

uint64_t
PhaseProfiler::totalEstimatedNs() const
{
    uint64_t total = 0;
    for (unsigned i = 0; i < phases_.size(); ++i) {
        if (phases_[i].parent == kNoPhase)
            total += estimatedNs(i);
    }
    return total;
}

unsigned
PhaseProfiler::depthOf(unsigned id) const
{
    unsigned depth = 0;
    for (unsigned p = phases_[id].parent; p != kNoPhase;
         p = phases_[p].parent) {
        ++depth;
    }
    return depth;
}

void
PhaseProfiler::writeJson(JsonWriter &jw, const std::string &key) const
{
    jw.beginArray(key);
    for (unsigned i = 0; i < phases_.size(); ++i) {
        const Phase &p = phases_[i];
        jw.beginObject();
        jw.field("name", p.name);
        jw.field("parent", p.parent == kNoPhase
                               ? ""
                               : phases_[p.parent].name);
        jw.field("calls", p.calls);
        jw.field("sampledCalls", p.sampledCalls);
        jw.field("estimatedMs", (double)estimatedNs(i) / 1e6);
        jw.field("avgNs",
                 p.sampledCalls
                     ? (double)p.sampledNs / (double)p.sampledCalls
                     : 0.0);
        jw.endObject();
    }
    jw.endArray();
}

std::string
PhaseProfiler::render() const
{
    const uint64_t total = totalEstimatedNs();
    std::string out;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %-24s %12s %10s %10s %7s\n", "phase", "calls",
                  "sampled", "est ms", "share");
    out += line;
    // Depth-first over the registration order (parents are always
    // registered before their children).
    std::vector<unsigned> order;
    std::vector<unsigned> stack;
    for (unsigned i = 0; i < phases_.size(); ++i) {
        if (phases_[i].parent == kNoPhase)
            stack.push_back(i);
    }
    // Preserve registration order for roots and siblings.
    for (auto it = stack.rbegin(); it != stack.rend(); ++it)
        order.push_back(*it);
    stack.assign(order.rbegin(), order.rend());
    order.clear();
    while (!stack.empty()) {
        unsigned id = stack.back();
        stack.pop_back();
        order.push_back(id);
        for (unsigned i = phases_.size(); i-- > 0;) {
            if (phases_[i].parent == id)
                stack.push_back(i);
        }
    }
    for (unsigned id : order) {
        const Phase &p = phases_[id];
        std::string name(2 * depthOf(id), ' ');
        name += p.name;
        uint64_t ns = estimatedNs(id);
        // sampledCalls sits next to calls so a reader can judge how
        // much confidence the scaled estimate deserves for
        // rarely-entered phases.
        std::snprintf(line, sizeof(line),
                      "  %-24s %12llu %10llu %10.2f %6.1f%%\n",
                      name.c_str(), (unsigned long long)p.calls,
                      (unsigned long long)p.sampledCalls,
                      (double)ns / 1e6,
                      total ? 100.0 * (double)ns / (double)total
                            : 0.0);
        out += line;
    }
    return out;
}

} // namespace xbs
