#include "attrib/recorder.hh"

#include <string>

#include "attrib/array_acct.hh"
#include "common/json.hh"

namespace xbs
{

AttribRecorder::AttribRecorder(StatGroup *parent)
    : StatGroup("attrib", parent),
      buildResidency(this, "buildResidency",
                     "cycles spent in build mode (== buildCycles)"),
      bankConflictDefers(this, "bankConflictDefers",
                         "delivery slots deferred by bank conflicts"),
      rsbUnderflows(this, "rsbUnderflows",
                    "return predictions from an empty return stack"),
      uopGroup_("uops", this),
      cycleGroup_("cycles", this)
{
    for (std::size_t i = 0; i < kNumCauses; ++i) {
        const char *name = causeName((Cause)i);
        uops_[i] = std::make_unique<ScalarStat>(
            &uopGroup_, name,
            std::string("build uops charged to ") + name);
        cycles_[i] = std::make_unique<ScalarStat>(
            &cycleGroup_, name,
            std::string("fetch-silent cycles charged to ") + name);
    }
}

void
AttribRecorder::enterBuild(Cause fallback)
{
    latched_ = fresh_ ? pending_ : fallback;
    fresh_ = false;
}

void
AttribRecorder::noteStall(Cause cause, uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i)
        pendingStall_.push_back(cause);
}

uint64_t
AttribRecorder::chargedUops() const
{
    uint64_t sum = 0;
    for (const auto &s : uops_)
        sum += s->value();
    return sum;
}

uint64_t
AttribRecorder::chargedCycles() const
{
    uint64_t sum = 0;
    for (const auto &s : cycles_)
        sum += s->value();
    return sum;
}

void
AttribRecorder::writeJson(JsonWriter &json, uint64_t build_uops,
                          uint64_t stall_cycles,
                          const ArrayAccounting *array) const
{
    json.beginObject("attrib");
    json.field("buildUops", build_uops);
    json.field("silentCycles", stall_cycles);
    json.field("buildResidency", buildResidency.value());
    json.field("bankConflictDefers", bankConflictDefers.value());
    json.field("rsbUnderflows", rsbUnderflows.value());
    json.beginObject("uops");
    for (std::size_t i = 0; i < kNumCauses; ++i)
        json.field(causeName((Cause)i), uops_[i]->value());
    json.endObject();
    json.beginObject("cycles");
    for (std::size_t i = 0; i < kNumCauses; ++i)
        json.field(causeName((Cause)i), cycles_[i]->value());
    json.endObject();
    if (array)
        array->writeJson(json);
    json.endObject();
}

} // namespace xbs
