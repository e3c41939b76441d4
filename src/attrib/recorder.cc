#include "attrib/recorder.hh"

#include <string>

#include "attrib/array_acct.hh"
#include "ckpt/serial.hh"
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
AttribRecorder::noteDisruption(Cause cause)
{
    pending_ = cause;
    fresh_ = true;
}

void
AttribRecorder::clearDisruption()
{
    fresh_ = false;
}

void
AttribRecorder::enterBuild(Cause fallback)
{
    latched_ = fresh_ ? pending_ : fallback;
    fresh_ = false;
}

void
AttribRecorder::chargeBuildUops(uint64_t n)
{
    *uops_[idx(latched_)] += n;
}

void
AttribRecorder::noteStall(Cause cause, uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i)
        pendingStall_.push_back(cause);
}

void
AttribRecorder::chargeSilentCycle()
{
    Cause c = Cause::Unattributed;
    if (!pendingStall_.empty()) {
        c = pendingStall_.front();
        pendingStall_.pop_front();
    }
    ++*cycles_[idx(c)];
}

void
AttribRecorder::chargeSilentCycles(uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i)
        chargeSilentCycle();
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

void
AttribRecorder::ckptSave(CkptSink &sink) const
{
    sink.u8((uint8_t)pending_);
    sink.b(fresh_);
    sink.u8((uint8_t)latched_);
    sink.u64(pendingStall_.size());
    for (Cause c : pendingStall_)
        sink.u8((uint8_t)c);
}

void
AttribRecorder::ckptLoad(CkptSource &src)
{
    uint8_t pending = src.u8();
    bool fresh = src.b();
    uint8_t latched = src.u8();
    src.require(pending < kNumCauses && latched < kNumCauses);
    uint64_t n = src.count(1);
    std::deque<Cause> stall;
    for (uint64_t i = 0; src.ok() && i < n; ++i) {
        uint8_t c = src.u8();
        src.require(c < kNumCauses);
        if (src.ok())
            stall.push_back((Cause)c);
    }
    if (!src.ok())
        return;
    pending_ = (Cause)pending;
    fresh_ = fresh;
    latched_ = (Cause)latched;
    pendingStall_ = std::move(stall);
}

} // namespace xbs
