#include "isa/static_inst.hh"

#include <algorithm>

#include "common/logging.hh"

namespace xbs
{

int32_t
StaticCode::append(const StaticInst &inst)
{
    xbs_assert(!finalized_, "appending to finalized StaticCode");
    xbs_assert(inst.length >= 1 && inst.length <= 15,
               "bad instruction length %u", inst.length);
    xbs_assert(inst.numUops >= 1, "instruction with no uops");
    insts_.push_back(inst);
    return (int32_t)insts_.size() - 1;
}

void
StaticCode::finalize()
{
    xbs_assert(!finalized_, "double finalize");
    totalUops_ = 0;
    for (std::size_t i = 0; i < insts_.size(); ++i) {
        auto &inst = insts_[i];
        xbs_assert(i == 0 || inst.ip > insts_[i - 1].ip, "%s IP %llx",
                   inst.ip == insts_[i - 1].ip ? "duplicate" : "descending",
                   (unsigned long long)inst.ip);
        xbs_assert(inst.takenIdx == kNoTarget ||
                   (inst.takenIdx >= 0 &&
                    (std::size_t)inst.takenIdx < insts_.size()),
                   "inst %zu target %d out of range", i, inst.takenIdx);
        inst.firstUop = (uint32_t)totalUops_;
        totalUops_ += inst.numUops;
    }
    finalized_ = true;
}

int32_t
StaticCode::indexOf(uint64_t ip) const
{
    auto it = std::lower_bound(
        insts_.begin(), insts_.end(), ip,
        [](const StaticInst &si, uint64_t v) { return si.ip < v; });
    return it != insts_.end() && it->ip == ip
               ? (int32_t)(it - insts_.begin())
               : kNoTarget;
}

StaticInst &
StaticCode::mutableInst(int32_t idx)
{
    xbs_assert(!finalized_, "mutating finalized StaticCode");
    return insts_[idx];
}

} // namespace xbs
