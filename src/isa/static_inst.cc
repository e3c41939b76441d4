#include "isa/static_inst.hh"

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
    ipMap_.reserve(insts_.size());
    totalUops_ = 0;
    for (std::size_t i = 0; i < insts_.size(); ++i) {
        auto &inst = insts_[i];
        auto [it, inserted] = ipMap_.emplace(inst.ip, (int32_t)i);
        (void)it;
        xbs_assert(inserted, "duplicate IP %llx",
                   (unsigned long long)inst.ip);
        inst.firstUop = (uint32_t)totalUops_;
        totalUops_ += inst.numUops;
    }
    for (std::size_t i = 0; i < insts_.size(); ++i) {
        const auto &inst = insts_[i];
        if (inst.takenIdx != kNoTarget) {
            xbs_assert(inst.takenIdx >= 0 &&
                       (std::size_t)inst.takenIdx < insts_.size(),
                       "inst %zu target %d out of range", i,
                       inst.takenIdx);
        }
    }
    finalized_ = true;
}

int32_t
StaticCode::indexOf(uint64_t ip) const
{
    auto it = ipMap_.find(ip);
    return it == ipMap_.end() ? kNoTarget : it->second;
}

StaticInst &
StaticCode::mutableInst(int32_t idx)
{
    xbs_assert(!finalized_, "mutating finalized StaticCode");
    return insts_[idx];
}

} // namespace xbs
