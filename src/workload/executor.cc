#include "workload/executor.hh"

#include <algorithm>

#include "common/logging.hh"

namespace xbs
{

Executor::Executor(std::shared_ptr<const Program> program,
                   uint64_t seed)
    : program_(std::move(program))
{
    const auto &conds = program_->condBehaviors();
    condStates_.resize(conds.size());
    for (std::size_t i = 0; i < conds.size(); ++i)
        condStates_[i].rng = Rng(conds[i].seed ^ (seed * 0x9E3779B9));

    const auto &inds = program_->indirectBehaviors();
    indirectStates_.resize(inds.size());
    for (std::size_t i = 0; i < inds.size(); ++i)
        indirectStates_[i].rng = Rng(inds[i].seed ^ (seed * 0x85EBCA6B));

    const StaticCode &code = program_->code();
    seqRun_.resize(code.size());
    uint32_t run = 0;
    for (std::size_t i = code.size(); i-- > 0;) {
        run = code.inst((int32_t)i).cls == InstClass::Seq ? run + 1 : 0;
        seqRun_[i] = run;
    }
    pc_ = program_->entryIdx();
    callStack_.reserve(256);
}

bool
Executor::evalCond(int32_t behavior_id)
{
    const auto &b = program_->condBehaviors()[behavior_id];
    auto &s = condStates_[behavior_id];
    switch (b.kind) {
      case CondBehavior::Kind::Loop: {
        if (!s.primed) {
            uint32_t trip = b.tripCount;
            if (b.tripJitter > 0.0 && s.rng.chance(b.tripJitter)) {
                trip += s.rng.chance(0.5) ? 1 : (trip > 2 ? -1 : 0);
            }
            s.remaining = trip;
            s.primed = true;
        }
        // The latch executes once per iteration; taken while more
        // iterations remain.
        s.remaining -= 1;
        bool taken = s.remaining > 0;
        if (!taken)
            s.primed = false;
        return taken;
      }
      case CondBehavior::Kind::Biased:
        return s.rng.chance(b.biasTaken);
      case CondBehavior::Kind::Pattern: {
        bool taken = (b.patternBits >> s.patternPos) & 1;
        s.patternPos = (s.patternPos + 1) % b.patternLen;
        return taken;
      }
    }
    xbs_panic("bad cond behavior kind");
}

int32_t
Executor::evalIndirect(int32_t behavior_id)
{
    const auto &b = program_->indirectBehaviors()[behavior_id];
    auto &s = indirectStates_[behavior_id];
    if (s.lastTarget != kNoTarget && s.rng.chance(b.repeatProb))
        return s.lastTarget;
    std::size_t pick = s.rng.weighted(b.weights);
    s.lastTarget = b.targets[pick];
    return s.lastTarget;
}

int32_t
Executor::step()
{
    const auto &code = program_->code();
    const auto &si = code.inst(pc_);
    int32_t cur = pc_;

    lastTaken_ = false;
    switch (si.cls) {
      case InstClass::Seq:
        pc_ = cur + 1;
        break;
      case InstClass::CondBranch:
        lastTaken_ = evalCond(si.behaviorId);
        pc_ = lastTaken_ ? si.takenIdx : cur + 1;
        break;
      case InstClass::DirectJump:
        pc_ = si.takenIdx;
        break;
      case InstClass::DirectCall:
        callStack_.push_back(cur + 1);
        pc_ = si.takenIdx;
        break;
      case InstClass::IndirectJump:
        pc_ = evalIndirect(si.behaviorId);
        break;
      case InstClass::IndirectCall:
        callStack_.push_back(cur + 1);
        pc_ = evalIndirect(si.behaviorId);
        break;
      case InstClass::Return:
        if (callStack_.empty()) {
            pc_ = program_->entryIdx();  // restart the program
        } else {
            pc_ = callStack_.back();
            callStack_.pop_back();
        }
        break;
      default:
        xbs_panic("bad instruction class");
    }

    xbs_assert(pc_ >= 0 && (std::size_t)pc_ < code.size(),
               "pc %d escaped the program", pc_);
    return cur;
}

Trace
Executor::run(uint64_t num_instructions)
{
    const std::size_t code_size = program_->code().size();
    std::vector<TraceRecord> records;
    records.reserve(num_instructions);
    while (records.size() < num_instructions) {
        const uint64_t left = num_instructions - records.size();
        const uint32_t seq = (uint32_t)std::min<uint64_t>(seqRun_[pc_], left);
        if (seq > 0) {
            for (uint32_t k = 0; k < seq; ++k) {
                TraceRecord r;
                r.staticIdx = (uint32_t)pc_ + k;
                records.push_back(r);
            }
            pc_ += (int32_t)seq;
            lastTaken_ = false;
            xbs_assert((std::size_t)pc_ < code_size,
                       "pc %d escaped the program", pc_);
            if (seq == left)
                break;
        }
        TraceRecord r;
        r.staticIdx = (uint32_t)step();
        r.taken = lastTaken_;
        records.push_back(r);
    }
    return Trace(program_->codePtr(), std::move(records),
                 program_->name());
}

Trace
makeTrace(std::shared_ptr<const Program> program,
          uint64_t num_instructions, uint64_t seed)
{
    Executor ex(std::move(program), seed);
    return ex.run(num_instructions);
}

} // namespace xbs
