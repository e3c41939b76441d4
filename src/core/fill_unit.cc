#include "core/fill_unit.hh"

#include "ckpt/serial.hh"
#include "common/logging.hh"

namespace xbs
{

XbcFillUnit::XbcFillUnit(const XbcParams &params, XbcDataArray &array,
                         Xbtb &xbtb, StatGroup *parent)
    : StatGroup("xfu", parent), params_(params), array_(array),
      xbtb_(xbtb)
{
}

void
XbcFillUnit::restart()
{
    seq_.clear();
    lastIdx_ = kNoTarget;
}

XbPointer
XbcFillUnit::store(const Trace &trace, const XbSeq &seq,
                   uint64_t end_ip, InstClass end_type,
                   XbcDataArray::InsertOutcome *outcome)
{
    const StaticCode &code = trace.code();
    XbPointer ptr;
    unsigned common = 0;
    uint32_t avoid = params_.smartBuildPlacement ? prevMask_ : 0;
    auto oc = array_.insert(seq, end_ip, avoid, &ptr, &common);
    if (ptr.valid)
        prevMask_ = ptr.mask;
    if (outcome)
        *outcome = oc;

    // Always record/refresh the XBTB entry of the completed XB.
    xbtb_.allocate(end_ip, end_type);

    if (oc != XbcDataArray::InsertOutcome::PrefixNeeded)
        return ptr;

    // PrefixSplit mode: round the shared suffix down to an
    // instruction boundary and store the differing prefix as an
    // independent XB whose XBTB entry chains into the suffix.
    std::size_t pos = seq.size() - common;
    while (pos < seq.size() && seq[pos].seq != 0)
        ++pos;
    if (pos == 0 || pos >= seq.size()) {
        // No usable boundary; fall back to an independent copy.
        oc = array_.insert(seq, end_ip, avoid, &ptr, nullptr,
                           /*allow_match=*/false);
        if (ptr.valid)
            prevMask_ = ptr.mask;
        if (outcome)
            *outcome = oc;
        return ptr;
    }

    XbSeq prefix(seq.begin(), seq.begin() + pos);
    int32_t prefix_end_idx = prefix.back().staticIdx;
    const StaticInst &pend = code.inst(prefix_end_idx);
    // The prefix ends on an unconditional instruction (a direct jump
    // or a plain fall-through into the shared suffix).
    XbcDataArray::InsertOutcome poc;
    XbPointer pptr = store(trace, prefix, pend.ip, pend.cls, &poc);
    ++prefixSplits;

    // Chain prefix -> suffix through the XBTB.
    int32_t suffix_entry = seq[pos].staticIdx;
    auto sacc = array_.findQuiet(end_ip, suffix_entry);
    Xbtb::Entry *pe = xbtb_.find(pend.ip);
    if (pe && sacc.variant) {
        pe->taken.valid = true;
        pe->taken.xbIp = end_ip;
        pe->taken.mask = sacc.variant->mask;
        pe->taken.entryIdx = suffix_entry;
    }
    return pptr;
}

XbcFillUnit::Completion
XbcFillUnit::feed(const Trace &trace, std::size_t rec)
{
    Completion comp;
    const StaticCode &code = trace.code();
    const StaticInst &si = trace.inst(rec);
    const int32_t idx = trace.record(rec).staticIdx;

    // Quota: an instruction that does not fit completes the pending
    // XB first (ending on the previous instruction).
    if (!seq_.empty() &&
        seq_.size() + si.numUops > params_.xbQuotaUops) {
        const StaticInst &prev = code.inst(lastIdx_);
        comp.completed = true;
        comp.endIp = prev.ip;
        comp.endType = InstClass::Seq;  // unconditional successor
        comp.endRec = rec - 1;
        comp.startPtr = store(trace, seq_, prev.ip, InstClass::Seq,
                              &comp.outcome);
        ++xbsBuilt;
        ++quotaEnded;
        seq_.clear();
        appendInstUops(code, idx, seq_);
        lastIdx_ = idx;
        return comp;
    }

    appendInstUops(code, idx, seq_);
    lastIdx_ = idx;

    if (si.endsXb()) {
        comp.completed = true;
        comp.endIp = si.ip;
        comp.endType = si.cls;
        comp.endRec = rec;
        comp.startPtr = store(trace, seq_, si.ip, si.cls,
                              &comp.outcome);
        ++xbsBuilt;
        seq_.clear();
        lastIdx_ = kNoTarget;
    }
    return comp;
}

void
XbcFillUnit::ckptSave(CkptSink &sink) const
{
    sink.u64(seq_.size());
    for (const UopSlot &slot : seq_) {
        sink.i32(slot.staticIdx);
        sink.u8(slot.seq);
    }
    sink.i32(lastIdx_);
    sink.u32(prevMask_);
}

void
XbcFillUnit::ckptLoad(CkptSource &src)
{
    uint64_t n = src.count(5);
    seq_.clear();
    seq_.reserve(src.ok() ? n : 0);
    for (uint64_t i = 0; src.ok() && i < n; ++i) {
        UopSlot slot;
        slot.staticIdx = src.i32();
        slot.seq = src.u8();
        if (src.ok())
            seq_.push_back(slot);
    }
    lastIdx_ = src.i32();
    prevMask_ = src.u32();
}

} // namespace xbs
