#include "core/xbc_frontend.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace xbs
{

XbcFrontend::XbcFrontend(const FrontendParams &params,
                         const XbcParams &xbc_params)
    : Frontend("xbcfe", params), xbcParams_(xbc_params),
      preds_(params_), pipe_(params_, metrics_, preds_),
      array_(xbcParams_, &root_),
      xbtb_(xbcParams_.xbtbEntries, xbcParams_.xbtbWays, &root_),
      xibtb_(xbcParams_.xibtbSets, xbcParams_.xibtbWays, &root_),
      xrsb_(xbcParams_.xrsbDepth),
      fill_(xbcParams_, array_, xbtb_, &root_),
      outMux_(xbcParams_, &root_),
      prio_(xbcParams_.numBanks, &root_),
      arrayAcct_(&attrib_, &metrics_.cycles, xbcParams_.numBanks,
                 array_.numSets(),
                 (std::size_t)xbcParams_.numBanks *
                     array_.numSets() * xbcParams_.ways)
{
    pipe_.attachAttrib(&attrib_);
    array_.setEventSink(&arrayAcct_);
}

void
XbcFrontend::linkPrev(const XbPointer &ptr)
{
    if (!ptr.valid)
        return;
    switch (prev_.kind) {
      case PrevLink::Kind::None:
        break;
      case PrevLink::Kind::Taken:
        if (auto *e = xbtb_.find(prev_.xbIp))
            e->taken = ptr;
        break;
      case PrevLink::Kind::Fallthrough:
        if (auto *e = xbtb_.find(prev_.xbIp))
            e->fallthrough = ptr;
        break;
      case PrevLink::Kind::Indirect:
        xibtb_.update(prev_.xbIp, ptr);
        break;
      case PrevLink::Kind::ReturnLink:
        if (prev_.xbIp) {
            if (auto *e = xbtb_.find(prev_.xbIp))
                e->fallthrough = ptr;
        }
        break;
    }
}

void
XbcFrontend::maybePromote(Xbtb::Entry &entry)
{
    if (!xbcParams_.promotionEnabled || entry.promoted)
        return;

    bool promote_taken;
    if (entry.counter >= xbcParams_.promoteHigh)
        promote_taken = true;
    else if (entry.counter <= xbcParams_.promoteLow)
        promote_taken = false;
    else
        return;

    const XbPointer &succ = promote_taken ? entry.taken
                                          : entry.fallthrough;
    if (!succ.valid)
        return;
    auto sacc = array_.findQuiet(succ.xbIp, succ.entryIdx);
    if (!sacc.variant)
        return;
    const auto *xb0 = array_.longestVariant(entry.xbIp);
    if (!xb0)
        return;

    XbSeq combined = xb0->seq;
    combined.insert(combined.end(),
                    sacc.variant->seq.begin() + sacc.entryPos,
                    sacc.variant->seq.end());
    if (combined.size() > xbcParams_.xbQuotaUops)
        return;  // does not fit the quota; stay unpromoted

    uint32_t xb0_mask = xb0->mask;
    XbPointer comb;
    array_.insert(combined, succ.xbIp, 0, &comb);
    if (!comb.valid)
        return;

    entry.promoted = true;
    entry.promotedTaken = promote_taken;
    entry.promotedPtr = comb;
    // XB0's original location becomes eviction fodder (paper 3.8).
    array_.demoteLru(entry.xbIp, xb0_mask);
    ++promotions;
}

XbcFrontend::EndResult
XbcFrontend::handleXbEnd(const Trace &trace, std::size_t end_rec)
{
    EndResult r;
    const StaticInst &si = trace.inst(end_rec);
    const bool taken = trace.record(end_rec).taken != 0;
    const int32_t actual_next =
        end_rec + 1 < trace.numRecords()
            ? trace.record(end_rec + 1).staticIdx
            : kNoTarget;

    Xbtb::Entry *e = xbtb_.lookup(si.ip);

    // Root cause a build entry from this resolution would have: a
    // missing/stale XBTB pointer unless a predictor misfired first.
    Cause build_cause = Cause::XbtbMiss;

    auto accept = [&](const XbPointer &cand) {
        if (cand.valid && cand.entryIdx == actual_next) {
            r.next = cand;
        } else if (actual_next != kNoTarget) {
            r.toBuild = true;
        }
    };

    switch (si.cls) {
      case InstClass::CondBranch: {
        ++metrics_.condBranches;
        bool pred = preds_.gshare.predict(si.ip);  // the XBP
        preds_.gshare.update(si.ip, taken);
        if (pred != taken) {
            ++metrics_.condMispredicts;
            r.penalty += params_.mispredictPenalty;
            attrib_.noteStall(Cause::CondMispredict,
                              params_.mispredictPenalty);
            build_cause = Cause::CondMispredict;
        }
        if (e) {
            e->trainCounter(taken);
            maybePromote(*e);
        }
        prev_.kind = taken ? PrevLink::Kind::Taken
                           : PrevLink::Kind::Fallthrough;
        prev_.xbIp = si.ip;
        accept(e ? (taken ? e->taken : e->fallthrough) : XbPointer{});
        break;
      }
      case InstClass::DirectCall: {
        xrsb_.push(si.ip);
        preds_.rsb.push(si.fallThroughIp());
        prev_.kind = PrevLink::Kind::Taken;
        prev_.xbIp = si.ip;
        accept(e ? e->taken : XbPointer{});
        break;
      }
      case InstClass::IndirectJump:
      case InstClass::IndirectCall: {
        ++metrics_.indirectBranches;
        const XbPointer *pp = xibtb_.predict(si.ip);
        XbPointer cand = pp ? *pp : XbPointer{};
        if (!(cand.valid && cand.entryIdx == actual_next)) {
            ++metrics_.indirectMispredicts;
            r.penalty += params_.mispredictPenalty;
            attrib_.noteStall(Cause::IndirectMispredict,
                              params_.mispredictPenalty);
            build_cause = Cause::IndirectMispredict;
            r.toBuild = true;   // misfetch: target XB unknown
        } else {
            r.next = cand;
        }
        if (si.cls == InstClass::IndirectCall) {
            xrsb_.push(si.ip);
            preds_.rsb.push(si.fallThroughIp());
        }
        prev_.kind = PrevLink::Kind::Indirect;
        prev_.xbIp = si.ip;
        break;
      }
      case InstClass::Return: {
        ++metrics_.returns;
        uint64_t call_ip = xrsb_.pop();
        preds_.rsb.pop();
        Xbtb::Entry *ce = call_ip ? xbtb_.find(call_ip) : nullptr;
        XbPointer cand = ce ? ce->fallthrough : XbPointer{};
        if (!(cand.valid && cand.entryIdx == actual_next)) {
            ++metrics_.returnMispredicts;
            r.penalty += params_.mispredictPenalty;
            attrib_.noteStall(Cause::ReturnMispredict,
                              params_.mispredictPenalty);
            build_cause = Cause::ReturnMispredict;
            if (call_ip == 0)
                attrib_.noteRsbUnderflow();
            r.toBuild = true;
        } else {
            r.next = cand;
        }
        prev_.kind = PrevLink::Kind::ReturnLink;
        prev_.xbIp = call_ip;
        break;
      }
      case InstClass::Seq:
      case InstClass::DirectJump: {
        // Quota-ended XB or a PrefixSplit prefix: the successor is
        // unconditional, recorded in the taken slot.
        prev_.kind = PrevLink::Kind::Taken;
        prev_.xbIp = si.ip;
        accept(e ? e->taken : XbPointer{});
        break;
      }
      default:
        xbs_panic("unexpected XB end class");
    }

    if (r.toBuild)
        attrib_.noteDisruption(build_cause);
    if (r.next.valid)
        linkPrev(r.next);  // refresh the pointer we will follow
    return r;
}

unsigned
XbcFrontend::supplySlot(const Trace &trace, std::size_t &rec,
                        unsigned &fetched, unsigned &stall)
{
    const std::size_t num_records = trace.numRecords();

    // Paper section 3.8: when a stale pointer leads to a promoted
    // XB0, redirect into XB_comb (repairing the pointer through
    // XB0's XBTB entry); XB0's original copy keeps serving only
    // until then.
    if (!curIsContinuation_) {
        Xbtb::Entry *pe = xbtb_.find(cur_.xbIp);
        if (pe && pe->promoted && pe->promotedPtr.valid &&
            pe->promotedPtr.xbIp != cur_.xbIp) {
            auto calt = array_.findQuiet(pe->promotedPtr.xbIp,
                                         cur_.entryIdx);
            if (calt.variant) {
                XbPointer repaired;
                repaired.valid = true;
                repaired.xbIp = pe->promotedPtr.xbIp;
                repaired.mask = calt.variant->mask;
                repaired.entryIdx = cur_.entryIdx;
                linkPrev(repaired);
                cur_ = repaired;
            }
        }
    }

    auto acc = array_.lookup(cur_.xbIp, cur_.mask, cur_.entryIdx);
    if (!acc.variant && xbcParams_.setSearchEnabled) {
        acc = array_.setSearch(cur_.xbIp, cur_.entryIdx);
        if (acc.variant) {
            // Found elsewhere in the set: one-cycle penalty, pointer
            // repaired, supply resumes next cycle.
            stall += xbcParams_.setSearchPenalty;
            setSearchPenalties += xbcParams_.setSearchPenalty;
            attrib_.noteStall(Cause::SetSearch,
                              xbcParams_.setSearchPenalty);
            cur_.mask = acc.variant->mask;
            linkPrev(cur_);
            return 0;
        }
    }
    if (!acc.variant) {
        cur_.valid = false;  // XBC miss: switch to build when drained
        attrib_.noteDisruption(arrayAcct_.classifyMiss(cur_.xbIp));
        return 0;
    }

    const XbcDataArray::Variant &v = *acc.variant;
    const std::size_t entry_pos = acc.entryPos;
    attrib_.clearDisruption();
    if (curIsContinuation_) {
        ++xbContinuations;
    } else {
        ++xbSupplies;
        arrayAcct_.onHit(v.tag);
    }

    // Bank-conflict horizon (section 3.6): the priority encoder
    // serves one line per bank per cycle, so the first needed line
    // it would defer cuts the supply short there.
    const uint32_t vset = (uint32_t)array_.setOf(v.tag);
    std::size_t limit = v.seq.size();
    bool conflicted = false;
    std::size_t conflict_line = 0;
    {
        std::size_t pos = 0;
        for (std::size_t i = 0; i < v.lines.size(); ++i) {
            std::size_t line_end = pos + v.lines[i].count;
            if (line_end > entry_pos &&
                !prio_.wouldGrant(v.lines[i].bank, vset,
                                  v.lines[i].way)) {
                limit = std::max(entry_pos, pos);
                conflicted = true;
                conflict_line = i;
                break;
            }
            pos = line_end;
        }
    }

    // Fetch-width horizon (the 16-uop OUT_MUX).
    bool width_limited = false;
    std::size_t width_room = xbcParams_.xbQuotaUops - fetched;
    if (entry_pos + width_room < limit) {
        limit = entry_pos + width_room;
        width_limited = true;
        conflicted = false;
    }

    unsigned supplied = 0;
    std::size_t p = entry_pos;
    bool xb_ended = false;
    bool pending_end = false;   // resolve after v is done with
    bool pending_wrong = false; // promoted wrong-path after v

    while (p < limit && rec < num_records && stall == 0) {
        const TraceRecord &record = trace.record(rec);
        const StaticInst &si = trace.inst(rec);
        if (p + si.numUops > limit)
            break;  // instruction does not fit this cycle's horizon

        // Verify the stored slots against the actual path.
        bool match = true;
        for (unsigned u = 0; u < si.numUops; ++u) {
            if (!(v.seq[p + u] ==
                  UopSlot{record.staticIdx, (uint8_t)u})) {
                match = false;
                break;
            }
        }
        if (!match) {
            // Divergence at an instruction boundary: the previous
            // instruction was an embedded promoted branch that took
            // its infrequent path (or the content is stale).
            if (p == entry_pos && !curIsContinuation_) {
                // Mismatch on the entry instruction itself: the slot
                // content is corrupt/stale (the lookup matched a
                // non-entry occurrence of the index). Treat it like
                // any stale supply: abandon the XB and let the miss
                // path rebuild — a bad hint must never change the
                // delivered stream.
                ++staleSupplies;
                cur_.valid = false;
                attrib_.noteDisruption(Cause::PartialHit);
                xb_ended = true;
                break;
            }
            const StaticInst &br = trace.inst(rec - 1);
            if (br.cls == InstClass::CondBranch) {
                ++promotedWrongPath;
                stall += params_.mispredictPenalty;
                attrib_.noteStall(Cause::PromotionRecovery,
                                  params_.mispredictPenalty);
                bool br_taken = trace.record(rec - 1).taken != 0;
                Xbtb::Entry *be = xbtb_.find(br.ip);
                prev_.kind = br_taken ? PrevLink::Kind::Taken
                                      : PrevLink::Kind::Fallthrough;
                prev_.xbIp = br.ip;
                XbPointer cand =
                    be ? (br_taken ? be->taken : be->fallthrough)
                       : XbPointer{};
                if (cand.valid && cand.entryIdx == record.staticIdx) {
                    cur_ = cand;
                    curIsContinuation_ = false;
                    linkPrev(cur_);
                } else {
                    cur_.valid = false;
                    attrib_.noteDisruption(Cause::PromotionRecovery);
                }
            } else {
                ++staleSupplies;
                cur_.valid = false;
                attrib_.noteDisruption(Cause::PartialHit);
            }
            xb_ended = true;
            break;
        }

        // Supply the instruction (reporting the *stored* slot to the
        // oracle, so corrupted content that slipped past the match
        // check above would still be caught).
        oracleConsume(rec, v.seq[p].staticIdx, si.numUops);
        supplied += si.numUops;
        fetched += si.numUops;
        p += si.numUops;
        ++rec;

        if (p == v.seq.size()) {
            // The XB's ending instruction: resolution is deferred
            // until the variant reference is no longer needed
            // (handleXbEnd can promote, which mutates the array).
            pending_end = true;
            xb_ended = true;
            break;
        }

        if (si.isControl()) {
            // Embedded control inside the variant.
            if (si.cls == InstClass::CondBranch) {
                Xbtb::Entry *be = xbtb_.find(si.ip);
                if (be && be->promoted) {
                    // Promoted: supplied through, no prediction
                    // consumed; counter keeps gathering statistics.
                    ++promotedSupplied;
                    bool t = trace.record(rec - 1).taken != 0;
                    be->trainCounter(t);
                    bool misbehaving =
                        be->promotedTaken
                            ? be->counter <= xbcParams_.depromoteHigh
                            : be->counter >= xbcParams_.depromoteLow;
                    if (misbehaving) {
                        be->promoted = false;
                        ++depromotions;
                    }
                    // Wrong-path divergence is caught by the match
                    // check on the next instruction.
                } else {
                    // De-promoted (or evicted entry): this branch
                    // ends the effective XB here (deferred as above).
                    pending_end = true;
                    xb_ended = true;
                    break;
                }
            }
            // Embedded DirectJump / Seq: nothing to predict.
        }
    }

    // Claim the granted banks and record their contributions for
    // the OUT_MUX reorder/align plan.
    {
        std::size_t pos = 0;
        for (const auto &lu : v.lines) {
            std::size_t line_end = pos + lu.count;
            std::size_t lo = std::max(pos, entry_pos);
            std::size_t hi = std::min(line_end, p);
            if (hi > lo) {
                bool granted = prio_.claim(lu.bank, vset, lu.way);
                xbs_assert(granted, "claim after wouldGrant");
                cycleMux_.push_back(
                    MuxInput{lu.bank, (uint8_t)(hi - lo)});
            }
            pos = line_end;
        }
    }
    array_.touch(v, entry_pos);
    (void)pending_wrong;

    if (pending_end) {
        // Now that the variant reference is dead, resolve the XB end
        // (this may promote and restructure the data array).
        EndResult er = handleXbEnd(trace, rec - 1);
        stall += er.penalty;
        if (er.next.valid) {
            cur_ = er.next;
            curIsContinuation_ = false;
        } else {
            cur_.valid = false;
        }
        return supplied;
    }

    if (!xb_ended && rec < num_records) {
        // Deferred remainder: continue this XB next cycle, entering
        // at the first unsupplied instruction.
        if (conflicted && p >= limit) {
            ++bankConflictDefers;
            ++attrib_.bankConflictDefers;
            uint32_t all = (uint32_t)mask(xbcParams_.numBanks);
            array_.noteConflict(v, conflict_line,
                                all & ~prio_.busyMask());
        } else if (width_limited && p >= limit) {
            ++widthDefers;
        }
        cur_.entryIdx = trace.record(rec).staticIdx;
        curIsContinuation_ = true;
    }

    return supplied;
}

void
XbcFrontend::handleCompletion(const Trace &trace,
                              const XbcFillUnit::Completion &comp,
                              std::size_t rec, bool can_exit,
                              Mode &mode)
{
    // Chain the previously executed XB to the freshly stored one.
    linkPrev(comp.startPtr);

    const bool taken = trace.record(comp.endRec).taken != 0;
    Xbtb::Entry *e = xbtb_.find(comp.endIp);

    switch (comp.endType) {
      case InstClass::CondBranch:
        if (e) {
            e->trainCounter(taken);
            maybePromote(*e);
        }
        prev_.kind = taken ? PrevLink::Kind::Taken
                           : PrevLink::Kind::Fallthrough;
        prev_.xbIp = comp.endIp;
        break;
      case InstClass::DirectCall:
        xrsb_.push(comp.endIp);
        prev_.kind = PrevLink::Kind::Taken;
        prev_.xbIp = comp.endIp;
        break;
      case InstClass::IndirectCall:
        xrsb_.push(comp.endIp);
        prev_.kind = PrevLink::Kind::Indirect;
        prev_.xbIp = comp.endIp;
        break;
      case InstClass::IndirectJump:
        prev_.kind = PrevLink::Kind::Indirect;
        prev_.xbIp = comp.endIp;
        break;
      case InstClass::Return: {
        uint64_t call_ip = xrsb_.pop();
        prev_.kind = PrevLink::Kind::ReturnLink;
        prev_.xbIp = call_ip;
        break;
      }
      default:  // Seq / DirectJump (quota or prefix XBs)
        prev_.kind = PrevLink::Kind::Taken;
        prev_.xbIp = comp.endIp;
        break;
    }

    // Build-mode exit check: delivery resumes when the successor
    // pointer resolves to a resident XB (XBTB hit + XBC hit).
    if (!can_exit || rec >= trace.numRecords())
        return;
    const int32_t actual_next = trace.record(rec).staticIdx;

    XbPointer cand;
    switch (prev_.kind) {
      case PrevLink::Kind::Taken:
        if (e && comp.endType != InstClass::Return)
            cand = e->taken;
        break;
      case PrevLink::Kind::Fallthrough:
        if (e)
            cand = e->fallthrough;
        break;
      case PrevLink::Kind::Indirect:
        if (const XbPointer *pp = xibtb_.predict(comp.endIp))
            cand = *pp;
        break;
      case PrevLink::Kind::ReturnLink:
        if (prev_.xbIp) {
            if (auto *ce = xbtb_.find(prev_.xbIp))
                cand = ce->fallthrough;
        }
        break;
      default:
        break;
    }

    if (cand.valid && cand.entryIdx == actual_next &&
        array_.findQuiet(cand.xbIp, cand.entryIdx).variant) {
        cur_ = cand;
        curIsContinuation_ = false;
        mode = Mode::Delivery;
        ++buildExits;
    }
}

void
XbcFrontend::buildCycle(const Trace &trace, std::size_t &rec,
                        unsigned &stall, Mode &mode)
{
    ++metrics_.buildCycles;
    attrib_.chargeBuildCycle();
    std::size_t prev_rec = rec;
    ScopedPhase buildTimer(prof_, phBuild_);
    LegacyPipe::Result r = pipe_.cycle(trace, rec);
    metrics_.buildUops += r.uops;
    attrib_.chargeBuildUops(r.uops);
    stall += r.stall;
    for (std::size_t i = prev_rec; i < rec; ++i) {
        oracleConsume(i, kNoTarget, 0);
        auto comp = fill_.feed(trace, i);
        if (comp.completed) {
            handleCompletion(trace, comp, i + 1, i + 1 == rec, mode);
            if (xbcParams_.checkInvariantsEveryN &&
                ++completionsSinceCheck_ >=
                    xbcParams_.checkInvariantsEveryN) {
                completionsSinceCheck_ = 0;
                array_.checkInvariants();
            }
        }
    }
}

void
XbcFrontend::saveState(CheckpointWriter &w) const
{
    Frontend::saveState(w);
    CkptSink sink;
    preds_.ckptSave(sink);
    pipe_.ckptSave(sink);
    array_.ckptSave(sink);
    xbtb_.ckptSave(sink);
    xibtb_.ckptSave(sink);
    xrsb_.ckptSave(sink);
    fill_.ckptSave(sink);
    arrayAcct_.ckptSave(sink);
    ckptSaveXbPointer(sink, cur_);
    sink.b(curIsContinuation_);
    sink.u8((uint8_t)prev_.kind);
    sink.u64(prev_.xbIp);
    sink.u32(completionsSinceCheck_);
    w.addSection("xbc", sink.take());
}

Status
XbcFrontend::restoreState(const CheckpointFile &f)
{
    Status st = Frontend::restoreState(f);
    if (!st.isOk())
        return st;
    const std::string *sec = f.section("xbc");
    if (!sec) {
        return Status::error(StatusCode::Corrupt,
                             "checkpoint lacks an 'xbc' section");
    }
    CkptSource src(*sec);
    preds_.ckptLoad(src);
    pipe_.ckptLoad(src);
    array_.ckptLoad(src);
    xbtb_.ckptLoad(src);
    xibtb_.ckptLoad(src);
    xrsb_.ckptLoad(src);
    fill_.ckptLoad(src);
    arrayAcct_.ckptLoad(src);
    cur_ = ckptLoadXbPointer(src);
    curIsContinuation_ = src.b();
    uint8_t kind = src.u8();
    src.require(kind <= (uint8_t)PrevLink::Kind::ReturnLink);
    prev_.kind = (PrevLink::Kind)kind;
    prev_.xbIp = src.u64();
    completionsSinceCheck_ = src.u32();
    if (!src.consumed()) {
        return Status::error(StatusCode::Corrupt,
                             "malformed checkpoint 'xbc' section");
    }
    return Status::ok();
}

void
XbcFrontend::run(const Trace &trace)
{
    array_.bindCode(&trace.code());

    const std::size_t num_records = trace.numRecords();
    std::size_t rec = 0;
    Mode mode = Mode::Build;
    unsigned buffer = 0;
    unsigned stall = 0;
    if (auto resume = takeResume()) {
        rec = (std::size_t)resume->rec;
        mode = resume->mode ? Mode::Delivery : Mode::Build;
        buffer = resume->buffer;
        stall = resume->stall;
    } else {
        cur_ = XbPointer{};
        curIsContinuation_ = false;
        prev_ = PrevLink{};
        fill_.restart();
        attrib_.enterBuild(Cause::ColdStart);
    }

    while ((rec < num_records || buffer > 0) && !stopRequested()) {
        maybeCheckpoint(rec, mode == Mode::Delivery ? 1 : 0, buffer,
                        stall);
        ++metrics_.cycles;
        metrics_.traceRecords.set(rec);
        observeCycle();

        if (stall > 0) {
            // Fetch-silent bubble; the buffer keeps draining, but
            // neither the uops nor the cycle count toward the
            // steady-state bandwidth metric.
            --stall;
            ++metrics_.stallCycles;
            attrib_.chargeSilentCycle();
            buffer -= std::min(buffer, params_.renamerWidth);
            continue;
        }

        if (mode == Mode::Build) {
            buildCycle(trace, rec, stall, mode);
            continue;
        }

        // Delivery cycle.
        ++metrics_.deliveryCycles;

        // The exit check in handleCompletion switched us here with a
        // valid cur_; if cur_ has gone invalid (XBC/XBTB miss), wait
        // for the buffer to drain, then fall back to build mode.
        if (!cur_.valid && buffer == 0 && rec < num_records) {
            --metrics_.deliveryCycles;
            ++metrics_.modeSwitches;
            fill_.restart();
            // The real cause was noted at the invalidating event;
            // Unattributed only backstops an unnoted invalidation.
            attrib_.enterBuild(Cause::Unattributed);
            mode = Mode::Build;
            buildCycle(trace, rec, stall, mode);
            continue;
        }

        unsigned fetched = 0;
        cycleMux_.clear();
        prio_.reset();
        {
            ScopedPhase arrayTimer(prof_, phArray_);
            for (unsigned slot = 0;
                 slot < xbcParams_.fetchXbsPerCycle &&
                 rec < num_records;
                 ++slot) {
                if (!cur_.valid || stall > 0)
                    break;
                if (buffer >= params_.renamerWidth)
                    break;
                if (fetched >= xbcParams_.xbQuotaUops)
                    break;
                unsigned got = supplySlot(trace, rec, fetched, stall);
                metrics_.deliveryUops += got;
                buffer += got;
                if (got == 0)
                    break;
            }
        }

        if (!cycleMux_.empty())
            outMux_.plan(cycleMux_);

        {
            unsigned drained = std::min(buffer, params_.renamerWidth);
            metrics_.renamedUops += drained;
            buffer -= drained;
        }
    }
    metrics_.traceRecords.set(rec);
}

} // namespace xbs
