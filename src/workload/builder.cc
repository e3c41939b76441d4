#include "workload/builder.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace xbs
{

ProgramBuilder::ProgramBuilder(const WorkloadProfile &profile)
    : profile_(profile), rng_(profile.seed),
      instLen_(profile.instLenMean, 15),
      instUops_(profile.uopsPerInstMean, kMaxInstUops),
      cfg_(profile.name)
{
}

uint8_t
ProgramBuilder::drawInstLen()
{
    return (uint8_t)instLen_(rng_);
}

uint8_t
ProgramBuilder::drawInstUops()
{
    return (uint8_t)instUops_(rng_);
}

uint8_t
ProgramBuilder::drawBranchLen()
{
    // Jcc rel8 (2 bytes) or rel32 (6 bytes).
    return rng_.chance(0.7) ? 2 : 6;
}

double
ProgramBuilder::multiplier() const
{
    double m = 1.0;
    for (double v : multStack_)
        m *= v;
    return m;
}

unsigned
ProgramBuilder::loopDepth() const
{
    unsigned d = 0;
    for (double v : multStack_) {
        if (v > 1.0)
            ++d;
    }
    return d;
}

CfgBlock &
ProgramBuilder::openBlock(CfgFunction &fn)
{
    if (fn.blocks.empty() ||
        fn.blocks.back().term.kind != TermKind::FallThrough) {
        fn.addBlock();
    }
    return fn.blocks.back();
}

void
ProgramBuilder::fillBody(CfgFunction &fn, double mean_scale)
{
    CfgBlock &blk = openBlock(fn);
    double mean = std::max(1.0, profile_.bodyInstMean * mean_scale);
    unsigned n = rng_.boundedGeometric(mean, 16);
    for (unsigned i = 0; i < n; ++i) {
        CfgInst ci;
        ci.length = drawInstLen();
        ci.numUops = drawInstUops();
        blk.body.push_back(ci);
    }
    curCost_ += (double)n * multiplier();
}

CondBehavior
ProgramBuilder::drawCondBehavior()
{
    CondBehavior cb;
    cb.seed = behaviorSeedCounter_++;
    double u = rng_.uniform();
    if (u < profile_.monotonicFraction) {
        // Promotable branch: >= 99.2% biased to one direction.
        cb.kind = CondBehavior::Kind::Biased;
        double p = 1.0 - rng_.uniform() * 0.006;  // in (0.994, 1.0]
        cb.biasTaken = rng_.chance(0.5) ? p : 1.0 - p;
    } else if (u < profile_.monotonicFraction +
                       profile_.patternFraction) {
        cb.kind = CondBehavior::Kind::Pattern;
        cb.patternLen = (uint8_t)rng_.range(2, 8);
        cb.patternBits = (uint32_t)rng_.below(1u << cb.patternLen);
        if (cb.patternBits == 0)
            cb.patternBits = 1;
    } else {
        // Ordinary data-dependent branches are bimodally biased in
        // real code: most sit near one direction (predictable by
        // a bimodal component), a minority are genuinely hard.
        cb.kind = CondBehavior::Kind::Biased;
        double p;
        if (rng_.chance(0.75)) {
            p = 0.78 + rng_.uniform() * 0.20;  // strongly biased
        } else {
            p = profile_.biasLow +
                rng_.uniform() *
                    (profile_.biasHigh - profile_.biasLow);
        }
        cb.biasTaken = rng_.chance(0.5) ? p : 1.0 - p;
    }
    return cb;
}

uint32_t
ProgramBuilder::drawLoopTrip()
{
    // Long (promotable) trips only outside other loops: nested long
    // loops would concentrate the whole trace into a few dozen uops.
    if (loopDepth() == 0 && rng_.chance(profile_.longLoopFraction)) {
        return (uint32_t)rng_.range(profile_.longTripMin,
                                    profile_.longTripMax);
    }
    return std::max<uint32_t>(
        2, rng_.boundedGeometric(profile_.shortTripMean, 64));
}

int
ProgramBuilder::drawCallee(int func_id)
{
    int first = func_id + 1;
    int last = (int)cfg_.numFunctions() - 1;
    if (first > last)
        return -1;

    // Sample by global popularity over [first, last] via the
    // cumulative weight table built in build().
    double lo = first > 0 ? popCum_[first - 1] : 0.0;
    double hi = popCum_[last];
    if (hi <= lo)
        return -1;

    double remaining = std::min(budget_ - curCost_, perSiteCap_);
    double mult = multiplier();

    for (int attempt = 0; attempt < 8; ++attempt) {
        double u = lo + rng_.uniform() * (hi - lo);
        auto it = std::lower_bound(popCum_.begin() + first,
                                   popCum_.begin() + last + 1, u);
        int cand = (int)(it - popCum_.begin());
        if (cand < first || cand > last)
            continue;
        if (mult * estCost_[cand] <= remaining)
            return cand;
    }
    return -1;  // every affordable draw failed; caller emits straight
}

void
ProgramBuilder::genIfElse(CfgFunction &fn, int func_id, unsigned depth)
{
    // Layout: cond (taken -> else) | then.. | jmp join | else.. | join
    // The else arm falls through into the join: that join point is a
    // multi-entry location (jump target + fall-through predecessor).
    fillBody(fn);
    openBlock(fn);
    int condId = (int)fn.blocks.size() - 1;
    curCost_ += multiplier();  // the branch itself

    // Then arm (executes with roughly half probability).
    multStack_.push_back(0.55);
    fn.addBlock();
    double arm_budget = 1.0 + rng_.uniform() * profile_.armItemMean;
    if (depth < profile_.maxNestDepth)
        genItems(fn, func_id, arm_budget, depth + 1);
    fillBody(fn, 0.7);
    int thenEndId = (int)fn.blocks.size() - 1;
    multStack_.pop_back();

    // Else arm (the taken target).
    multStack_.push_back(0.45);
    fn.addBlock();
    int elseId = (int)fn.blocks.size() - 1;
    if (depth < profile_.maxNestDepth)
        genItems(fn, func_id, arm_budget * 0.7, depth + 1);
    fillBody(fn, 0.7);
    multStack_.pop_back();

    // Join block: else falls through into it.
    fn.addBlock();
    int joinId = (int)fn.blocks.size() - 1;

    fn.blocks[condId].term.kind = TermKind::CondBranch;
    fn.blocks[condId].term.targetBlock = elseId;
    fn.blocks[condId].term.length = drawBranchLen();
    fn.blocks[condId].term.numUops = 1;
    fn.blocks[condId].term.cond = drawCondBehavior();

    fn.blocks[thenEndId].term.kind = TermKind::Jump;
    fn.blocks[thenEndId].term.targetBlock = joinId;
    fn.blocks[thenEndId].term.length = rng_.chance(0.7) ? 2 : 5;
    fn.blocks[thenEndId].term.numUops = 1;
}

void
ProgramBuilder::genLoop(CfgFunction &fn, int func_id, unsigned depth)
{
    // preheader (falls in) | header.. body items.. latch | exit
    fillBody(fn, 0.6);
    openBlock(fn);

    uint32_t trip = drawLoopTrip();
    multStack_.push_back((double)trip);

    fn.addBlock();
    int headerId = (int)fn.blocks.size() - 1;
    fillBody(fn, 0.8);
    if (depth < profile_.maxNestDepth) {
        double body_budget = 1.0 + rng_.uniform() * profile_.armItemMean;
        genItems(fn, func_id, body_budget, depth + 1);
    }
    fillBody(fn, 0.8);
    int latchId = (int)fn.blocks.size() - 1;
    curCost_ += multiplier();  // the latch branch per iteration
    multStack_.pop_back();

    fn.addBlock();  // exit block; latch falls through here when done

    CondBehavior cb;
    cb.kind = CondBehavior::Kind::Loop;
    cb.tripCount = trip;
    cb.tripJitter = profile_.tripJitter;
    cb.seed = behaviorSeedCounter_++;

    fn.blocks[latchId].term.kind = TermKind::CondBranch;
    fn.blocks[latchId].term.targetBlock = headerId;
    fn.blocks[latchId].term.length = 2;  // short backward Jcc
    fn.blocks[latchId].term.numUops = 1;
    fn.blocks[latchId].term.cond = cb;
}

void
ProgramBuilder::genSwitch(CfgFunction &fn, int func_id)
{
    (void)func_id;
    fillBody(fn, 0.8);
    openBlock(fn);
    int dispatchId = (int)fn.blocks.size() - 1;
    curCost_ += 2.0 * multiplier();

    unsigned fanout =
        (unsigned)rng_.range(2, (int64_t)profile_.switchFanoutMax);
    std::vector<int> caseIds;
    multStack_.push_back(1.0 / (double)fanout);
    for (unsigned c = 0; c < fanout; ++c) {
        fn.addBlock();
        caseIds.push_back((int)fn.blocks.size() - 1);
        fillBody(fn, 0.8);
    }
    multStack_.pop_back();
    fn.addBlock();
    int joinId = (int)fn.blocks.size() - 1;

    // All cases but the last jump to the join; the last falls through.
    for (unsigned c = 0; c + 1 < fanout; ++c) {
        fn.blocks[caseIds[c]].term.kind = TermKind::Jump;
        fn.blocks[caseIds[c]].term.targetBlock = joinId;
        fn.blocks[caseIds[c]].term.length = 2;
        fn.blocks[caseIds[c]].term.numUops = 1;
    }

    auto &t = fn.blocks[dispatchId].term;
    t.kind = TermKind::IndirectJump;
    t.length = 3;
    t.numUops = 2;  // load target + jump
    t.targetBlocks = caseIds;
    t.repeatProb = profile_.indirectRepeatProb;
    t.weights.clear();
    for (unsigned c = 0; c < fanout; ++c)
        t.weights.push_back(1.0 / (double)(c + 1));  // skewed cases
}

void
ProgramBuilder::genCall(CfgFunction &fn, int func_id)
{
    int callee = drawCallee(func_id);
    if (callee < 0) {
        fillBody(fn);
        return;
    }

    fillBody(fn, 0.8);
    openBlock(fn);
    int siteId = (int)fn.blocks.size() - 1;
    fn.addBlock();  // continuation after return

    auto &t = fn.blocks[siteId].term;
    double mult = multiplier();
    if (rng_.chance(profile_.indirectCallFraction)) {
        t.kind = TermKind::IndirectCall;
        unsigned fanout = (unsigned)rng_.range(
            2, (int64_t)profile_.icallFanoutMax);
        t.calleeFunctions.clear();
        t.calleeFunctions.push_back(callee);
        for (unsigned c = 1; c < fanout; ++c) {
            int extra = drawCallee(func_id);
            if (extra >= 0)
                t.calleeFunctions.push_back(extra);
        }
        t.repeatProb = profile_.indirectRepeatProb;
        t.length = 3;
        t.numUops = 2;
        double avg = 0.0;
        for (int cf : t.calleeFunctions)
            avg += estCost_[cf];
        avg /= (double)t.calleeFunctions.size();
        curCost_ += mult * (avg + 4.0);
    } else {
        t.kind = TermKind::Call;
        t.calleeFunctions = {callee};
        t.length = 5;  // call rel32
        t.numUops = 2; // push return IP + jump
        curCost_ += mult * (estCost_[callee] + 4.0);
    }
}

void
ProgramBuilder::genItems(CfgFunction &fn, int func_id, double budget,
                         unsigned depth, double call_boost)
{
    while (budget > 0.0) {
        std::vector<double> weights = {
            profile_.wStraight, profile_.wIfElse, profile_.wLoop,
            profile_.wSwitch, profile_.wCall * call_boost,
        };
        if (depth >= profile_.maxNestDepth)
            weights[1] = weights[2] = 0.0;  // no further nesting
        // Damp calls inside loops: hot inner loops are call-free in
        // real code, and this bounds the cost product.
        weights[4] *= std::pow(profile_.nestedCallScale,
                               (double)loopDepth());
        if (curCost_ >= budget_)
            weights[4] = 0.0;

        budget -= 1.0;
        switch (rng_.weighted(weights)) {
          case 0:
            fillBody(fn);
            break;
          case 1:
            genIfElse(fn, func_id, depth);
            budget -= 1.0;  // diamonds are bigger items
            break;
          case 2:
            genLoop(fn, func_id, depth);
            budget -= 1.0;
            break;
          case 3:
            genSwitch(fn, func_id);
            budget -= 1.0;
            break;
          case 4:
            genCall(fn, func_id);
            break;
          default:
            xbs_panic("bad item kind");
        }
    }
}

std::shared_ptr<const Program>
ProgramBuilder::build()
{
    const unsigned n = profile_.numFunctions;
    for (unsigned f = 0; f < n; ++f)
        cfg_.addFunction("f" + std::to_string(f));

    // Global popularity: a random permutation ranks the functions;
    // popular functions attract call sites from everywhere, giving
    // them many return sites (multi-entry XBs) and hot bodies.
    std::vector<unsigned> perm(n);
    for (unsigned i = 0; i < n; ++i)
        perm[i] = i;
    for (unsigned i = n; i > 1; --i)
        std::swap(perm[i - 1], perm[rng_.below(i)]);
    popCum_.assign(n, 0.0);
    double acc = 0.0;
    for (unsigned i = 0; i < n; ++i) {
        acc += 1.0 / std::pow((double)(perm[i] + 1),
                              profile_.calleeZipfS);
        popCum_[i] = acc;
    }

    estCost_.assign(n, 0.0);

    // Build leaves first so call sites know their callees' cost.
    for (unsigned fi = n; fi-- > 0;) {
        CfgFunction &fn = cfg_.function((int)fi);
        curCost_ = 0.0;
        budget_ = profile_.mainIterationBudget /
                  std::pow((double)(fi + 1), profile_.budgetDecay);
        perSiteCap_ = 1e18;
        multStack_.clear();

        double items = std::max(
            2.0, (double)rng_.boundedGeometric(
                     profile_.itemsPerFunctionMean, 60));

        if (fi == 0) {
            // The entry function wraps its body in an effectively
            // endless loop so the executor can emit arbitrarily long
            // traces without restarting. The body is a wide driver
            // sequence calling a large sample of the program, so one
            // outer iteration covers a realistic code footprint.
            budget_ = 1e18;
            perSiteCap_ = profile_.mainIterationBudget * 0.2;
            fillBody(fn, 0.5);
            openBlock(fn);
            fn.addBlock();
            int headerId = (int)fn.blocks.size() - 1;
            double driver_items =
                std::max(items, 0.6 * (double)n);
            genItems(fn, 0, driver_items, 1, 3.0);
            fillBody(fn, 0.5);
            int latchId = (int)fn.blocks.size() - 1;
            fn.addBlock();

            CondBehavior cb;
            cb.kind = CondBehavior::Kind::Loop;
            cb.tripCount = 1u << 30;
            cb.tripJitter = 0.0;
            cb.seed = behaviorSeedCounter_++;
            fn.blocks[latchId].term.kind = TermKind::CondBranch;
            fn.blocks[latchId].term.targetBlock = headerId;
            fn.blocks[latchId].term.length = 6;
            fn.blocks[latchId].term.numUops = 1;
            fn.blocks[latchId].term.cond = cb;
        } else {
            genItems(fn, (int)fi, items, 0);
        }

        // Close the function with an epilogue + return.
        fillBody(fn, 0.5);
        CfgBlock &last = openBlock(fn);
        last.term.kind = TermKind::Return;
        last.term.length = 1;
        last.term.numUops = 2;  // pop return IP + jump
        curCost_ += 2.0;
        estCost_[fi] = std::max(curCost_, 1.0);
    }

    return cfg_.link(0x400000 + (rng_.below(256) << 12));
}

std::shared_ptr<const Program>
buildProgram(const WorkloadProfile &profile)
{
    ProgramBuilder builder(profile);
    return builder.build();
}

} // namespace xbs
