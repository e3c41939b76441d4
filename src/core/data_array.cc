#include "core/data_array.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "core/xbtb.hh"

namespace xbs
{

XbcDataArray::XbcDataArray(const XbcParams &params, StatGroup *parent)
    : StatGroup("xbc", parent), params_(params)
{
    xbs_assert(params_.numBanks >= 1 && params_.bankUops >= 1 &&
               params_.ways >= 1, "bad XBC geometry");
    xbs_assert(params_.xbQuotaUops <=
               params_.numBanks * params_.bankUops,
               "XB quota exceeds one set row");
    xbs_assert(params_.numBanks <= kMaxBanks &&
               params_.bankUops <= kMaxBankUops &&
               params_.xbQuotaUops <= kMaxXbUops,
               "XBC geometry exceeds the inline storage caps");
    unsigned set_uops = params_.numBanks * params_.bankUops *
                        params_.ways;
    unsigned sets = params_.capacityUops / set_uops;
    xbs_assert(sets >= 1, "XBC capacity below one set");
    numSets_ = 1u << floorLog2(sets);
    lines_.resize((std::size_t)params_.numBanks * numSets_ *
                  params_.ways);
    sets_.resize(numSets_);
}

void
XbcDataArray::accountSlots(std::span<const UopSlot> slots, int delta)
{
    xbs_assert(code_ != nullptr, "XBC used before bindCode()");
    for (const auto &s : slots) {
        uint32_t &copies = residency_[uopNumber(s)];
        if (delta > 0) {
            uniqueUops_ += copies++ == 0;
            ++filledUops_;
        } else {
            xbs_assert(copies > 0, "XBC residency underflow");
            uniqueUops_ -= --copies == 0;
            --filledUops_;
        }
    }
}

void
XbcDataArray::recount()
{
    filledUops_ = 0;
    uniqueUops_ = 0;
    residency_.assign(code_ ? code_->totalUops() : 0, 0);
    for (const BankLine &l : lines_) {
        if (!l.valid)
            continue;
        if (!code_) {
            filledUops_ += l.slots.size();
            continue;
        }
        for (const UopSlot &s : l.slots) {
            xbs_assert(s.staticIdx >= 0 &&
                       (std::size_t)s.staticIdx < code_->size(),
                       "XBC slot outside the bound code");
        }
        accountSlots(l.slots, +1);
    }
}

void
XbcDataArray::rebuildMask(Variant &v)
{
    v.mask = 0;
    for (const auto &lu : v.lines)
        v.mask |= 1u << lu.bank;
}

void
XbcDataArray::refreshLru(Variant &v)
{
    std::size_t set = setOf(v.tag);
    for (const auto &lu : v.lines)
        line(lu, set).lru = ++clock_;
}

void
XbcDataArray::dropVariantsUsing(uint64_t tag, std::size_t set,
                                unsigned bank, unsigned way)
{
    auto &vars = sets_[set];
    auto of_tag = [tag](const Variant &v) { return v.tag == tag; };
    if (std::none_of(vars.begin(), vars.end(), of_tag)) {
        // Line outlived every variant of its tag; still an eviction
        // for the structure-accounting heatmap.
        if (sink_)
            sink_->onEvict(tag, bank, set, false, false);
        return;
    }
    bool head = false;

    // Paper section 3.10: evicting a head line still leaves the XB
    // enterable in its middle, so a variant losing a line keeps its
    // surviving suffix (the lines after the evicted one); only a
    // variant losing its primary line dies entirely.
    for (auto &v : vars) {
        if (v.tag != tag)
            continue;
        std::size_t hit = v.lines.size();
        for (std::size_t i = 0; i < v.lines.size(); ++i) {
            if (v.lines[i].bank == bank && v.lines[i].way == way) {
                hit = i;
                break;
            }
        }
        if (hit == v.lines.size())
            continue;
        if (hit == 0)
            head = true;
        ++variantDrops;
        std::size_t keep_uops = 0;
        for (std::size_t i = hit + 1; i < v.lines.size(); ++i)
            keep_uops += v.lines[i].count;
        if (keep_uops == 0) {
            v.lines.clear();  // marks the variant dead
            v.seq.clear();
            continue;
        }
        v.lines.erase(v.lines.begin(), v.lines.begin() + hit + 1);
        v.seq.erase(v.seq.begin(), v.seq.end() - keep_uops);
        rebuildMask(v);
    }
    std::erase_if(vars, [tag](const Variant &v) {
        return v.tag == tag && v.lines.empty();
    });

    // Truncation can leave duplicate suffix-only variants; keep the
    // earliest.
    for (std::size_t i = 0; i < vars.size(); ++i) {
        if (vars[i].tag != tag)
            continue;
        for (std::size_t j = vars.size(); j-- > i + 1;) {
            if (vars[j].tag == tag && vars[j].seq == vars[i].seq &&
                vars[j].mask == vars[i].mask) {
                vars.erase(vars.begin() + (std::ptrdiff_t)j);
            }
        }
    }
    bool last_gone = std::none_of(vars.begin(), vars.end(), of_tag);
    if (sink_)
        sink_->onEvict(tag, bank, set, head, last_gone);
}

std::optional<XbcDataArray::LineUse>
XbcDataArray::allocLine(uint64_t tag, std::size_t set,
                        uint32_t used_banks, uint32_t avoid_mask)
{
    const uint32_t all = mask(params_.numBanks);
    uint32_t allowed = all & ~used_banks;
    if (!allowed)
        return std::nullopt;

    // Pass 1: an invalid way in a preferred (non-avoid) bank.
    // Pass 2: an invalid way anywhere allowed.
    // Pass 3: LRU victim in a preferred bank.
    // Pass 4: LRU victim anywhere allowed.
    for (int pass = 0; pass < 4; ++pass) {
        bool prefer = (pass == 0 || pass == 2);
        bool want_invalid = (pass < 2);
        BankLine *victim = nullptr;
        LineUse ref;
        for (unsigned b = 0; b < params_.numBanks; ++b) {
            if (!(allowed & (1u << b)))
                continue;
            if (prefer && (avoid_mask & (1u << b)))
                continue;
            for (unsigned w = 0; w < params_.ways; ++w) {
                BankLine &l = line(b, set, w);
                if (want_invalid) {
                    if (!l.valid) {
                        victim = &l;
                        ref = LineUse{(uint8_t)b, (uint8_t)w, 0};
                        break;
                    }
                } else if (l.valid) {
                    if (!victim || l.lru < victim->lru) {
                        victim = &l;
                        ref = LineUse{(uint8_t)b, (uint8_t)w, 0};
                    }
                }
            }
            if (want_invalid && victim)
                break;
        }
        if (!victim)
            continue;

        if (victim->valid) {
            ++evictions;
            accountSlots(victim->slots, -1);
            dropVariantsUsing(victim->tag, set, ref.bank, ref.way);
        }
        victim->valid = true;
        victim->tag = tag;
        victim->lru = ++clock_;
        victim->conflict = 0;
        victim->slots.clear();
        if (sink_)
            sink_->onAlloc(tag, ref.bank, set);
        return ref;
    }
    return std::nullopt;
}

bool
XbcDataArray::placeChunks(const XbSeq &seq, std::size_t uops,
                          uint64_t tag, std::size_t set,
                          uint32_t used_banks, uint32_t avoid_mask,
                          LineList &placed)
{
    xbs_assert(uops >= 1 && uops <= seq.size(), "bad chunk span");

    // Reverse-order fill: full bankUops chunks counted from the end
    // of the span; the head chunk takes the remainder, leaving free
    // space at the head line for later extension.
    const std::size_t head = uops % params_.bankUops;
    const std::size_t chunks = uops / params_.bankUops + (head ? 1 : 0);
    if (chunks > popCount(mask(params_.numBanks) & ~used_banks))
        return false;

    placed.clear();
    uint32_t banks = used_banks;
    std::size_t pos = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t sz = (c == 0 && head) ? head
                                                : params_.bankUops;
        auto lu = allocLine(tag, set, banks, avoid_mask);
        if (!lu) {
            // Roll back lines placed so far.
            for (auto &p : placed) {
                BankLine &l = line(p, set);
                accountSlots(l.slots, -1);
                l.valid = false;
                l.slots.clear();
            }
            placed.clear();
            return false;
        }
        BankLine &l = line(*lu, set);
        l.slots.assign(seq.begin() + pos, seq.begin() + pos + sz);
        accountSlots(l.slots, +1);
        lu->count = (uint16_t)sz;
        placed.push_back(*lu);
        banks |= 1u << lu->bank;
        pos += sz;
    }
    return true;
}

XbcDataArray::InsertOutcome
XbcDataArray::insert(const XbSeq &seq, uint64_t end_ip,
                     uint32_t prev_mask, XbPointer *out,
                     unsigned *common_out, bool allow_match)
{
    xbs_assert(!seq.empty() && seq.size() <= params_.xbQuotaUops,
               "bad XB length %zu", seq.size());
    ++inserts;
    ++version_;
    std::size_t set = setOf(end_ip);

    auto fill_out = [&](const Variant &v) {
        if (out) {
            out->valid = true;
            out->xbIp = end_ip;
            out->mask = v.mask;
            out->entryIdx = seq.front().staticIdx;
        }
    };
    if (out)
        out->valid = false;

    // Find the resident variant with the longest common suffix.
    // NOTE: evictions during line allocation can reshuffle the set's
    // variants, so everything needed later is copied out and the
    // variant is re-found by its sequence before mutation.
    auto &vars = sets_[set];
    unsigned best_common = 0;
    const Variant *best = nullptr;
    if (allow_match) {
        for (const auto &v : vars) {
            if (v.tag != end_ip)
                continue;
            unsigned c = commonSuffixLength(seq, v.seq);
            if (c > best_common) {
                best_common = c;
                best = &v;
            }
        }
    }
    const bool have_best = best != nullptr;
    const XbImage best_seq = have_best ? best->seq : XbImage{};
    const uint32_t best_mask = have_best ? best->mask : 0;
    const LineList best_lines = have_best ? best->lines : LineList{};

    auto refind_best = [&]() -> Variant * {
        for (auto &v : vars) {
            if (v.tag == end_ip && v.seq == best_seq &&
                v.mask == best_mask) {
                return &v;
            }
        }
        return nullptr;
    };

    if (have_best && best_common == seq.size()) {
        // Case 1: the existing XB contains the new one; only the
        // XBTB needs a pointer (multiple entry points at work).
        ++containedHits;
        Variant *v = refind_best();
        xbs_assert(v != nullptr, "case-1 variant vanished");
        fill_out(*v);
        return InsertOutcome::AlreadyPresent;
    }

    if (have_best && best_common == best_seq.size()) {
        // Case 2: the new XB contains the existing one; extend it at
        // its head. Reverse-order storage means nothing moves: free
        // head-line slots fill up, then fresh lines are allocated.
        std::size_t extra = seq.size() - best_common;
        const BankLine &hl_probe = line(best_lines.front(), set);
        // A truncated variant's head line may be partially used (its
        // leading slots belong to an evicted prefix); in-place head
        // fill is only legal when the variant owns the whole line.
        std::size_t free_slots = 0;
        if (hl_probe.slots.size() == best_lines.front().count)
            free_slots = params_.bankUops - hl_probe.slots.size();
        std::size_t take = std::min(free_slots, extra);
        std::size_t remaining = extra - take;

        // On bank exhaustion fall through to a fresh allocation.
        LineList new_lines;
        if (!remaining ||
            placeChunks(seq, remaining, end_ip, set, best_mask,
                        prev_mask, new_lines)) {
            Variant *v = refind_best();
            xbs_assert(v != nullptr,
                       "case-2 variant vanished (lines protected)");
            if (take) {
                BankLine &hl = line(v->lines.front(), set);
                std::span<const UopSlot> prepend(
                    seq.data() + remaining, take);
                hl.slots.insert(hl.slots.begin(), prepend.begin(),
                                prepend.end());
                accountSlots(prepend, +1);
                v->lines.front().count += (uint16_t)take;
            }
            v->lines.insert(v->lines.begin(), new_lines.begin(),
                            new_lines.end());
            v->seq.assign(seq.begin(), seq.end());
            rebuildMask(*v);
            // The XFU just wrote the whole extended image: re-stamp
            // the lines head-first so the section 3.10 aging order
            // (head line oldest) holds for the new shape too.
            refreshLru(*v);
            ++extensions;
            fill_out(*v);
            return InsertOutcome::Extended;
        }
    } else if (have_best &&
               params_.complexMode ==
                   XbcParams::ComplexMode::PrefixSplit) {
        // The caller (XFU) stores the differing prefix as an
        // independent XB and chains it through the XBTB.
        if (common_out)
            *common_out = best_common;
        return InsertOutcome::PrefixNeeded;
    } else if (have_best &&
               params_.complexMode ==
                   XbcParams::ComplexMode::Complex) {
        // Case 3: same suffix, different prefix -> complex XB. Share
        // as many suffix lines as the bank budget allows (the
        // boundary line may be shared partially thanks to the
        // reverse-order storage).
        std::size_t m = best_lines.size();
        // cum[j] = uops covered by the last j lines of best.
        std::size_t cum[kMaxBanks + 1] = {};
        for (std::size_t j = 1; j <= m; ++j)
            cum[j] = cum[j - 1] + best_lines[m - j].count;

        for (std::size_t k_shared = m; k_shared >= 1; --k_shared) {
            std::size_t shared_uops =
                std::min<std::size_t>(best_common, cum[k_shared]);
            if (shared_uops == 0 || shared_uops >= seq.size())
                continue;
            if (shared_uops <= cum[k_shared - 1])
                continue;  // k_shared-1 lines already cover it
            std::size_t prefix_uops = seq.size() - shared_uops;
            std::size_t prefix_lines =
                (prefix_uops + params_.bankUops - 1) /
                params_.bankUops;
            if (prefix_lines + k_shared > params_.numBanks)
                continue;

            uint32_t shared_banks = 0;
            for (std::size_t j = 0; j < k_shared; ++j)
                shared_banks |= 1u << best_lines[m - 1 - j].bank;

            Variant v;
            if (!placeChunks(seq, prefix_uops, end_ip, set,
                             shared_banks, prev_mask, v.lines)) {
                continue;
            }
            // The shared lines belong to best; they were excluded
            // from eviction via shared_banks, so they still hold.
            v.tag = end_ip;
            for (std::size_t j = k_shared; j-- > 0;) {
                LineUse lu = best_lines[m - 1 - j];
                if (j == k_shared - 1) {
                    // Earliest shared line: partial use.
                    std::size_t before = cum[k_shared - 1];
                    lu.count = (uint16_t)(shared_uops - before);
                }
                v.lines.push_back(lu);
            }
            v.seq.assign(seq.begin(), seq.end());
            rebuildMask(v);
            ++complexAdds;
            vars.push_back(v);
            // Head-first aging for the complex image too (the shared
            // suffix lines were just accessed by the store).
            refreshLru(vars.back());
            fill_out(vars.back());
            return InsertOutcome::ComplexAdded;
        }
    }

    // Fresh allocation (also the complex fallback and the
    // prefix-as-independent-XB policy when complex XBs are disabled).
    {
        Variant v;
        if (!placeChunks(seq, seq.size(), end_ip, set, 0, prev_mask,
                         v.lines)) {
            if (out)
                out->valid = false;
            return InsertOutcome::IndependentAdded;
        }
        v.tag = end_ip;
        v.seq.assign(seq.begin(), seq.end());
        rebuildMask(v);
        bool fresh = std::none_of(
            vars.begin(), vars.end(),
            [end_ip](const Variant &o) { return o.tag == end_ip; });
        vars.push_back(v);
        if (fresh)
            ++allocs;
        else
            ++independentAdds;
        fill_out(vars.back());
        return fresh ? InsertOutcome::Allocated
                     : InsertOutcome::IndependentAdded;
    }
}

XbcDataArray::Access
XbcDataArray::findQuiet(uint64_t tag, int32_t entry_idx)
{
    Access acc;
    for (const auto &v : sets_[setOf(tag)]) {
        if (v.tag != tag)
            continue;
        for (std::size_t p = 0; p < v.seq.size(); ++p) {
            if (v.seq[p].staticIdx == entry_idx && v.seq[p].seq == 0) {
                acc.variant = &v;
                acc.entryPos = p;
                return acc;
            }
        }
    }
    return acc;
}

const XbcDataArray::Variant *
XbcDataArray::longestVariant(uint64_t tag) const
{
    const Variant *best = nullptr;
    for (const auto &v : sets_[setOf(tag)]) {
        if (v.tag == tag && (!best || v.seq.size() > best->seq.size()))
            best = &v;
    }
    return best;
}

XbcDataArray::Access
XbcDataArray::setSearch(uint64_t tag, int32_t entry_idx)
{
    ++setSearches;
    Access acc = findQuiet(tag, entry_idx);
    if (acc.variant)
        ++setSearchHits;
    return acc;
}

bool
XbcDataArray::noteConflict(const Variant &variant,
                           std::size_t line_pos,
                           uint32_t free_banks_mask)
{
    // An eviction below shifts the set's variants under @p variant,
    // so copy out everything read from it.
    const uint64_t tag = variant.tag;
    const uint32_t variant_mask = variant.mask;
    const std::size_t set = setOf(tag);
    const LineUse lu = variant.lines[line_pos];
    BankLine &l = line(lu, set);
    ++l.conflict;
    if (sink_)
        sink_->onConflict(lu.bank, set);
    if (!params_.dynamicPlacement ||
        l.conflict < params_.dynamicPlacementThreshold) {
        return false;
    }
    l.conflict = 0;

    uint32_t candidates = free_banks_mask & ~variant_mask &
                          (uint32_t)mask(params_.numBanks);
    for (unsigned b = 0; b < params_.numBanks; ++b) {
        if (!(candidates & (1u << b)))
            continue;
        for (unsigned w = 0; w < params_.ways; ++w) {
            BankLine &target = line(b, set, w);
            // Move only into an invalid way or over an older line
            // ("only if its LRU is higher, or both gain").
            if (target.valid && target.lru >= l.lru)
                continue;
            ++version_;
            if (target.valid) {
                ++evictions;
                accountSlots(target.slots, -1);
                dropVariantsUsing(target.tag, set, b, w);
            }
            target = l;
            l.valid = false;
            l.slots.clear();
            l.conflict = 0;

            // Repoint every variant of this tag that used the old
            // line; drop any that would now collide on the bank.
            auto &vars = sets_[set];
            for (auto &v : vars) {
                if (v.tag != tag)
                    continue;
                for (auto &ref : v.lines) {
                    if (ref.bank == lu.bank && ref.way == lu.way) {
                        ref.bank = (uint8_t)b;
                        ref.way = (uint8_t)w;
                    }
                }
                rebuildMask(v);
            }
            // Drop variants with duplicate banks (unreadable).
            std::erase_if(vars, [tag](const Variant &v) {
                if (v.tag != tag)
                    return false;
                uint32_t seen = 0;
                for (const auto &ref : v.lines) {
                    if (seen & (1u << ref.bank))
                        return true;
                    seen |= 1u << ref.bank;
                }
                return false;
            });
            ++relocations;
            return true;
        }
    }
    return false;
}

void
XbcDataArray::demoteLru(uint64_t tag, uint32_t mask_bits)
{
    std::size_t set = setOf(tag);
    for (const auto &v : sets_[set]) {
        if (v.tag != tag || v.mask != mask_bits)
            continue;
        for (const auto &lu : v.lines)
            line(lu, set).lru = 0;
    }
}

double
XbcDataArray::redundancy() const
{
    return uniqueUops_ ? (double)filledUops_ / (double)uniqueUops_
                       : 1.0;
}

double
XbcDataArray::fillFactor() const
{
    uint64_t reserved = 0;
    for (const auto &l : lines_) {
        if (l.valid)
            reserved += params_.bankUops;
    }
    return reserved ? (double)filledUops_ / (double)reserved : 0.0;
}

void
XbcDataArray::auditStorage(
    const std::function<void(AuditViolation)> &sink) const
{
    auto report = [&](AuditViolation::Kind kind, std::string what) {
        AuditViolation v;
        v.kind = kind;
        v.where = "xbc.array";
        v.what = std::move(what);
        sink(std::move(v));
    };
    auto structural = [&](std::string what) {
        report(AuditViolation::Kind::Structural, std::move(what));
    };

    for (std::size_t set = 0; set < numSets_; ++set) {
        const auto &vars = sets_[set];
        for (std::size_t vi = 0; vi < vars.size(); ++vi) {
            const Variant &v = vars[vi];
            const uint64_t tag = v.tag;
            std::string where =
                "tag " + std::to_string(tag) + ": ";
            if (setOf(tag) != set) {
                structural(where + "variant filed in a foreign set");
                continue;
            }
            if (v.lines.empty() || v.seq.empty()) {
                structural(where + "empty variant");
                continue;
            }
            if (v.seq.size() > params_.xbQuotaUops) {
                structural(where + "variant of " +
                           std::to_string(v.seq.size()) +
                           " uops exceeds the " +
                           std::to_string(params_.xbQuotaUops) +
                           "-uop quota");
            }

            // Reverse-order banking: the concatenation of each
            // line's trailing `count` slots, head line first, must
            // reproduce the variant's logical sequence (this is what
            // makes mid-line complex-XB suffix sharing legal).
            uint32_t banks = 0;
            bool lines_ok = true;
            XbSeq concat;
            for (const auto &lu : v.lines) {
                if (banks & (1u << lu.bank)) {
                    structural(where +
                               "duplicate bank within variant");
                    lines_ok = false;
                    break;
                }
                banks |= 1u << lu.bank;
                const BankLine &l = line(lu.bank, set, lu.way);
                if (!l.valid || l.tag != tag) {
                    structural(where +
                               "variant references a stale line");
                    lines_ok = false;
                    break;
                }
                if (lu.count < 1 || lu.count > l.slots.size()) {
                    structural(where + "bad line use count " +
                               std::to_string(lu.count));
                    lines_ok = false;
                    break;
                }
                // (A truncated variant's head line may be partially
                // used, so no head-fullness invariant.)
                concat.insert(concat.end(),
                              l.slots.end() - lu.count,
                              l.slots.end());
            }
            if (!lines_ok)
                continue;
            if (banks != v.mask)
                structural(where + "stale bank mask");
            if (concat.size() != v.seq.size()) {
                structural(where + "sequence length mismatch");
                continue;
            }
            for (std::size_t i = 0; i < concat.size(); ++i) {
                if (!(concat[i] == v.seq[i])) {
                    structural(where +
                               "sequence content mismatch at uop " +
                               std::to_string(i) +
                               " (reverse-order banking broken)");
                    break;
                }
            }

            // Head-first aging (section 3.10): line LRU must be
            // non-decreasing head -> primary so a head line is
            // always the first of the XB to age out. demoteLru()
            // zeroes a promoted XB0's lines; such variants are
            // deliberately aged and skipped here.
            bool demoted = false;
            for (const auto &lu : v.lines)
                demoted |= line(lu.bank, set, lu.way).lru == 0;
            if (!demoted) {
                for (std::size_t i = 1; i < v.lines.size(); ++i) {
                    const BankLine &prev =
                        line(v.lines[i - 1].bank, set,
                             v.lines[i - 1].way);
                    const BankLine &cur =
                        line(v.lines[i].bank, set, v.lines[i].way);
                    if (prev.lru > cur.lru) {
                        structural(where + "head line " +
                                   std::to_string(i - 1) +
                                   " is newer than line " +
                                   std::to_string(i) +
                                   " (head-first aging broken)");
                        break;
                    }
                }
            }

            // Single exit / instruction-boundary integrity: the
            // sequence must be whole instructions, and an XB-ending
            // class may sit mid-XB only where construction puts one:
            // CondBranch anywhere (promotion embeds them), DirectJump
            // and Seq anywhere (absorbed), and call/return/indirect
            // at the head or right after an embedded CondBranch (the
            // quota path spills the ending instruction into the next
            // XB, and promotion splices such a successor in whole).
            if (code_) {
                std::size_t p = 0;
                InstClass prev_cls = InstClass::CondBranch;
                // Suffix-preserving truncation may leave the head
                // instruction partially cached: tolerate a consistent
                // tail of one instruction before the first boundary.
                if (!v.seq.empty() && v.seq[0].seq != 0 &&
                    v.seq[0].staticIdx >= 0 &&
                    (std::size_t)v.seq[0].staticIdx < code_->size()) {
                    const UopSlot &h = v.seq[0];
                    const StaticInst &hi = code_->inst(h.staticIdx);
                    bool tail_ok = h.seq < hi.numUops;
                    std::size_t u = 0;
                    for (; tail_ok && u < v.seq.size() &&
                           h.seq + u < hi.numUops; ++u) {
                        if (!(v.seq[u] ==
                              UopSlot{h.staticIdx,
                                      (uint8_t)(h.seq + u)})) {
                            tail_ok = false;
                        }
                    }
                    if (!tail_ok) {
                        structural(where + "partial head instruction "
                                   "stored with foreign uops");
                        p = v.seq.size();
                    } else {
                        p = u;
                        prev_cls = hi.cls;
                    }
                }
                while (p < v.seq.size()) {
                    const UopSlot &s = v.seq[p];
                    if (s.seq != 0 || s.staticIdx < 0 ||
                        (std::size_t)s.staticIdx >= code_->size()) {
                        structural(where +
                                   "uop " + std::to_string(p) +
                                   " is not an instruction boundary");
                        break;
                    }
                    const StaticInst &si = code_->inst(s.staticIdx);
                    if (p + si.numUops > v.seq.size()) {
                        structural(where + "instruction at uop " +
                                   std::to_string(p) +
                                   " truncated by the sequence end");
                        break;
                    }
                    bool whole = true;
                    for (unsigned u = 1; u < si.numUops; ++u) {
                        if (!(v.seq[p + u] ==
                              UopSlot{s.staticIdx, (uint8_t)u})) {
                            structural(
                                where + "instruction at uop " +
                                std::to_string(p) +
                                " stored with foreign uops");
                            whole = false;
                            break;
                        }
                    }
                    if (!whole)
                        break;
                    bool last = p + si.numUops == v.seq.size();
                    if (!last && (isIndirect(si.cls) ||
                                  si.cls == InstClass::DirectCall) &&
                        prev_cls != InstClass::CondBranch) {
                        structural(
                            where + std::string(
                                instClassName(si.cls)) +
                            " at uop " + std::to_string(p) +
                            " in mid-XB (single-exit broken)");
                    }
                    prev_cls = si.cls;
                    p += si.numUops;
                }
            }

            // Uniqueness: truncation dedup and the three-case build
            // keep at most one variant per (mask, sequence) image.
            for (std::size_t vj = vi + 1; vj < vars.size(); ++vj) {
                if (vars[vj].tag == tag && vars[vj].mask == v.mask &&
                    vars[vj].seq == v.seq) {
                    structural(where + "duplicate variant image");
                }
            }
        }
    }

    // Accounting: residency and fill counters must match the
    // physical contents exactly (this is what redundancy() and the
    // paper's "(nearly) redundancy free" claim are computed from).
    uint64_t filled = 0;
    uint64_t unique = 0;
    std::vector<uint32_t> counted(residency_.size(), 0);
    for (const auto &l : lines_) {
        if (!l.valid)
            continue;
        if (l.slots.size() > params_.bankUops) {
            structural("overfull line (" +
                       std::to_string(l.slots.size()) + " slots)");
        }
        filled += l.slots.size();
        if (code_) {
            for (const auto &s : l.slots) {
                if (s.staticIdx >= 0 &&
                    (std::size_t)s.staticIdx < code_->size()) {
                    unique += counted[uopNumber(s)]++ == 0;
                }
            }
        }
    }
    if (filled != filledUops_) {
        report(AuditViolation::Kind::Accounting,
               "filledUops counter " + std::to_string(filledUops_) +
                   " != physical " + std::to_string(filled));
    }
    if (code_ && (counted != residency_ || unique != uniqueUops_)) {
        report(AuditViolation::Kind::Accounting,
               "residency counters (" + std::to_string(uniqueUops_) +
                   " unique uops) disagree with physical contents (" +
                   std::to_string(unique) + ")");
    }
}

void
XbcDataArray::checkInvariants() const
{
    auditStorage([](AuditViolation v) {
        xbs_panic("XBC invariant violated: %s", v.what.c_str());
    });
}

bool
XbcDataArray::faultInvalidateLine(std::size_t idx)
{
    if (idx >= lines_.size() || !lines_[idx].valid)
        return false;
    BankLine &l = lines_[idx];
    unsigned way = (unsigned)(idx % params_.ways);
    std::size_t set = (idx / params_.ways) % numSets_;
    unsigned bank = (unsigned)(idx / ((std::size_t)params_.ways *
                                      numSets_));
    ++version_;
    ++evictions;
    accountSlots(l.slots, -1);
    dropVariantsUsing(l.tag, set, bank, way);
    l.valid = false;
    l.slots.clear();
    l.conflict = 0;
    return true;
}

bool
XbcDataArray::faultCorruptSlot(Rng &rng)
{
    if (!code_ || code_->size() < 2)
        return false;
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        if (lines_[i].valid && !lines_[i].slots.empty())
            candidates.push_back(i);
    }
    if (candidates.empty())
        return false;
    std::size_t idx = candidates[rng.below(candidates.size())];
    BankLine &l = lines_[idx];
    unsigned way = (unsigned)(idx % params_.ways);
    std::size_t set = (idx / params_.ways) % numSets_;
    unsigned bank = (unsigned)(idx / ((std::size_t)params_.ways *
                                      numSets_));

    std::size_t j = (std::size_t)rng.below(l.slots.size());
    UopSlot &slot = l.slots[j];
    int32_t new_idx = (int32_t)(((uint64_t)slot.staticIdx + 1 +
                                 rng.below(code_->size() - 1)) %
                                code_->size());

    // Keep the books balanced: the corruption changes *content*,
    // not structure, so the structural audit stays clean while the
    // frontend's match checks and the oracle see the damage.
    ++version_;
    accountSlots({&slot, 1}, -1);
    slot.staticIdx = new_idx;
    accountSlots({&slot, 1}, +1);

    // Mirror into every variant sequence that covers the slot (a
    // variant uses the trailing `count` slots of each line).
    if (setOf(l.tag) == set) {
        for (auto &v : sets_[set]) {
            if (v.tag != l.tag)
                continue;
            std::size_t pos = 0;
            for (const auto &lu : v.lines) {
                if (lu.bank == bank && lu.way == way) {
                    std::size_t first = l.slots.size() - lu.count;
                    if (j >= first)
                        v.seq[pos + (j - first)] = slot;
                }
                pos += lu.count;
            }
        }
    }
    return true;
}

bool
XbcDataArray::tamperDuplicateVariant()
{
    for (auto &vars : sets_) {
        if (!vars.empty()) {
            ++version_;
            vars.push_back(vars.front());
            return true;
        }
    }
    return false;
}

bool
XbcDataArray::tamperSwapVariantLines()
{
    for (auto &vars : sets_) {
        for (auto &v : vars) {
            if (v.lines.size() >= 2) {
                ++version_;
                std::swap(v.lines[0], v.lines[1]);
                rebuildMask(v);
                return true;
            }
        }
    }
    return false;
}

bool
XbcDataArray::tamperStaleHeadLru()
{
    for (std::size_t set = 0; set < numSets_; ++set) {
        for (auto &v : sets_[set]) {
            if (v.lines.size() < 2)
                continue;
            bool demoted = false;
            for (const auto &lu : v.lines)
                demoted |= line(lu, set).lru == 0;
            if (demoted)
                continue;
            line(v.lines.front(), set).lru = clock_ + 1000;
            return true;
        }
    }
    return false;
}

void
XbcDataArray::reset()
{
    for (auto &l : lines_)
        l = BankLine{};
    for (auto &vars : sets_)
        vars.clear();
    recount();
    clock_ = 0;
    ++version_;
    resetStats();
}

} // namespace xbs
