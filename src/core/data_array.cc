#include "core/data_array.hh"

#include <algorithm>

#include "ckpt/serial.hh"
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
    unsigned set_uops = params_.numBanks * params_.bankUops *
                        params_.ways;
    unsigned sets = params_.capacityUops / set_uops;
    xbs_assert(sets >= 1, "XBC capacity below one set");
    numSets_ = 1u << floorLog2(sets);
    lines_.resize((std::size_t)params_.numBanks * numSets_ *
                  params_.ways);
}

std::size_t
XbcDataArray::setOf(uint64_t tag) const
{
    return (std::size_t)foldedIndex(tag, numSets_, 0);
}

XbcDataArray::BankLine &
XbcDataArray::line(unsigned bank, std::size_t set, unsigned way)
{
    return lines_[((std::size_t)bank * numSets_ + set) * params_.ways +
                  way];
}

const XbcDataArray::BankLine &
XbcDataArray::line(unsigned bank, std::size_t set, unsigned way) const
{
    return lines_[((std::size_t)bank * numSets_ + set) * params_.ways +
                  way];
}

XbcDataArray::BankLine &
XbcDataArray::line(const LineUse &lu, std::size_t set)
{
    return line(lu.bank, set, lu.way);
}

void
XbcDataArray::accountSlots(const std::vector<UopSlot> &slots, int delta)
{
    xbs_assert(code_ != nullptr, "XBC used before bindCode()");
    for (const auto &s : slots) {
        UopId id = makeUopId(code_->inst(s.staticIdx).ip, s.seq);
        if (delta > 0) {
            ++residency_[id];
            ++filledUops_;
        } else {
            auto it = residency_.find(id);
            xbs_assert(it != residency_.end() && it->second > 0,
                       "XBC residency underflow");
            if (--it->second == 0)
                residency_.erase(it);
            --filledUops_;
        }
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
    auto it = directory_.find(tag);
    if (it == directory_.end()) {
        // Line outlived every variant of its tag; still an eviction
        // for the structure-accounting heatmap.
        if (sink_)
            sink_->onEvict(tag, bank, set, false, false);
        return;
    }
    auto &vars = it->second;
    bool head = false;

    // Paper section 3.10: evicting a head line still leaves the XB
    // enterable in its middle, so a variant losing a line keeps its
    // surviving suffix (the lines after the evicted one); only a
    // variant losing its primary line dies entirely.
    for (auto &v : vars) {
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
        v.lines.erase(v.lines.begin(),
                      v.lines.begin() + (std::ptrdiff_t)hit + 1);
        v.seq.erase(v.seq.begin(),
                    v.seq.end() - (std::ptrdiff_t)keep_uops);
        rebuildMask(v);
    }
    vars.erase(std::remove_if(vars.begin(), vars.end(),
                              [](const Variant &v) {
                                  return v.lines.empty();
                              }),
               vars.end());

    // Truncation can leave duplicate suffix-only variants; keep one.
    for (std::size_t i = 0; i < vars.size(); ++i) {
        for (std::size_t j = vars.size(); j-- > i + 1;) {
            if (vars[j].seq == vars[i].seq &&
                vars[j].mask == vars[i].mask) {
                vars.erase(vars.begin() + (std::ptrdiff_t)j);
            }
        }
    }
    bool last_gone = vars.empty();
    if (last_gone)
        directory_.erase(it);
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

std::optional<std::vector<XbcDataArray::LineUse>>
XbcDataArray::placeChunks(const XbSeq &seq, std::size_t uops,
                          uint64_t tag, std::size_t set,
                          uint32_t used_banks, uint32_t avoid_mask)
{
    xbs_assert(uops >= 1 && uops <= seq.size(), "bad chunk span");

    // Reverse-order fill: full bankUops chunks counted from the end
    // of the span; the head chunk takes the remainder, leaving free
    // space at the head line for later extension.
    std::vector<std::size_t> sizes;
    std::size_t head = uops % params_.bankUops;
    if (head)
        sizes.push_back(head);
    for (std::size_t done = head; done < uops;
         done += params_.bankUops) {
        sizes.push_back(params_.bankUops);
    }

    if (sizes.size() > popCount(mask(params_.numBanks) & ~used_banks))
        return std::nullopt;

    std::vector<LineUse> placed;
    uint32_t banks = used_banks;
    std::size_t pos = 0;
    for (std::size_t sz : sizes) {
        auto lu = allocLine(tag, set, banks, avoid_mask);
        if (!lu) {
            // Roll back lines placed so far.
            for (auto &p : placed) {
                BankLine &l = line(p, set);
                accountSlots(l.slots, -1);
                l.valid = false;
                l.slots.clear();
            }
            return std::nullopt;
        }
        BankLine &l = line(*lu, set);
        l.slots.assign(seq.begin() + pos, seq.begin() + pos + sz);
        accountSlots(l.slots, +1);
        lu->count = (uint16_t)sz;
        placed.push_back(*lu);
        banks |= 1u << lu->bank;
        pos += sz;
    }
    return placed;
}

XbcDataArray::InsertOutcome
XbcDataArray::insert(const XbSeq &seq, uint64_t end_ip,
                     uint32_t prev_mask, XbPointer *out,
                     unsigned *common_out, bool allow_match)
{
    xbs_assert(!seq.empty() && seq.size() <= params_.xbQuotaUops,
               "bad XB length %zu", seq.size());
    ++inserts;
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
    // NOTE: evictions during line allocation can reshuffle the
    // variant vector, so everything needed later is copied out and
    // the variant is re-found by its sequence before mutation.
    unsigned best_common = 0;
    XbSeq best_seq;
    uint32_t best_mask = 0;
    std::vector<LineUse> best_lines;
    if (allow_match) {
        auto it = directory_.find(end_ip);
        if (it != directory_.end()) {
            for (auto &v : it->second) {
                unsigned c = commonSuffixLength(seq, v.seq);
                if (c > best_common) {
                    best_common = c;
                    best_seq = v.seq;
                    best_mask = v.mask;
                    best_lines = v.lines;
                }
            }
        }
    }
    bool have_best = best_common > 0;

    auto refind_best = [&]() -> Variant * {
        auto it = directory_.find(end_ip);
        if (it == directory_.end())
            return nullptr;
        for (auto &v : it->second) {
            if (v.seq == best_seq && v.mask == best_mask)
                return &v;
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

        std::vector<LineUse> new_lines;
        bool ok = true;
        if (remaining) {
            auto chunks = placeChunks(seq, remaining, end_ip, set,
                                      best_mask, prev_mask);
            if (chunks)
                new_lines = std::move(*chunks);
            else
                ok = false;  // bank exhaustion; fall through below
        }
        if (ok) {
            Variant *v = refind_best();
            xbs_assert(v != nullptr,
                       "case-2 variant vanished (lines protected)");
            if (take) {
                BankLine &hl = line(v->lines.front(), set);
                std::vector<UopSlot> prepend(
                    seq.begin() + remaining,
                    seq.begin() + remaining + take);
                hl.slots.insert(hl.slots.begin(), prepend.begin(),
                                prepend.end());
                accountSlots(prepend, +1);
                v->lines.front().count += (uint16_t)take;
            }
            v->lines.insert(v->lines.begin(), new_lines.begin(),
                            new_lines.end());
            v->seq = seq;
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
        std::vector<std::size_t> cum(m + 1, 0);
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

            auto chunks = placeChunks(seq, prefix_uops, end_ip, set,
                                      shared_banks, prev_mask);
            if (!chunks)
                continue;
            // The shared lines belong to best; they were excluded
            // from eviction via shared_banks, so they still hold.
            Variant v;
            v.tag = end_ip;
            v.lines = std::move(*chunks);
            for (std::size_t j = k_shared; j-- > 0;) {
                LineUse lu = best_lines[m - 1 - j];
                if (j == k_shared - 1) {
                    // Earliest shared line: partial use.
                    std::size_t before = cum[k_shared - 1];
                    lu.count = (uint16_t)(shared_uops - before);
                }
                v.lines.push_back(lu);
            }
            v.seq = seq;
            rebuildMask(v);
            ++complexAdds;
            auto &vars = directory_[end_ip];
            vars.push_back(std::move(v));
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
        auto chunks = placeChunks(seq, seq.size(), end_ip, set, 0,
                                  prev_mask);
        if (!chunks) {
            if (out)
                out->valid = false;
            auto it = directory_.find(end_ip);
            if (it != directory_.end() && it->second.empty())
                directory_.erase(it);
            return InsertOutcome::IndependentAdded;
        }
        Variant v;
        v.tag = end_ip;
        v.lines = std::move(*chunks);
        v.seq = seq;
        rebuildMask(v);
        auto &vars = directory_[end_ip];
        bool fresh = vars.empty();
        vars.push_back(std::move(v));
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
XbcDataArray::lookup(uint64_t tag, uint32_t mask_bits,
                     int32_t entry_idx)
{
    Access acc;
    auto it = directory_.find(tag);
    if (it == directory_.end())
        return acc;
    for (auto &v : it->second) {
        if (v.mask != mask_bits)
            continue;
        // Entry must sit at an instruction boundary in the sequence.
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

XbcDataArray::Access
XbcDataArray::findQuiet(uint64_t tag, int32_t entry_idx)
{
    Access acc;
    auto it = directory_.find(tag);
    if (it == directory_.end())
        return acc;
    for (auto &v : it->second) {
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
    auto it = directory_.find(tag);
    if (it == directory_.end())
        return nullptr;
    const Variant *best = nullptr;
    for (const auto &v : it->second) {
        if (!best || v.seq.size() > best->seq.size())
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

void
XbcDataArray::touch(const Variant &variant, std::size_t entry_pos)
{
    std::size_t set = setOf(variant.tag);
    // Find the first line the entry falls into.
    std::size_t pos = 0;
    std::size_t start_line = 0;
    for (std::size_t i = 0; i < variant.lines.size(); ++i) {
        if (entry_pos < pos + variant.lines[i].count) {
            start_line = i;
            break;
        }
        pos += variant.lines[i].count;
    }
    // Touch head-to-primary so the primary ends most recent and a
    // head line is always the first of the XB to age out.
    for (std::size_t i = start_line; i < variant.lines.size(); ++i)
        line(variant.lines[i], set).lru = ++clock_;
}

bool
XbcDataArray::noteConflict(const Variant &variant,
                           std::size_t line_pos,
                           uint32_t free_banks_mask)
{
    std::size_t set = setOf(variant.tag);
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

    uint32_t candidates = free_banks_mask & ~variant.mask &
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
            auto it = directory_.find(variant.tag);
            if (it != directory_.end()) {
                auto &vars = it->second;
                for (auto &v : vars) {
                    for (auto &ref : v.lines) {
                        if (ref.bank == lu.bank && ref.way == lu.way) {
                            ref.bank = (uint8_t)b;
                            ref.way = (uint8_t)w;
                        }
                    }
                    rebuildMask(v);
                }
                // Drop variants with duplicate banks (unreadable).
                vars.erase(std::remove_if(vars.begin(), vars.end(),
                    [&](const Variant &v) {
                        uint32_t seen = 0;
                        for (const auto &ref : v.lines) {
                            if (seen & (1u << ref.bank))
                                return true;
                            seen |= 1u << ref.bank;
                        }
                        return false;
                    }), vars.end());
                if (vars.empty())
                    directory_.erase(it);
            }
            ++relocations;
            return true;
        }
    }
    return false;
}

void
XbcDataArray::demoteLru(uint64_t tag, uint32_t mask_bits)
{
    auto it = directory_.find(tag);
    if (it == directory_.end())
        return;
    std::size_t set = setOf(tag);
    for (auto &v : it->second) {
        if (v.mask != mask_bits)
            continue;
        for (const auto &lu : v.lines)
            line(lu, set).lru = 0;
    }
}

double
XbcDataArray::redundancy() const
{
    uint64_t instances = 0;
    for (const auto &[id, count] : residency_)
        instances += count;
    return residency_.empty()
               ? 1.0
               : (double)instances / (double)residency_.size();
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

    for (const auto &[tag, vars] : directory_) {
        std::size_t set = setOf(tag);
        std::string where =
            "tag " + std::to_string(tag) + ": ";
        for (std::size_t vi = 0; vi < vars.size(); ++vi) {
            const Variant &v = vars[vi];
            if (v.tag != tag) {
                structural(where + "variant tag mismatch");
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
                if (vars[vj].mask == v.mask &&
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
    std::unordered_map<UopId, uint32_t> counted;
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
                    ++counted[makeUopId(
                        code_->inst(s.staticIdx).ip, s.seq)];
                }
            }
        }
    }
    if (filled != filledUops_) {
        report(AuditViolation::Kind::Accounting,
               "filledUops counter " + std::to_string(filledUops_) +
                   " != physical " + std::to_string(filled));
    }
    if (code_ && counted != residency_) {
        report(AuditViolation::Kind::Accounting,
               "residency map (" + std::to_string(residency_.size()) +
                   " unique uops) disagrees with physical contents (" +
                   std::to_string(counted.size()) + ")");
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
    int32_t old_idx = slot.staticIdx;
    int32_t new_idx = (int32_t)(((uint64_t)old_idx + 1 +
                                 rng.below(code_->size() - 1)) %
                                code_->size());

    // Keep the books balanced: the corruption changes *content*,
    // not structure, so the structural audit stays clean while the
    // frontend's match checks and the oracle see the damage.
    UopId old_id = makeUopId(code_->inst(old_idx).ip, slot.seq);
    auto it = residency_.find(old_id);
    if (it != residency_.end() && --it->second == 0)
        residency_.erase(it);
    ++residency_[makeUopId(code_->inst(new_idx).ip, slot.seq)];
    slot.staticIdx = new_idx;

    // Mirror into every variant sequence that covers the slot (a
    // variant uses the trailing `count` slots of each line).
    auto dit = directory_.find(l.tag);
    if (dit != directory_.end() && setOf(l.tag) == set) {
        for (auto &v : dit->second) {
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
    for (auto &[tag, vars] : directory_) {
        if (!vars.empty()) {
            vars.push_back(vars.front());
            return true;
        }
    }
    return false;
}

bool
XbcDataArray::tamperSwapVariantLines()
{
    for (auto &[tag, vars] : directory_) {
        for (auto &v : vars) {
            if (v.lines.size() >= 2) {
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
    for (auto &[tag, vars] : directory_) {
        std::size_t set = setOf(tag);
        for (auto &v : vars) {
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
    directory_.clear();
    residency_.clear();
    filledUops_ = 0;
    clock_ = 0;
    resetStats();
}

namespace
{

void
saveSlots(CkptSink &sink, const std::vector<UopSlot> &slots)
{
    sink.u64(slots.size());
    for (const UopSlot &slot : slots) {
        sink.i32(slot.staticIdx);
        sink.u8(slot.seq);
    }
}

void
loadSlots(CkptSource &src, std::vector<UopSlot> &slots)
{
    uint64_t n = src.count(5);
    slots.clear();
    slots.reserve(src.ok() ? n : 0);
    for (uint64_t i = 0; src.ok() && i < n; ++i) {
        UopSlot slot;
        slot.staticIdx = src.i32();
        slot.seq = src.u8();
        if (src.ok())
            slots.push_back(slot);
    }
}

} // namespace

void
XbcDataArray::ckptSave(CkptSink &sink) const
{
    sink.u64(lines_.size());
    for (const BankLine &l : lines_) {
        sink.b(l.valid);
        sink.u64(l.tag);
        sink.u64(l.lru);
        sink.u32(l.conflict);
        saveSlots(sink, l.slots);
    }

    std::vector<uint64_t> tags;
    tags.reserve(directory_.size());
    for (const auto &kv : directory_)
        tags.push_back(kv.first);
    std::sort(tags.begin(), tags.end());
    sink.u64(tags.size());
    for (uint64_t tag : tags) {
        const std::vector<Variant> &variants = directory_.at(tag);
        sink.u64(tag);
        sink.u64(variants.size());
        for (const Variant &v : variants) {
            sink.u64(v.tag);
            sink.u32(v.mask);
            sink.u64(v.lines.size());
            for (const LineUse &lu : v.lines) {
                sink.u8(lu.bank);
                sink.u8(lu.way);
                sink.u16(lu.count);
            }
            saveSlots(sink, v.seq);
        }
    }

    sink.u64(clock_);

    std::vector<uint64_t> uop_ids;
    uop_ids.reserve(residency_.size());
    for (const auto &kv : residency_)
        uop_ids.push_back(kv.first);
    std::sort(uop_ids.begin(), uop_ids.end());
    sink.u64(uop_ids.size());
    for (uint64_t id : uop_ids) {
        sink.u64(id);
        sink.u32(residency_.at(id));
    }
    sink.u64(filledUops_);

    std::vector<int32_t> idxs;
    idxs.reserve(ipOf_.size());
    for (const auto &kv : ipOf_)
        idxs.push_back(kv.first);
    std::sort(idxs.begin(), idxs.end());
    sink.u64(idxs.size());
    for (int32_t idx : idxs) {
        sink.i32(idx);
        sink.u64(ipOf_.at(idx));
    }
}

void
XbcDataArray::ckptLoad(CkptSource &src)
{
    uint64_t n = src.count(1);
    src.require(n == lines_.size());
    for (std::size_t i = 0; src.ok() && i < lines_.size(); ++i) {
        BankLine &l = lines_[i];
        l.valid = src.b();
        l.tag = src.u64();
        l.lru = src.u64();
        l.conflict = src.u32();
        loadSlots(src, l.slots);
    }

    directory_.clear();
    uint64_t tags = src.count(16);
    for (uint64_t t = 0; src.ok() && t < tags; ++t) {
        uint64_t tag = src.u64();
        uint64_t num_variants = src.count(1);
        std::vector<Variant> variants;
        variants.reserve(src.ok() ? num_variants : 0);
        for (uint64_t v = 0; src.ok() && v < num_variants; ++v) {
            Variant var;
            var.tag = src.u64();
            var.mask = src.u32();
            uint64_t num_lines = src.count(4);
            var.lines.reserve(src.ok() ? num_lines : 0);
            for (uint64_t lu = 0; src.ok() && lu < num_lines; ++lu) {
                LineUse use;
                use.bank = src.u8();
                use.way = src.u8();
                use.count = src.u16();
                src.require(use.bank < params_.numBanks &&
                            use.way < params_.ways);
                if (src.ok())
                    var.lines.push_back(use);
            }
            loadSlots(src, var.seq);
            if (src.ok())
                variants.push_back(std::move(var));
        }
        if (src.ok())
            directory_[tag] = std::move(variants);
    }

    clock_ = src.u64();

    residency_.clear();
    uint64_t uop_ids = src.count(12);
    for (uint64_t i = 0; src.ok() && i < uop_ids; ++i) {
        uint64_t id = src.u64();
        uint32_t count = src.u32();
        if (src.ok())
            residency_[id] = count;
    }
    filledUops_ = src.u64();

    ipOf_.clear();
    uint64_t idxs = src.count(12);
    for (uint64_t i = 0; src.ok() && i < idxs; ++i) {
        int32_t idx = src.i32();
        uint64_t ip = src.u64();
        if (src.ok())
            ipOf_[idx] = ip;
    }
}

} // namespace xbs
