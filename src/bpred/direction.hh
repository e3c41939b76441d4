/**
 * @file
 * Direction predictors: GSHARE [McF93] and a bimodal baseline.
 *
 * The paper simulates a 16-bit-history GSHARE for both the XBC (as
 * the XBP sub-unit) and the TC. Prediction and update are separated
 * so frontends can predict speculatively and update at retirement
 * order (our trace-driven model updates immediately after comparing
 * with the actual outcome).
 */

#ifndef XBS_BPRED_DIRECTION_HH
#define XBS_BPRED_DIRECTION_HH

#include <cstdint>
#include <vector>

#include "common/bitops.hh"

namespace xbs
{

/** Common interface so frontends can swap direction predictors. */
class DirectionPredictor
{
  public:
    virtual ~DirectionPredictor() = default;

    /** Predict the direction of the branch at @p ip. */
    virtual bool predict(uint64_t ip) const = 0;

    /** Commit the actual outcome (updates tables and history). */
    virtual void update(uint64_t ip, bool taken) = 0;

    virtual void reset() = 0;
};

/** 2-bit saturating counter helper. */
class Counter2
{
  public:
    bool taken() const { return v_ >= 2; }

    void
    train(bool taken)
    {
        if (taken) {
            if (v_ < 3)
                ++v_;
        } else {
            if (v_ > 0)
                --v_;
        }
    }

    void init(uint8_t v) { v_ = v; }

  private:
    uint8_t v_ = 2;  // weakly taken
};

/** GSHARE: global history XORed with the branch address. */
class GsharePredictor : public DirectionPredictor
{
  public:
    /**
     * @param history_bits global history length (paper: 16); the
     *        counter table has 2^history_bits entries
     */
    explicit GsharePredictor(unsigned history_bits = 16);

    bool predict(uint64_t ip) const override
    {
        return table_[index(ip)].taken();
    }
    void
    update(uint64_t ip, bool taken) override
    {
        table_[index(ip)].train(taken);
        history_ = ((history_ << 1) | (taken ? 1 : 0)) &
                   mask(historyBits_);
    }
    void reset() override;

    uint64_t history() const { return history_; }

  private:
    std::size_t
    index(uint64_t ip) const
    {
        // Drop the low bit (branches are at arbitrary byte addresses
        // in x86, so no fixed alignment shift), fold, and XOR with
        // history.
        uint64_t folded = (ip >> 1) ^ (ip >> (1 + historyBits_));
        return (std::size_t)((folded ^ history_) & mask(historyBits_));
    }

    unsigned historyBits_;
    uint64_t history_ = 0;
    std::vector<Counter2> table_;
};

/** Bimodal: per-address 2-bit counters, no history. */
class BimodalPredictor : public DirectionPredictor
{
  public:
    explicit BimodalPredictor(unsigned table_bits = 14);

    bool predict(uint64_t ip) const override;
    void update(uint64_t ip, bool taken) override;
    void reset() override;

  private:
    std::size_t index(uint64_t ip) const;

    unsigned tableBits_;
    std::vector<Counter2> table_;
};

} // namespace xbs

#endif // XBS_BPRED_DIRECTION_HH
