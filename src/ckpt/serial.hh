/**
 * @file
 * Byte-level serialization primitives for the checkpoint format:
 * a little-endian Sink/Source pair.
 *
 * Source is deliberately paranoid: every read is bounds-checked
 * against the remaining payload and every structural expectation
 * (element counts, enum ranges) can be asserted through require().
 * A failed Source never throws or reads out of bounds — it latches a
 * fail flag and returns zeros, and the caller turns !ok() into a
 * typed Corrupt Status. This mirrors the trace reader's contract:
 * arbitrary bytes in, structured error out, never UB.
 */

#ifndef XBS_CKPT_SERIAL_HH
#define XBS_CKPT_SERIAL_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace xbs
{

/** Append-only little-endian byte sink. */
class CkptSink
{
  public:
    void
    u8(uint8_t v)
    {
        out_.push_back((char)v);
    }

    void
    u16(uint16_t v)
    {
        for (int i = 0; i < 2; ++i)
            out_.push_back((char)((v >> (8 * i)) & 0xff));
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            out_.push_back((char)((v >> (8 * i)) & 0xff));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out_.push_back((char)((v >> (8 * i)) & 0xff));
    }

    void i32(int32_t v) { u32((uint32_t)v); }
    void i64(int64_t v) { u64((uint64_t)v); }
    void b(bool v) { u8(v ? 1 : 0); }

    /** IEEE-754 bit pattern: restoring reproduces the exact double,
     *  which the %.17g metrics JSON round-trip depends on. */
    void
    f64(double v)
    {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u32((uint32_t)s.size());
        out_.append(s);
    }

    const std::string &bytes() const { return out_; }
    std::string take() { return std::move(out_); }

  private:
    std::string out_;
};

/** Bounds-checked little-endian reader over one section payload. */
class CkptSource
{
  public:
    explicit CkptSource(const std::string &data) : data_(&data) {}

    uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return (uint8_t)(*data_)[pos_++];
    }

    uint16_t
    u16()
    {
        if (!need(2))
            return 0;
        uint16_t v = 0;
        for (int i = 0; i < 2; ++i)
            v |= (uint16_t)(uint8_t)(*data_)[pos_++] << (8 * i);
        return v;
    }

    uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= (uint32_t)(uint8_t)(*data_)[pos_++] << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= (uint64_t)(uint8_t)(*data_)[pos_++] << (8 * i);
        return v;
    }

    int32_t i32() { return (int32_t)u32(); }
    int64_t i64() { return (int64_t)u64(); }
    bool b() { return u8() != 0; }

    double
    f64()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        uint32_t len = u32();
        if (!need(len))
            return std::string();
        std::string s = data_->substr(pos_, len);
        pos_ += len;
        return s;
    }

    /** Read an element count and verify at least @p min_elem_size
     *  bytes per element remain (so a corrupt count cannot drive a
     *  multi-gigabyte allocation). */
    uint64_t
    count(std::size_t min_elem_size = 1)
    {
        uint64_t n = u64();
        if (min_elem_size > 0 && n > remaining() / min_elem_size)
            fail();
        return ok() ? n : 0;
    }

    /** Latch failure unless @p cond holds (element-count and enum
     *  range checks). */
    void
    require(bool cond)
    {
        if (!cond)
            fail();
    }

    bool ok() const { return !failed_; }
    std::size_t remaining() const { return data_->size() - pos_; }
    bool atEnd() const { return ok() && remaining() == 0; }

    /** ok() and every payload byte consumed — the shape a cleanly
     *  restored section must have. */
    bool consumed() const { return atEnd(); }

  private:
    bool
    need(std::size_t n)
    {
        if (failed_ || n > remaining()) {
            fail();
            return false;
        }
        return true;
    }

    void
    fail()
    {
        failed_ = true;
        pos_ = data_->size();
    }

    const std::string *data_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

} // namespace xbs

#endif // XBS_CKPT_SERIAL_HH
