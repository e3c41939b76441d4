#include "common/crc32.hh"

#include <array>

namespace xbs
{

namespace
{

inline uint32_t
le32(const uint8_t *p)
{
    return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16 |
           (uint32_t)p[3] << 24;
}

} // anonymous namespace

uint32_t
crc32(uint32_t crc, const void *data, std::size_t len)
{
    // Slicing-by-8: t[k][b] is the CRC of byte b followed by k zeros.
    static const auto t = [] {
        std::array<std::array<uint32_t, 256>, 8> t{};
        for (uint32_t b = 0; b < 256; ++b) {
            uint32_t c = b;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][b] = c;
        }
        for (std::size_t k = 1; k < 8; ++k)
            for (uint32_t b = 0; b < 256; ++b)
                t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xff];
        return t;
    }();

    const uint8_t *p = static_cast<const uint8_t *>(data);
    crc = ~crc;
    for (; len >= 8; len -= 8, p += 8) {
        const uint32_t lo = le32(p) ^ crc, hi = le32(p + 4);
        crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
              t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^
              t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^
              t[0][hi >> 24];
    }
    for (; len; --len, ++p)
        crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
    return ~crc;
}

} // namespace xbs
