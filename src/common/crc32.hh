/**
 * @file
 * CRC-32 as in zlib (reflected, poly 0xEDB88320), so external tools
 * can check the trailer of every trace file it guards.
 */

#ifndef XBS_COMMON_CRC32_HH
#define XBS_COMMON_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace xbs
{

/** Extend @p crc (0 for none yet) over @p len more bytes. */
uint32_t crc32(uint32_t crc, const void *data, std::size_t len);

} // namespace xbs

#endif // XBS_COMMON_CRC32_HH
