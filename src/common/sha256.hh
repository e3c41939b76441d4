/**
 * @file
 * SHA-256 (FIPS 180-4), dependency-free, for integrity guards.
 *
 * Checkpoints carry a SHA-256 trailer over the whole container and a
 * digest of the canonical run spec they were cut from, so a torn,
 * bit-rotted or mismatched file is rejected instead of restored.
 */

#ifndef XBS_COMMON_SHA256_HH
#define XBS_COMMON_SHA256_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace xbs
{

class Sha256
{
  public:
    Sha256() { reset(); }

    void reset();
    void update(const void *data, std::size_t len);
    void update(const std::string &s) { update(s.data(), s.size()); }

    /** Finish and return the 64-char lowercase hex digest. The
     *  object must be reset() before reuse. */
    std::string hexDigest();

  private:
    void compress(const uint8_t *block);

    uint32_t h_[8];
    uint64_t length_ = 0;      ///< total bytes absorbed
    uint8_t buf_[64];
    std::size_t bufLen_ = 0;
};

/** One-shot convenience. */
std::string sha256Hex(const std::string &data);

} // namespace xbs

#endif // XBS_COMMON_SHA256_HH
