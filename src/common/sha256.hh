/**
 * @file
 * SHA-256 (FIPS 180-4), dependency-free, for pinning outputs: the
 * golden tests hash what the workload generator and the simulator
 * produce, and perfbench digests each run's simulated numbers, so
 * any change to them shows as a different digest.
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
