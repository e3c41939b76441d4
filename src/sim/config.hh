/**
 * @file
 * Simulation configuration: which frontend to instantiate, with what
 * parameters. Used by the bench harnesses and examples.
 */

#ifndef XBS_SIM_CONFIG_HH
#define XBS_SIM_CONFIG_HH

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bbtc/bbtc_frontend.hh"
#include "common/status.hh"
#include "core/params.hh"
#include "dc/dc_frontend.hh"
#include "frontend/frontend.hh"
#include "tc/tc_frontend.hh"

namespace xbs
{

enum class FrontendKind
{
    Ic,
    Dc,    ///< decoded uop cache (section 2.2)
    Tc,
    Bbtc,  ///< block-based trace cache (section 2.4)
    Xbc,
};

struct SimConfig
{
    FrontendKind kind = FrontendKind::Xbc;
    FrontendParams frontend;
    TcParams tc;
    XbcParams xbc;
    DecodedCacheParams dc;
    BbtcParams bbtc;

    /** Paper defaults: a 32K-uop structure. */
    static SimConfig icBaseline();
    static SimConfig dcBaseline(unsigned capacity_uops = 32768);
    static SimConfig tcBaseline(unsigned capacity_uops = 32768,
                                unsigned ways = 4);
    static SimConfig bbtcBaseline(unsigned capacity_uops = 32768);
    static SimConfig xbcBaseline(unsigned capacity_uops = 32768,
                                 unsigned ways = 2);
};

/**
 * Check a configuration's geometry *before* construction (the
 * frontend constructors assert the same constraints): nonzero
 * capacities, per-structure minimum sizes, power-of-two windows.
 * Lets tools reject bad CLI input with a clean exit code instead of
 * an abort.
 */
Status validateConfig(const SimConfig &config);

/** Instantiate the configured frontend. */
std::unique_ptr<Frontend> makeFrontend(const SimConfig &config);

const char *frontendKindName(FrontendKind kind);

/** Parse a CLI frontend name ("ic"|"dc"|"tc"|"bbtc"|"xbc"). */
Expected<FrontendKind> parseFrontendKind(const std::string &name);

/** The CLI spelling of a kind (lowercase, matches parse). */
const char *frontendKindFlag(FrontendKind kind);

/**
 * The one range check for 64-bit flag values that set `unsigned`
 * SimConfig fields: fails naming the first (name, value) pair above
 * UINT32_MAX, which a cast would silently truncate mod 2^32.
 * RunSpec::config() applies it to its geometry, so xbsim and every
 * xbatch cell share it; xbsim applies it to its XBC-only flags too.
 */
Status checkUnsignedFlags(
    std::initializer_list<std::pair<const char *, uint64_t>> flags);

/**
 * One simulation run as the batch layer sees it: the handful of
 * xbsim flags that define a (workload, frontend, geometry) cell of a
 * sweep matrix. toArgv() spells it as xbsim flags, and config()
 * builds what xbsim builds from them.
 */
struct RunSpec
{
    std::string frontend = "xbc";   ///< ic|dc|tc|bbtc|xbc
    std::string workload = "gcc";   ///< catalog name
    uint64_t insts = 0;             ///< 0 = xbsim default
    uint64_t capacity = 32768;      ///< structure capacity in uops
    uint64_t ways = 0;              ///< 0 = structure default

    /** xbsim flags for this run (no argv[0], no --json). */
    std::vector<std::string> toArgv() const;

    /** The configuration xbsim builds from these flags (its other
     *  flags at their defaults); fails on an unknown frontend or a
     *  capacity or ways above UINT32_MAX. */
    Expected<SimConfig> config() const;

    /** "xbc/gcc@32768" (plus "wN" when ways is explicit). */
    std::string label() const;
};

} // namespace xbs

#endif // XBS_SIM_CONFIG_HH
