#include "sim/config.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "core/xbc_frontend.hh"
#include "ic/ic_frontend.hh"

namespace xbs
{

SimConfig
SimConfig::icBaseline()
{
    SimConfig c;
    c.kind = FrontendKind::Ic;
    return c;
}

SimConfig
SimConfig::dcBaseline(unsigned capacity_uops)
{
    SimConfig c;
    c.kind = FrontendKind::Dc;
    c.dc.capacityUops = capacity_uops;
    return c;
}

SimConfig
SimConfig::bbtcBaseline(unsigned capacity_uops)
{
    SimConfig c;
    c.kind = FrontendKind::Bbtc;
    c.bbtc.blocks.capacityUops = capacity_uops;
    return c;
}

SimConfig
SimConfig::tcBaseline(unsigned capacity_uops, unsigned ways)
{
    SimConfig c;
    c.kind = FrontendKind::Tc;
    c.tc.capacityUops = capacity_uops;
    c.tc.ways = ways;
    return c;
}

SimConfig
SimConfig::xbcBaseline(unsigned capacity_uops, unsigned ways)
{
    SimConfig c;
    c.kind = FrontendKind::Xbc;
    c.xbc.capacityUops = capacity_uops;
    c.xbc.ways = ways;
    return c;
}

namespace
{

bool
powerOfTwo(unsigned v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // anonymous namespace

Status
validateConfig(const SimConfig &config)
{
    auto bad = [](std::string what) {
        return Status::error("bad configuration: " + std::move(what));
    };

    switch (config.kind) {
      case FrontendKind::Ic:
        break;
      case FrontendKind::Dc: {
        const auto &p = config.dc;
        if (!powerOfTwo(p.windowBytes))
            return bad("DC window bytes must be a power of two");
        if (p.lineUops < 4)
            return bad("DC line below 4 uop slots");
        if (p.ways < 1 ||
            p.capacityUops / std::max(1u, p.lineUops) < p.ways) {
            return bad("DC capacity below one set");
        }
        break;
      }
      case FrontendKind::Tc: {
        const auto &p = config.tc;
        if (p.ways < 1)
            return bad("TC needs at least one way");
        if (p.limits.maxUops < 1)
            return bad("TC line needs a nonzero uop limit");
        if (p.capacityUops / p.limits.maxUops < p.ways)
            return bad("TC capacity below one set");
        break;
      }
      case FrontendKind::Bbtc: {
        const auto &p = config.bbtc;
        if (p.blocks.ways < 1 || p.blocks.blockUops < 1 ||
            p.blocks.capacityUops / p.blocks.blockUops <
                p.blocks.ways) {
            return bad("BBTC block cache capacity below one set");
        }
        if (p.ptrsPerTrace < 1 || p.traceTableWays < 1)
            return bad("BBTC trace table needs ways and pointers");
        break;
      }
      case FrontendKind::Xbc: {
        const auto &p = config.xbc;
        if (p.numBanks < 1 || p.bankUops < 1 || p.ways < 1)
            return bad("XBC needs banks, bank uops, and ways");
        if (p.xbQuotaUops > p.numBanks * p.bankUops)
            return bad("XB quota exceeds one set row");
        if (p.capacityUops / (p.numBanks * p.bankUops * p.ways) < 1)
            return bad("XBC capacity below one set");
        if (p.xbtbWays < 1 || p.xbtbEntries < p.xbtbWays)
            return bad("bad XBTB geometry");
        if (p.xibtbWays < 1 || p.xibtbSets < 1)
            return bad("bad XiBTB geometry");
        if (p.xrsbDepth < 1)
            return bad("XRSB needs depth");
        break;
      }
    }

    if (config.frontend.renamerWidth < 1)
        return bad("renamer width must be nonzero");
    return Status::ok();
}

std::unique_ptr<Frontend>
makeFrontend(const SimConfig &config)
{
    switch (config.kind) {
      case FrontendKind::Ic:
        return std::make_unique<IcFrontend>(config.frontend);
      case FrontendKind::Dc:
        return std::make_unique<DcFrontend>(config.frontend,
                                            config.dc);
      case FrontendKind::Tc:
        return std::make_unique<TcFrontend>(config.frontend,
                                            config.tc);
      case FrontendKind::Bbtc:
        return std::make_unique<BbtcFrontend>(config.frontend,
                                              config.bbtc);
      case FrontendKind::Xbc:
        return std::make_unique<XbcFrontend>(config.frontend,
                                             config.xbc);
    }
    xbs_panic("bad frontend kind");
}

const char *
frontendKindName(FrontendKind kind)
{
    switch (kind) {
      case FrontendKind::Ic:   return "IC";
      case FrontendKind::Dc:   return "DC";
      case FrontendKind::Tc:   return "TC";
      case FrontendKind::Bbtc: return "BBTC";
      case FrontendKind::Xbc:  return "XBC";
    }
    return "?";
}

Expected<FrontendKind>
parseFrontendKind(const std::string &name)
{
    if (name == "ic")
        return FrontendKind::Ic;
    if (name == "dc")
        return FrontendKind::Dc;
    if (name == "tc")
        return FrontendKind::Tc;
    if (name == "bbtc")
        return FrontendKind::Bbtc;
    if (name == "xbc")
        return FrontendKind::Xbc;
    return Status::error("unknown frontend '" + name +
                         "' (ic|dc|tc|bbtc|xbc)");
}

const char *
frontendKindFlag(FrontendKind kind)
{
    switch (kind) {
      case FrontendKind::Ic:   return "ic";
      case FrontendKind::Dc:   return "dc";
      case FrontendKind::Tc:   return "tc";
      case FrontendKind::Bbtc: return "bbtc";
      case FrontendKind::Xbc:  return "xbc";
    }
    return "?";
}

std::vector<std::string>
RunSpec::toArgv() const
{
    std::vector<std::string> argv;
    argv.push_back("--frontend=" + frontend);
    argv.push_back("--workload=" + workload);
    argv.push_back("--capacity=" + std::to_string(capacity));
    if (ways)
        argv.push_back("--ways=" + std::to_string(ways));
    if (insts)
        argv.push_back("--insts=" + std::to_string(insts));
    return argv;
}

Status
checkUnsignedFlags(
    std::initializer_list<std::pair<const char *, uint64_t>> flags)
{
    constexpr uint64_t kMax = std::numeric_limits<unsigned>::max();
    for (const auto &[name, value] : flags) {
        if (value > kMax) {
            return Status::error(std::string(name) + " " +
                                 std::to_string(value) +
                                 " is out of range (at most " +
                                 std::to_string(kMax) + ")");
        }
    }
    return Status::ok();
}

Expected<SimConfig>
RunSpec::config() const
{
    Expected<FrontendKind> kind = parseFrontendKind(frontend);
    if (!kind.ok())
        return kind.status();
    if (Status st = checkUnsignedFlags({{"capacity", capacity},
                                        {"ways", ways}});
        !st.isOk()) {
        return st;
    }
    SimConfig c;
    c.kind = kind.value();
    c.tc.capacityUops = (unsigned)capacity;
    c.xbc.capacityUops = (unsigned)capacity;
    c.dc.capacityUops = (unsigned)capacity;
    c.bbtc.blocks.capacityUops = (unsigned)capacity;
    if (ways) {
        c.tc.ways = (unsigned)ways;
        c.xbc.ways = (unsigned)ways;
        c.dc.ways = (unsigned)ways;
        c.bbtc.blocks.ways = (unsigned)ways;
    }
    return c;
}

std::string
RunSpec::label() const
{
    std::string s = frontend;
    s += "/";
    s += workload;
    s += "@";
    s += std::to_string(capacity);
    if (ways) {
        s += "w";
        s += std::to_string(ways);
    }
    return s;
}

} // namespace xbs
