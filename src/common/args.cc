#include "common/args.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace xbs
{

bool
parseUintArg(const std::string &text, uint64_t *out)
{
    const std::size_t first = text.find_first_not_of(" \t\n\v\f\r");
    if (first == std::string::npos || text[first] == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (*end != '\0' || errno == ERANGE)
        return false;
    *out = v;
    return true;
}

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description))
{
}

void
ArgParser::addString(const std::string &name, std::string *target,
                     const std::string &help)
{
    flags_.push_back(Flag{name, Kind::String, target, help, *target});
}

void
ArgParser::addUint(const std::string &name, uint64_t *target,
                   const std::string &help)
{
    flags_.push_back(Flag{name, Kind::Uint, target, help,
                          std::to_string(*target)});
}

void
ArgParser::addDouble(const std::string &name, double *target,
                     const std::string &help)
{
    flags_.push_back(Flag{name, Kind::Double, target, help,
                          std::to_string(*target)});
}

void
ArgParser::addBool(const std::string &name, bool *target,
                   const std::string &help)
{
    flags_.push_back(Flag{name, Kind::Bool, target, help,
                          *target ? "true" : "false"});
}

ArgParser::Flag *
ArgParser::find(const std::string &name)
{
    for (auto &f : flags_) {
        if (f.name == name)
            return &f;
    }
    return nullptr;
}

void
ArgParser::assign(Flag &flag, const std::string &value)
{
    switch (flag.kind) {
      case Kind::String:
        *(std::string *)flag.target = value;
        break;
      case Kind::Uint:
        if (!parseUintArg(value, (uint64_t *)flag.target)) {
            xbs_fatal("--%s expects an integer, got '%s'",
                      flag.name.c_str(), value.c_str());
        }
        break;
      case Kind::Double: {
        // Empty, nan and inf parse cleanly but no flag means them.
        char *end = nullptr;
        double v = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0' || !std::isfinite(v))
            xbs_fatal("--%s expects a number, got '%s'",
                      flag.name.c_str(), value.c_str());
        *(double *)flag.target = v;
        break;
      }
      case Kind::Bool:
        if (value == "true" || value == "1") {
            *(bool *)flag.target = true;
        } else if (value == "false" || value == "0") {
            *(bool *)flag.target = false;
        } else {
            xbs_fatal("--%s expects true/false, got '%s'",
                      flag.name.c_str(), value.c_str());
        }
        break;
    }
}

bool
ArgParser::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage().c_str(), stdout);
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }

        std::string name = arg.substr(2);
        std::string value;
        bool has_value = false;
        auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }

        Flag *flag = find(name);
        if (!flag)
            xbs_fatal("unknown flag --%s (try --help)", name.c_str());

        if (!has_value) {
            if (flag->kind == Kind::Bool) {
                *(bool *)flag->target = true;
                continue;
            }
            if (i + 1 >= argc)
                xbs_fatal("--%s needs a value", name.c_str());
            value = argv[++i];
        }
        assign(*flag, value);
    }
    return true;
}

std::string
ArgParser::usage() const
{
    std::string out = program_ + " - " + description_ + "\n\nflags:\n";
    char buf[256];
    for (const auto &f : flags_) {
        std::snprintf(buf, sizeof(buf), "  --%-22s %s (default: %s)\n",
                      f.name.c_str(), f.help.c_str(),
                      f.defaultValue.c_str());
        out += buf;
    }
    out += "  --help                   show this message\n";
    return out;
}

} // namespace xbs
