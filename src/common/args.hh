/**
 * @file
 * Tiny command-line argument parser for the tools: registered flags
 * of the forms --name=value, --name value, and boolean --name, plus
 * automatic --help generation. fatal() on unknown flags so typos
 * never silently run the wrong experiment.
 */

#ifndef XBS_COMMON_ARGS_HH
#define XBS_COMMON_ARGS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace xbs
{

/**
 * The tools' integer rule, for --name=value flags and list items
 * alike: @p text is a number (decimal, 0x hex or 0 octal) that fits
 * in 64 bits, with no minus sign and nothing after it. strtoull
 * alone reads "" as 0, wraps -1 to 2^64-1 and clamps an overflow to
 * 2^64-1.
 */
bool parseUintArg(const std::string &text, uint64_t *out);

class ArgParser
{
  public:
    ArgParser(std::string program, std::string description);

    /// @{ Flag registration (call before parse()).
    void addString(const std::string &name, std::string *target,
                   const std::string &help);
    void addUint(const std::string &name, uint64_t *target,
                 const std::string &help);
    void addDouble(const std::string &name, double *target,
                   const std::string &help);
    void addBool(const std::string &name, bool *target,
                 const std::string &help);
    /// @}

    /**
     * Parse argv. Recognizes --help (prints usage, returns false).
     * fatal() on unknown or malformed flags.
     *
     * @return true to continue, false when help was requested
     */
    bool parse(int argc, char **argv);

    /** Usage text (also printed by --help). */
    std::string usage() const;

    /** Positional (non-flag) arguments, in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    enum class Kind { String, Uint, Double, Bool };

    struct Flag
    {
        std::string name;
        Kind kind;
        void *target;
        std::string help;
        std::string defaultValue;
    };

    Flag *find(const std::string &name);
    void assign(Flag &flag, const std::string &value);

    std::string program_;
    std::string description_;
    std::vector<Flag> flags_;
    std::vector<std::string> positional_;
};

} // namespace xbs

#endif // XBS_COMMON_ARGS_HH
