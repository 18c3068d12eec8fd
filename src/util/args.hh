/**
 * @file
 * Minimal command-line argument parser for the tools.
 *
 * Supports `--name value` and `--name=value` options with defaults,
 * `--flag` / `--flag=true|false` booleans, and `--help`. Unknown
 * arguments raise FatalError with a usage message, keeping the tools
 * honest about their surface.
 */

#ifndef WSC_UTIL_ARGS_HH
#define WSC_UTIL_ARGS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wsc {

/** Declarative option/flag parser. */
class ArgParser
{
  public:
    ArgParser(std::string program, std::string description);

    /** Register a value option with a default. */
    ArgParser &addOption(const std::string &name,
                         const std::string &help,
                         const std::string &defaultValue);

    /** Register a boolean flag (defaults to false). */
    ArgParser &addFlag(const std::string &name, const std::string &help);

    /**
     * Parse the command line. Both `--name value` and `--name=value`
     * forms are accepted. Each call starts from a clean slate: values
     * and set-flags from a previous parse() are reset to the
     * registered defaults first, so a parser can be reused.
     * @return false when --help was requested (usage printed).
     * @throws FatalError on unknown options or missing values.
     */
    bool parse(int argc, const char *const *argv);

    /** Value of an option (its default if unset). */
    const std::string &get(const std::string &name) const;

    /** Option parsed as a finite double; anything else is fatal. */
    double getDouble(const std::string &name) const;

    /** Largest bound getCount accepts: every integer up to 2^53 is
     * exact in a double, so an accepted count is the one given. */
    static constexpr std::uint64_t maxCount = std::uint64_t(1) << 53;

    /**
     * Option parsed as an integer count in [@p lo, @p hi]. Accepts any
     * getDouble spelling of an integer ("4", "2e6"); a fraction, a
     * negative, a non-finite value or one outside the range is fatal,
     * so no caller converts an unchecked double to an unsigned type.
     */
    std::uint64_t getCount(const std::string &name, std::uint64_t lo,
                           std::uint64_t hi) const;

    /** Flag state. */
    bool flag(const std::string &name) const;

    /** True when the option was given explicitly in the last parse. */
    bool given(const std::string &name) const;

    /** Render the usage text. */
    std::string usage() const;

    /**
     * Closest registered option name to @p name, or "" when nothing is
     * near enough to plausibly be a typo. Used for the
     * "did you mean" hint on unknown options; exposed for tests.
     */
    std::string suggest(const std::string &name) const;

  private:
    struct Option {
        std::string help;
        std::string value;
        std::string defaultValue;
        bool isFlag = false;
        bool set = false;
    };

    std::string program;
    std::string description;
    std::vector<std::string> order; //!< declaration order for usage
    std::map<std::string, Option> options;

    Option &find(const std::string &name);
    const Option &find(const std::string &name) const;
};

} // namespace wsc

#endif // WSC_UTIL_ARGS_HH
