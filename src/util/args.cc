#include "util/args.hh"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>

#include "util/logging.hh"

namespace wsc {

namespace {

/** Plain Levenshtein distance; option names are short, so the O(nm)
 * table is fine. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t sub = prev[j - 1] + (a[i - 1] != b[j - 1]);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

} // namespace

ArgParser::ArgParser(std::string program_in, std::string description_in)
    : program(std::move(program_in)),
      description(std::move(description_in))
{
}

ArgParser &
ArgParser::addOption(const std::string &name, const std::string &help,
                     const std::string &defaultValue)
{
    WSC_ASSERT(!options.count(name), "duplicate option --" << name);
    options[name] = Option{help, defaultValue, defaultValue, false,
                           false};
    order.push_back(name);
    return *this;
}

ArgParser &
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    WSC_ASSERT(!options.count(name), "duplicate flag --" << name);
    options[name] = Option{help, "false", "false", true, false};
    order.push_back(name);
    return *this;
}

ArgParser::Option &
ArgParser::find(const std::string &name)
{
    auto it = options.find(name);
    WSC_ASSERT(it != options.end(), "unregistered option --" << name);
    return it->second;
}

const ArgParser::Option &
ArgParser::find(const std::string &name) const
{
    auto it = options.find(name);
    WSC_ASSERT(it != options.end(), "unregistered option --" << name);
    return it->second;
}

bool
ArgParser::parse(int argc, const char *const *argv)
{
    // Reset to defaults so a reused parser does not inherit values or
    // set-flags from a previous parse.
    for (auto &entry : options) {
        entry.second.value = entry.second.defaultValue;
        entry.second.set = false;
    }

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::cout << usage();
            return false;
        }
        if (arg.rfind("--", 0) != 0)
            fatal("unexpected argument '" + arg + "'\n" + usage());

        // Split the --name=value form.
        std::string name = arg.substr(2);
        bool has_inline = false;
        std::string inline_value;
        auto eq = name.find('=');
        if (eq != std::string::npos) {
            has_inline = true;
            inline_value = name.substr(eq + 1);
            name = name.substr(0, eq);
        }

        auto it = options.find(name);
        if (it == options.end()) {
            std::string hint = suggest(name);
            fatal("unknown option '--" + name + "'" +
                  (hint.empty() ? ""
                                : " (did you mean '--" + hint + "'?)") +
                  "\n" + usage());
        }
        if (it->second.isFlag) {
            if (has_inline) {
                if (inline_value != "true" && inline_value != "false")
                    fatal("flag '--" + name +
                          "' accepts only true or false, got '" +
                          inline_value + "'");
                it->second.value = inline_value;
            } else {
                it->second.value = "true";
            }
            it->second.set = true;
        } else {
            if (has_inline) {
                it->second.value = inline_value;
            } else {
                if (i + 1 >= argc)
                    fatal("option '" + arg + "' needs a value\n" +
                          usage());
                it->second.value = argv[++i];
            }
            it->second.set = true;
        }
    }
    return true;
}

const std::string &
ArgParser::get(const std::string &name) const
{
    return find(name).value;
}

double
ArgParser::getDouble(const std::string &name) const
{
    const auto &v = get(name);
    try {
        std::size_t consumed = 0;
        double d = std::stod(v, &consumed);
        if (consumed != v.size())
            throw std::invalid_argument("trailing characters");
        // std::stod accepts "nan" and "inf"; no option means either,
        // and both slip past range checks (NaN compares false).
        if (!std::isfinite(d))
            throw std::invalid_argument("non-finite");
        return d;
    } catch (const std::exception &) {
        fatal("option --" + name + " expects a finite number, got '" +
              v + "'");
    }
}

std::uint64_t
ArgParser::getCount(const std::string &name, std::uint64_t lo,
                    std::uint64_t hi) const
{
    WSC_ASSERT(lo <= hi && hi <= maxCount,
               "bad count range for --" << name);
    double d = getDouble(name);
    if (d != std::floor(d) || d < double(lo) || d > double(hi))
        fatal("option --" + name + " expects an integer in [" +
              std::to_string(lo) + ", " + std::to_string(hi) +
              "], got '" + get(name) + "'");
    return std::uint64_t(d);
}

bool
ArgParser::flag(const std::string &name) const
{
    return find(name).value == "true";
}

bool
ArgParser::given(const std::string &name) const
{
    return find(name).set;
}

std::string
ArgParser::suggest(const std::string &name) const
{
    // Closest registered name within an edit distance small enough to
    // look like a typo rather than a different word. Declaration order
    // breaks distance ties deterministically.
    std::string best;
    std::size_t bestDist = 0;
    for (const auto &candidate : order) {
        std::size_t d = editDistance(name, candidate);
        if (best.empty() || d < bestDist) {
            best = candidate;
            bestDist = d;
        }
    }
    std::size_t budget = std::max<std::size_t>(2, name.size() / 3);
    return bestDist <= budget ? best : std::string();
}

std::string
ArgParser::usage() const
{
    std::ostringstream ss;
    ss << program << " - " << description << "\n\nOptions:\n";
    for (const auto &name : order) {
        const auto &opt = options.at(name);
        ss << "  --" << name;
        if (!opt.isFlag)
            ss << " <value>";
        ss << "\n        " << opt.help;
        if (!opt.isFlag)
            ss << " (default: " << opt.defaultValue << ")";
        ss << "\n";
    }
    ss << "  --help\n        Show this message.\n";
    return ss.str();
}

} // namespace wsc
