/**
 * @file
 * Minimal shared command-line parser for the bench/example/tool mains.
 *
 * Every standalone binary in the tree registers its flags and options
 * here so all of them answer `--help` with a consistent usage text and
 * reject unknown arguments instead of silently ignoring them. The
 * parser is deliberately tiny: boolean flags (`--smoke`), valued
 * options (`--threads 4` or `--threads=4`), and ordered positionals —
 * enough for simulation harnesses, not a general getopt replacement.
 */

#ifndef PIMBA_CORE_ARGS_H
#define PIMBA_CORE_ARGS_H

#include <string>
#include <vector>

namespace pimba {

/// Declarative argv parser with generated `--help`.
class ArgParser
{
  public:
    /// @param program binary name shown in the usage line
    /// @param description one-line summary shown under the usage line
    ArgParser(std::string program, std::string description);

    /// Register a boolean flag (e.g. "--smoke"); presence sets *out.
    void flag(const std::string &name, const std::string &help,
              bool *out);

    /// Register a string-valued option ("--grid rate=1..32").
    void option(const std::string &name, const std::string &value_name,
                const std::string &help, std::string *out);

    /// Register an integer-valued option ("--threads 4").
    void option(const std::string &name, const std::string &value_name,
                const std::string &help, int *out);

    /// Register a real-valued option ("--decay 0.98").
    void option(const std::string &name, const std::string &value_name,
                const std::string &help, double *out);

    /// Register a required ordered positional argument.
    void positional(const std::string &name, const std::string &help,
                    std::string *out);

    /**
     * Parse argv. Returns true when the program should proceed; false
     * when it should exit immediately with exitCode() — either 0
     * (`--help` was answered) or 1 (a malformed or unknown argument
     * was diagnosed on stderr).
     */
    bool parse(int argc, char **argv);

    /// Process exit status to use when parse() returned false.
    int exitCode() const { return code; }

    /// True when parse() met option @p name, so a caller can tell an
    /// explicit value from the default.
    bool given(const std::string &name) const;

    /// The generated usage/help text.
    std::string usage() const;

  private:
    struct Flag
    {
        std::string name, help;
        bool *out = nullptr;
    };
    struct Option
    {
        std::string name, valueName, help;
        std::string *strOut = nullptr;
        int *intOut = nullptr;
        double *doubleOut = nullptr;
    };
    struct Positional
    {
        std::string name, help;
        std::string *out = nullptr;
    };

    const Flag *findFlag(const std::string &name) const;
    const Option *findOption(const std::string &name) const;

    std::string program;
    std::string description;
    std::vector<Flag> flags;
    std::vector<Option> options;
    std::vector<Positional> positionals;
    std::vector<std::string> givenOptions;
    int code = 0;
};

} // namespace pimba

#endif // PIMBA_CORE_ARGS_H
