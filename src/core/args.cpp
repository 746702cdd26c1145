#include "core/args.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace pimba {

ArgParser::ArgParser(std::string program_, std::string description_)
    : program(std::move(program_)), description(std::move(description_))
{
}

void
ArgParser::flag(const std::string &name, const std::string &help,
                bool *out)
{
    flags.push_back(Flag{name, help, out});
}

void
ArgParser::option(const std::string &name, const std::string &value_name,
                  const std::string &help, std::string *out)
{
    options.push_back(Option{name, value_name, help, out, nullptr,
                             nullptr});
}

void
ArgParser::option(const std::string &name, const std::string &value_name,
                  const std::string &help, int *out)
{
    options.push_back(Option{name, value_name, help, nullptr, out,
                             nullptr});
}

void
ArgParser::option(const std::string &name, const std::string &value_name,
                  const std::string &help, double *out)
{
    options.push_back(Option{name, value_name, help, nullptr, nullptr,
                             out});
}

void
ArgParser::positional(const std::string &name, const std::string &help,
                      std::string *out)
{
    positionals.push_back(Positional{name, help, out});
}

const ArgParser::Flag *
ArgParser::findFlag(const std::string &name) const
{
    for (const Flag &f : flags)
        if (f.name == name)
            return &f;
    return nullptr;
}

const ArgParser::Option *
ArgParser::findOption(const std::string &name) const
{
    for (const Option &o : options)
        if (o.name == name)
            return &o;
    return nullptr;
}

bool
ArgParser::given(const std::string &name) const
{
    for (const std::string &g : givenOptions)
        if (g == name)
            return true;
    return false;
}

std::string
ArgParser::usage() const
{
    std::ostringstream oss;
    oss << "usage: " << program;
    for (const Positional &p : positionals)
        oss << " <" << p.name << ">";
    if (!flags.empty() || !options.empty())
        oss << " [options]";
    oss << "\n\n" << description << "\n";
    if (!positionals.empty()) {
        oss << "\narguments:\n";
        for (const Positional &p : positionals)
            oss << "  " << p.name << "  " << p.help << "\n";
    }
    oss << "\noptions:\n";
    for (const Option &o : options)
        oss << "  " << o.name << " <" << o.valueName << ">  " << o.help
            << "\n";
    for (const Flag &f : flags)
        oss << "  " << f.name << "  " << f.help << "\n";
    oss << "  --help  show this message and exit\n";
    return oss.str();
}

bool
ArgParser::parse(int argc, char **argv)
{
    size_t next_positional = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            fputs(usage().c_str(), stdout);
            code = 0;
            return false;
        }
        // Split "--opt=value" into name + inline value.
        std::string name = arg, inline_value;
        bool has_inline = false;
        if (size_t eq = arg.find('=');
            arg.rfind("--", 0) == 0 && eq != std::string::npos) {
            name = arg.substr(0, eq);
            inline_value = arg.substr(eq + 1);
            has_inline = true;
        }
        if (const Flag *f = findFlag(name)) {
            if (has_inline) {
                fprintf(stderr, "%s: flag %s takes no value\n",
                        program.c_str(), name.c_str());
                code = 1;
                return false;
            }
            *f->out = true;
            continue;
        }
        if (const Option *o = findOption(name)) {
            givenOptions.push_back(name);
            std::string value;
            if (has_inline) {
                value = inline_value;
            } else if (i + 1 < argc) {
                value = argv[++i];
            } else {
                fprintf(stderr, "%s: option %s needs a <%s> value\n",
                        program.c_str(), name.c_str(),
                        o->valueName.c_str());
                code = 1;
                return false;
            }
            if (o->strOut) {
                *o->strOut = value;
            } else if (o->intOut) {
                char *end = nullptr;
                errno = 0;
                long v = std::strtol(value.c_str(), &end, 10);
                if (end == value.c_str() || *end != '\0' ||
                    errno == ERANGE || v < INT_MIN || v > INT_MAX) {
                    fprintf(stderr,
                            "%s: option %s expects an int-range "
                            "integer, got '%s'\n",
                            program.c_str(), name.c_str(),
                            value.c_str());
                    code = 1;
                    return false;
                }
                *o->intOut = static_cast<int>(v);
            } else {
                char *end = nullptr;
                errno = 0;
                double v = std::strtod(value.c_str(), &end);
                if (end == value.c_str() || *end != '\0' ||
                    errno == ERANGE) {
                    fprintf(stderr,
                            "%s: option %s expects a number, got "
                            "'%s'\n",
                            program.c_str(), name.c_str(),
                            value.c_str());
                    code = 1;
                    return false;
                }
                *o->doubleOut = v;
            }
            continue;
        }
        if (arg.rfind("-", 0) != 0 &&
            next_positional < positionals.size()) {
            *positionals[next_positional++].out = arg;
            continue;
        }
        fprintf(stderr, "%s: unknown argument '%s' (try --help)\n",
                program.c_str(), arg.c_str());
        code = 1;
        return false;
    }
    if (next_positional < positionals.size()) {
        fprintf(stderr, "%s: missing <%s> argument (try --help)\n",
                program.c_str(),
                positionals[next_positional].name.c_str());
        code = 1;
        return false;
    }
    return true;
}

} // namespace pimba
