#include "obs/json_text.h"

#include <charconv>

namespace pimba {

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    size_t plain = 0; // start of the pending run that needs no escape
    for (size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.data() + plain, i - plain);
        plain = i + 1;
        out.push_back('\\');
        switch (c) {
        case '"':
        case '\\':
            out.push_back(static_cast<char>(c));
            break;
        case '\b':
            out.push_back('b');
            break;
        case '\f':
            out.push_back('f');
            break;
        case '\n':
            out.push_back('n');
            break;
        case '\r':
            out.push_back('r');
            break;
        case '\t':
            out.push_back('t');
            break;
        default:
            out += "u00";
            out.push_back(kHex[c >> 4]);
            out.push_back(kHex[c & 0xf]);
        }
    }
    out.append(s.data() + plain, s.size() - plain);
}

void
appendNumber(std::string &out, double v)
{
    char buf[32];
    // The standard defines to_chars(general, precision) as printf's %g
    // at that precision; 9 significant digits fit in 32 characters.
    auto res = std::to_chars(buf, buf + sizeof buf, v,
                             std::chars_format::general, 9);
    out.append(buf, res.ptr);
}

} // namespace pimba
