#include "config/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace pimba {

ConfigError::ConfigError(const std::string &msg, int line, int col)
    : std::runtime_error(line > 0 ? "line " + std::to_string(line) +
                                        ", column " +
                                        std::to_string(col) + ": " + msg
                                  : msg),
      srcLine(line), srcCol(col)
{
}

std::string
JsonValue::typeName() const
{
    switch (k) {
      case Kind::Null: return "null";
      case Kind::Bool: return "bool";
      case Kind::Number: return "number";
      case Kind::String: return "string";
      case Kind::Array: return "array";
      case Kind::Object: return "object";
    }
    return "unknown";
}

namespace {

[[noreturn]] void
wrongType(const JsonValue &v, const char *wanted)
{
    throw ConfigError(std::string("expected ") + wanted + ", got " +
                          v.typeName(),
                      v.line(), v.column());
}

} // namespace

bool
JsonValue::asBool() const
{
    if (k != Kind::Bool)
        wrongType(*this, "bool");
    return boolValue;
}

double
JsonValue::asNumber() const
{
    if (k != Kind::Number)
        wrongType(*this, "number");
    return numValue;
}

int64_t
JsonValue::asInt() const
{
    double v = asNumber();
    double rounded = std::nearbyint(v);
    if (rounded != v)
        throw ConfigError("expected an integer, got " +
                              std::to_string(v),
                          srcLine, srcCol);
    // Casting a double beyond int64's range is undefined behavior;
    // 9.0e18 < 2^63 keeps the cast safe and the limit honest.
    if (std::abs(rounded) > 9.0e18)
        throw ConfigError("integer out of range: " +
                              std::to_string(v),
                          srcLine, srcCol);
    return static_cast<int64_t>(rounded);
}

const std::string &
JsonValue::asString() const
{
    if (k != Kind::String)
        wrongType(*this, "string");
    return strValue;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    if (k != Kind::Array)
        wrongType(*this, "array");
    return arr;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    if (k != Kind::Object)
        wrongType(*this, "object");
    return obj;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[name, value] : members())
        if (name == key)
            return &value;
    return nullptr;
}

/// Recursive-descent JSON parser tracking 1-based line/column.
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text_) : text(text_) {}

    JsonValue parseDocument()
    {
        skipSpace();
        JsonValue v = parseValue();
        skipSpace();
        if (pos != text.size())
            fail("trailing content after the JSON document");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &msg)
    {
        throw ConfigError(msg, line, col);
    }

    bool atEnd() const { return pos >= text.size(); }

    char peek() const { return text[pos]; }

    char advance()
    {
        char c = text[pos++];
        if (c == '\n') {
            ++line;
            col = 1;
        } else {
            ++col;
        }
        return c;
    }

    void skipSpace()
    {
        while (!atEnd()) {
            char c = peek();
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
                advance();
            } else if (c == '/' && pos + 1 < text.size() &&
                       text[pos + 1] == '/') {
                while (!atEnd() && peek() != '\n')
                    advance();
            } else {
                break;
            }
        }
    }

    void expect(char c)
    {
        if (atEnd())
            fail(std::string("unexpected end of input, expected '") +
                 c + "'");
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + peek() +
                 "'");
        advance();
    }

    JsonValue located() const
    {
        JsonValue v;
        v.srcLine = line;
        v.srcCol = col;
        return v;
    }

    JsonValue parseValue()
    {
        if (atEnd())
            fail("unexpected end of input, expected a value");
        char c = peek();
        switch (c) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return parseString();
          case 't':
          case 'f': return parseBool();
          case 'n': return parseNull();
          default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber();
            fail(std::string("unexpected character '") + c + "'");
        }
    }

    void parseKeyword(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (atEnd() || peek() != *p)
                fail(std::string("invalid token, expected '") + word +
                     "'");
            advance();
        }
    }

    JsonValue parseNull()
    {
        JsonValue v = located();
        parseKeyword("null");
        return v;
    }

    JsonValue parseBool()
    {
        JsonValue v = located();
        v.k = JsonValue::Kind::Bool;
        if (peek() == 't') {
            parseKeyword("true");
            v.boolValue = true;
        } else {
            parseKeyword("false");
            v.boolValue = false;
        }
        return v;
    }

    JsonValue parseNumber()
    {
        JsonValue v = located();
        v.k = JsonValue::Kind::Number;
        size_t start = pos;
        if (!atEnd() && peek() == '-')
            advance();
        while (!atEnd() && std::isdigit(
                               static_cast<unsigned char>(peek())))
            advance();
        if (!atEnd() && peek() == '.') {
            advance();
            while (!atEnd() && std::isdigit(
                                   static_cast<unsigned char>(peek())))
                advance();
        }
        if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
            advance();
            if (!atEnd() && (peek() == '+' || peek() == '-'))
                advance();
            while (!atEnd() && std::isdigit(
                                   static_cast<unsigned char>(peek())))
                advance();
        }
        std::string num = text.substr(start, pos - start);
        try {
            size_t used = 0;
            v.numValue = std::stod(num, &used);
            if (used != num.size())
                throw std::invalid_argument(num);
        } catch (const std::exception &) {
            throw ConfigError("malformed number '" + num + "'",
                              v.srcLine, v.srcCol);
        }
        return v;
    }

    JsonValue parseString()
    {
        JsonValue v = located();
        v.k = JsonValue::Kind::String;
        expect('"');
        std::string out;
        while (true) {
            if (atEnd())
                fail("unterminated string");
            if (static_cast<unsigned char>(peek()) < 0x20) {
                char hex[7];
                std::snprintf(hex, sizeof hex, "U+%04X",
                              static_cast<unsigned>(peek()));
                fail(std::string("raw control character ") + hex +
                     " in a string; escape it (\\n, \\t, \\u00XX)");
            }
            char c = advance();
            if (c == '"')
                break;
            if (c == '\\') {
                if (atEnd())
                    fail("unterminated escape sequence");
                char e = advance();
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        if (atEnd())
                            fail("unterminated \\u escape");
                        char h = advance();
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            fail("invalid \\u escape digit");
                    }
                    // UTF-8 encode the BMP code point (surrogate
                    // pairs are not needed for scenario files).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(
                            0x80 | ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                  }
                  default:
                    fail(std::string("unknown escape '\\") + e + "'");
                }
            } else {
                out += c;
            }
        }
        v.strValue = std::move(out);
        return v;
    }

    JsonValue parseArray()
    {
        JsonValue v = located();
        v.k = JsonValue::Kind::Array;
        expect('[');
        skipSpace();
        if (!atEnd() && peek() == ']') {
            advance();
            return v;
        }
        while (true) {
            skipSpace();
            v.arr.push_back(parseValue());
            skipSpace();
            if (atEnd())
                fail("unterminated array, expected ',' or ']'");
            if (peek() == ',') {
                advance();
                continue;
            }
            expect(']');
            break;
        }
        return v;
    }

    JsonValue parseObject()
    {
        JsonValue v = located();
        v.k = JsonValue::Kind::Object;
        expect('{');
        skipSpace();
        if (!atEnd() && peek() == '}') {
            advance();
            return v;
        }
        while (true) {
            skipSpace();
            if (atEnd())
                fail("unterminated object, expected a key");
            if (peek() != '"')
                fail("object keys must be strings");
            int key_line = line, key_col = col;
            JsonValue key = parseString();
            for (const auto &[name, value] : v.obj)
                if (name == key.strValue)
                    throw ConfigError("duplicate key \"" +
                                          key.strValue + "\"",
                                      key_line, key_col);
            skipSpace();
            expect(':');
            skipSpace();
            v.obj.emplace_back(key.strValue, parseValue());
            skipSpace();
            if (atEnd())
                fail("unterminated object, expected ',' or '}'");
            if (peek() == ',') {
                advance();
                continue;
            }
            expect('}');
            break;
        }
        return v;
    }

    const std::string &text;
    size_t pos = 0;
    int line = 1;
    int col = 1;
};

JsonValue
parseJson(const std::string &text)
{
    return JsonParser(text).parseDocument();
}

JsonValue
loadJsonFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw ConfigError("cannot open '" + path + "'");
    std::ostringstream oss;
    oss << in.rdbuf();
    return parseJson(oss.str());
}

JsonValue
mergeJson(const JsonValue &base, const JsonValue &overlay)
{
    if (!base.isObject() || !overlay.isObject())
        return overlay;
    JsonValue merged = base;
    for (const auto &[key, value] : overlay.members()) {
        bool found = false;
        for (auto &[name, existing] : merged.obj) {
            if (name == key) {
                existing = mergeJson(existing, value);
                found = true;
                break;
            }
        }
        if (!found)
            merged.obj.emplace_back(key, value);
    }
    return merged;
}

} // namespace pimba
