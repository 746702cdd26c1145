/**
 * @file
 * Dependency-free JSON loader for the scenario subsystem.
 *
 * A small recursive-descent parser producing an immutable JsonValue
 * tree. Every value remembers the 1-based line/column of its first
 * character in the source text, so schema errors raised while mapping
 * JSON onto typed configs point at the offending spot of the file, not
 * just at a key name. Strict JSON plus one affordance for hand-written
 * scenario files: `//` line comments are skipped as whitespace.
 * Duplicate object keys and trailing garbage after the document are
 * errors — both are almost always authoring mistakes.
 */

#ifndef PIMBA_CONFIG_JSON_H
#define PIMBA_CONFIG_JSON_H

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace pimba {

/// Malformed JSON or a schema violation, located in the source text.
class ConfigError : public std::runtime_error
{
  public:
    /// @param line,col 1-based source location (0 when unknown).
    ConfigError(const std::string &msg, int line = 0, int col = 0);

    int line() const { return srcLine; }
    int column() const { return srcCol; }

  private:
    int srcLine;
    int srcCol;
};

/// One parsed JSON value (and, recursively, its children).
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;

    Kind kind() const { return k; }
    /// Lower-case kind name ("object", "number", ...) for messages.
    std::string typeName() const;

    /// 1-based source line of the value's first character.
    int line() const { return srcLine; }
    /// 1-based source column of the value's first character.
    int column() const { return srcCol; }

    bool isNull() const { return k == Kind::Null; }
    bool isObject() const { return k == Kind::Object; }
    bool isString() const { return k == Kind::String; }

    /// The boolean payload; throws ConfigError when not a bool.
    bool asBool() const;
    /// The numeric payload; throws ConfigError when not a number.
    double asNumber() const;
    /// The numeric payload as an integer; throws when fractional.
    int64_t asInt() const;
    /// The string payload; throws ConfigError when not a string.
    const std::string &asString() const;

    /// Array elements in source order; throws when not an array.
    const std::vector<JsonValue> &items() const;
    /// Object members in source order; throws when not an object.
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;
    /// Member lookup; nullptr when absent. Throws when not an object.
    const JsonValue *find(const std::string &key) const;

  private:
    friend class JsonParser;
    friend JsonValue mergeJson(const JsonValue &, const JsonValue &);

    Kind k = Kind::Null;
    bool boolValue = false;
    double numValue = 0.0;
    std::string strValue;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> obj;
    int srcLine = 0;
    int srcCol = 0;
};

/**
 * Parse one complete JSON document from @p text. Trailing non-space
 * content after the document is an error. Throws ConfigError with the
 * source location on any syntax problem (including truncated input).
 */
JsonValue parseJson(const std::string &text);

/// Read @p path and parse it; file errors also raise ConfigError.
JsonValue loadJsonFile(const std::string &path);

/**
 * Deep-merge @p overlay into @p base: object members are merged
 * recursively, any other overlay value (including arrays) replaces the
 * base value wholesale. Used to apply a scenario's `"smoke"` overrides.
 */
JsonValue mergeJson(const JsonValue &base, const JsonValue &overlay);

} // namespace pimba

#endif // PIMBA_CONFIG_JSON_H
