/**
 * @file
 * JSON parser edge cases: values, escapes, comments, and — most
 * importantly — that every malformed input fails with a located,
 * actionable ConfigError instead of silently misparsing.
 */

#include <gtest/gtest.h>

#include "config/json.h"

using namespace pimba;

namespace {

TEST(JsonParse, ScalarsAndNesting)
{
    JsonValue v = parseJson(R"({
      "a": 1, "b": -2.5, "c": 1e3, "d": true, "e": null,
      "f": "hi", "g": [1, 2, 3], "h": {"x": [true, false]}
    })");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("a")->asInt(), 1);
    EXPECT_DOUBLE_EQ(v.find("b")->asNumber(), -2.5);
    EXPECT_DOUBLE_EQ(v.find("c")->asNumber(), 1000.0);
    EXPECT_TRUE(v.find("d")->asBool());
    EXPECT_TRUE(v.find("e")->isNull());
    EXPECT_EQ(v.find("f")->asString(), "hi");
    EXPECT_EQ(v.find("g")->items().size(), 3u);
    EXPECT_FALSE(v.find("h")->find("x")->items()[1].asBool());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, StringEscapes)
{
    JsonValue v = parseJson(R"(["a\"b", "tab\there", "A"])");
    EXPECT_EQ(v.items()[0].asString(), "a\"b");
    EXPECT_EQ(v.items()[1].asString(), "tab\there");
    EXPECT_EQ(v.items()[2].asString(), "A");
}

TEST(JsonParse, LineCommentsSkipped)
{
    JsonValue v = parseJson("// header comment\n"
                            "{\n"
                            "  \"a\": 1, // trailing comment\n"
                            "  \"b\": 2\n"
                            "}\n");
    EXPECT_EQ(v.find("a")->asInt(), 1);
    EXPECT_EQ(v.find("b")->asInt(), 2);
}

TEST(JsonParse, MemberOrderAndLocationTracked)
{
    JsonValue v = parseJson("{\n  \"first\": 1,\n  \"second\": 2\n}");
    ASSERT_EQ(v.members().size(), 2u);
    EXPECT_EQ(v.members()[0].first, "first");
    EXPECT_EQ(v.members()[1].first, "second");
    // "second"'s value sits on line 3.
    EXPECT_EQ(v.find("second")->line(), 3);
    EXPECT_GT(v.find("second")->column(), 1);
}

/// Expect a ConfigError whose message mentions @p needle and whose
/// location matches (when given).
void
expectError(const std::string &text, const std::string &needle,
            int line = 0)
{
    try {
        parseJson(text);
        FAIL() << "expected ConfigError for: " << text;
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message '" << e.what() << "' lacks '" << needle << "'";
        if (line > 0) {
            EXPECT_EQ(e.line(), line) << e.what();
        }
    }
}

TEST(JsonParse, TruncatedInputsFailWithLocation)
{
    expectError("", "unexpected end of input");
    expectError("{", "unterminated object");
    expectError("{\"a\": ", "unexpected end of input");
    expectError("[1, 2", "unterminated array");
    expectError("\"abc", "unterminated string");
    expectError("{\"a\": 1,", "unterminated object");
    expectError("tru", "invalid token");
}

TEST(JsonParse, MalformedInputsFail)
{
    expectError("{a: 1}", "object keys must be strings");
    expectError("[1 2]", "expected ']'");
    expectError("{\"a\": 1} extra", "trailing content");
    expectError("{\"a\": 1, \"a\": 2}", "duplicate key");
    expectError("[#]", "unexpected character");
}

TEST(JsonParse, RawControlCharactersInStringsRejected)
{
    // JSON strings may hold U+0000..U+001F only escaped; the raw byte
    // is reported where it sits.
    for (int c = 0; c < 0x20; ++c) {
        std::string text = "{\n  \"k\": \"a";
        text += static_cast<char>(c);
        text += "b\"\n}";
        expectError(text, "raw control character", 2);
    }
    try {
        parseJson("{\"k\": \"a\tb\"}");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("U+0009"), std::string::npos)
            << e.what();
        EXPECT_EQ(e.line(), 1);
        EXPECT_EQ(e.column(), 9);
    }
    // Outside strings, tabs and newlines stay whitespace; escaped
    // inside, they stay valid.
    JsonValue v = parseJson("{\t\"k\":\n\"a\\tb\\nc\"}");
    EXPECT_EQ(v.find("k")->asString(), "a\tb\nc");
}

TEST(JsonParse, ErrorsCarrySourceLine)
{
    // The bad token sits on line 3.
    expectError("{\n  \"a\": 1,\n  \"b\": oops\n}", "unexpected", 3);
}

TEST(JsonParse, TypeMismatchesAreLocated)
{
    JsonValue v = parseJson("{\n  \"a\": \"text\"\n}");
    try {
        v.find("a")->asNumber();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("expected number"),
                  std::string::npos);
        EXPECT_EQ(e.line(), 2);
    }
    EXPECT_THROW(v.find("a")->items(), ConfigError);
    EXPECT_THROW(v.asString(), ConfigError);
}

TEST(JsonParse, NonIntegralIntRejected)
{
    JsonValue v = parseJson("{\"n\": 1.5}");
    EXPECT_THROW(v.find("n")->asInt(), ConfigError);
    EXPECT_EQ(parseJson("{\"n\": 2e3}").find("n")->asInt(), 2000);
}

TEST(JsonMerge, DeepMergeSemantics)
{
    JsonValue base = parseJson(
        R"({"a": 1, "nested": {"x": 1, "y": 2}, "list": [1, 2]})");
    JsonValue overlay = parseJson(
        R"({"nested": {"y": 3, "z": 4}, "list": [9], "b": 5})");
    JsonValue merged = mergeJson(base, overlay);
    EXPECT_EQ(merged.find("a")->asInt(), 1);       // kept
    EXPECT_EQ(merged.find("b")->asInt(), 5);       // added
    EXPECT_EQ(merged.find("nested")->find("x")->asInt(), 1);
    EXPECT_EQ(merged.find("nested")->find("y")->asInt(), 3);
    EXPECT_EQ(merged.find("nested")->find("z")->asInt(), 4);
    // Arrays replace wholesale, never merge element-wise.
    ASSERT_EQ(merged.find("list")->items().size(), 1u);
    EXPECT_EQ(merged.find("list")->items()[0].asInt(), 9);
}

} // namespace
