/**
 * @file
 * The tools' header-only JSON reader (tools/json_reader.hh): every
 * json.org construct parses into the DOM, and malformed or truncated
 * documents fail with the byte offset of the first bad character.
 */

#include <gtest/gtest.h>

#include <string>

#include "../tools/json_reader.hh"

namespace maxk
{
namespace
{

TEST(JsonReader, FullGrammarParsesIntoTheDom)
{
    const std::string text =
        " {\"s\": \"a\\\"b\\\\c\\/\\b\\f\\n\\r\\t\\u00e9\\ud83d\\ude00\","
        " \"n\": [0, -1, 2.5, -0.5e+3, 1E-2],"
        " \"l\": [true, false, null], \"o\": {}, \"a\": [[]]} \n";
    json::Value doc;
    json::ParseError err;
    ASSERT_TRUE(json::parse(text, doc, err)) << err.offset << err.what;
    ASSERT_EQ(doc.kind, json::Value::Kind::Object);
    ASSERT_EQ(doc.object.size(), 5u);

    EXPECT_EQ(doc.find("s")->string,
              "a\"b\\c/\b\f\n\r\t\xC3\xA9\xF0\x9F\x98\x80");
    const json::Value &n = *doc.find("n");
    ASSERT_EQ(n.array.size(), 5u);
    EXPECT_EQ(n.array[1].number, -1.0);
    EXPECT_EQ(n.array[3].number, -500.0);
    EXPECT_EQ(n.array[4].number, 0.01);
    const json::Value &l = *doc.find("l");
    EXPECT_TRUE(l.array[0].boolean);
    EXPECT_EQ(l.array[1].kind, json::Value::Kind::Bool);
    EXPECT_EQ(l.array[2].kind, json::Value::Kind::Null);
    EXPECT_EQ(doc.find("o")->kind, json::Value::Kind::Object);
    EXPECT_EQ(doc.find("a")->array[0].kind, json::Value::Kind::Array);
    EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonReader, MalformedDocumentsReportTheFirstBadByte)
{
    const struct
    {
        const char *text;
        std::size_t offset;
    } cases[] = {
        {"", 0},                     // empty document
        {"{\"records\": [1, 2", 17}, // truncated
        {"[1,]", 3},                 // trailing comma
        {"{\"a\" 1}", 5},            // missing colon
        {"{a: 1}", 1},               // unquoted key
        {"[01]", 2},                 // leading zero
        {"[1.]", 3},                 // empty fraction
        {"[-]", 2},                  // sign without digits
        {"[1e]", 3},                 // empty exponent
        {"\"tab\there\"", 4},        // raw control character
        {"\"\\x\"", 3},              // unknown escape
        {"\"\\u12g4\"", 3},          // bad hex digit
        {"[tru]", 1},                // bad literal
        {"{} {}", 3},                // trailing document
    };
    for (const auto &c : cases) {
        json::Value doc;
        json::ParseError err;
        EXPECT_FALSE(json::parse(c.text, doc, err)) << c.text;
        EXPECT_EQ(err.offset, c.offset) << c.text << ": " << err.what;
    }
}

TEST(JsonReader, NestingIsBounded)
{
    json::Value doc;
    json::ParseError err;
    EXPECT_TRUE(json::parse(std::string(200, '[') + std::string(200, ']'),
                            doc, err));
    EXPECT_FALSE(json::parse(std::string(100000, '['), doc, err));
    EXPECT_EQ(err.what, "nesting too deep");
}

} // namespace
} // namespace maxk
