/**
 * @file
 * Header-only JSON reader for the tools: the full json.org grammar
 * parsed into a small DOM, with the byte offset of the first error.
 * Standard library only, so tools that must not link the maxk library
 * can use it too.
 */

#ifndef MAXK_TOOLS_JSON_READER_HH
#define MAXK_TOOLS_JSON_READER_HH

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace maxk::json
{

/** One JSON value. Objects keep their members in document order. */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    /** First member named `key` of an object, or null. */
    const Value *
    find(std::string_view key) const
    {
        for (const auto &[name, value] : object)
            if (name == key)
                return &value;
        return nullptr;
    }
};

/** Where and why parsing stopped. */
struct ParseError
{
    std::size_t offset = 0;
    std::string what;
};

namespace detail
{

class Reader
{
  public:
    explicit Reader(std::string_view text) : text_(text) {}

    bool
    document(Value &out, ParseError &err)
    {
        if (value(out, 0) && (skipWs(), pos_ == text_.size()))
            return true;
        err = {pos_, value_ok_ ? "trailing characters after the document"
                               : what_};
        return false;
    }

  private:
    static constexpr int kMaxDepth = 256; //!< bounds the recursion

    bool
    fail(const char *what)
    {
        what_ = what;
        value_ok_ = false;
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() && (text_[pos_] == ' ' ||
                                       text_[pos_] == '\t' ||
                                       text_[pos_] == '\n' ||
                                       text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    eat(char c)
    {
        skipWs();
        if (pos_ >= text_.size() || text_[pos_] != c)
            return false;
        ++pos_;
        return true;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("invalid literal");
        pos_ += word.size();
        return true;
    }

    /** One or more decimal digits. */
    bool
    digits()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9')
            ++pos_;
        return pos_ > start;
    }

    bool
    at(char c) const
    {
        return pos_ < text_.size() && text_[pos_] == c;
    }

    bool
    number(double &out)
    {
        const std::size_t start = pos_;
        pos_ += at('-');
        if (at('0'))
            ++pos_;
        else if (!digits())
            return fail("malformed number");
        if (at('.') && (++pos_, !digits()))
            return fail("malformed number fraction");
        if (at('e') || at('E')) {
            ++pos_;
            pos_ += at('+') || at('-');
            if (!digits())
                return fail("malformed number exponent");
        }
        out = std::strtod(std::string(text_.substr(start, pos_ - start))
                              .c_str(),
                          nullptr);
        return true;
    }

    bool
    hex4(std::uint32_t &out)
    {
        const std::string_view h = text_.substr(pos_, 4);
        if (h.size() != 4 ||
            h.find_first_not_of("0123456789abcdefABCDEF") != h.npos)
            return fail("invalid \\u escape");
        out = static_cast<std::uint32_t>(
            std::strtoul(std::string(h).c_str(), nullptr, 16));
        pos_ += 4;
        return true;
    }

    static void
    appendUtf8(std::string &out, std::uint32_t cp)
    {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
            return;
        }
        static constexpr unsigned kLead[] = {0, 0xC0, 0xE0, 0xF0};
        const int tail = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
        out.push_back(static_cast<char>(kLead[tail] | (cp >> (6 * tail))));
        for (int i = tail - 1; i >= 0; --i)
            out.push_back(
                static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F)));
    }

    bool
    string(std::string &out)
    {
        if (!eat('"'))
            return fail("expected a string");
        static constexpr std::string_view kEscapes = "\"\\/bfnrt";
        static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
        for (;;) {
            if (pos_ >= text_.size())
                return fail("unterminated string");
            if (static_cast<unsigned char>(text_[pos_]) < 0x20)
                return fail("control character in string");
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            const char e = pos_ < text_.size() ? text_[pos_++] : '\0';
            if (const std::size_t k = kEscapes.find(e);
                k != kEscapes.npos) {
                out.push_back(kDecoded[k]);
                continue;
            }
            std::uint32_t cp = 0;
            if (e != 'u')
                return fail("invalid escape");
            if (!hex4(cp))
                return false;
            // A high surrogate joins an immediately following low one.
            std::uint32_t lo = 0;
            if (cp >= 0xD800 && cp < 0xDC00 &&
                text_.substr(pos_, 2) == "\\u") {
                pos_ += 2;
                if (!hex4(lo))
                    return false;
                if (lo >= 0xDC00 && lo < 0xE000)
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                else
                    appendUtf8(out, std::exchange(cp, lo));
            }
            appendUtf8(out, cp);
        }
    }

    bool
    value(Value &out, int depth)
    {
        skipWs();
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case '{':
            ++pos_;
            out.kind = Value::Kind::Object;
            if (eat('}'))
                return true;
            do {
                auto &[name, member] = out.object.emplace_back();
                if (!string(name) || !(eat(':') || fail("expected ':'")) ||
                    !value(member, depth + 1))
                    return false;
            } while (eat(','));
            return eat('}') || fail("expected ',' or '}'");
          case '[':
            ++pos_;
            out.kind = Value::Kind::Array;
            if (eat(']'))
                return true;
            do {
                if (!value(out.array.emplace_back(), depth + 1))
                    return false;
            } while (eat(','));
            return eat(']') || fail("expected ',' or ']'");
          case '"':
            out.kind = Value::Kind::String;
            return string(out.string);
          case 't':
            out.kind = Value::Kind::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.kind = Value::Kind::Bool;
            return literal("false");
          case 'n':
            return literal("null");
          default:
            out.kind = Value::Kind::Number;
            return number(out.number);
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    const char *what_ = "";
    bool value_ok_ = true;
};

} // namespace detail

/** Parse `text` as one JSON document (surrounding whitespace allowed).
 *  On failure returns false and fills `err`. */
inline bool
parse(std::string_view text, Value &out, ParseError &err)
{
    out = Value{};
    return detail::Reader(text).document(out, err);
}

} // namespace maxk::json

#endif // MAXK_TOOLS_JSON_READER_HH
