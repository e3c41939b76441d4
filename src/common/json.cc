#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/fs.hh"
#include "common/logging.hh"

namespace xbs
{

JsonWriter::JsonWriter(std::ostream &os, bool pretty)
    : os_(os), pretty_(pretty)
{
}

JsonWriter::~JsonWriter()
{
    if (!stack_.empty())
        xbs_warn("JsonWriter destroyed with %zu open containers",
                 stack_.size());
}

std::string
JsonWriter::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if ((unsigned char)c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
JsonWriter::indent()
{
    if (!pretty_)
        return;
    os_ << '\n';
    for (std::size_t i = 0; i < stack_.size(); ++i)
        os_ << "  ";
}

void
JsonWriter::prefix(const std::string &key)
{
    if (!stack_.empty()) {
        if (stack_.back().hasItems)
            os_ << ',';
        stack_.back().hasItems = true;
        indent();
        if (!stack_.back().isArray) {
            xbs_assert(!key.empty(), "object member needs a key");
            os_ << '"' << escape(key) << "\":" << (pretty_ ? " " : "");
        } else {
            xbs_assert(key.empty(), "array item must not have a key");
        }
    }
}

void
JsonWriter::beginObject(const std::string &key)
{
    prefix(key);
    os_ << '{';
    stack_.push_back(Level{false, false});
}

void
JsonWriter::endObject()
{
    xbs_assert(!stack_.empty() && !stack_.back().isArray,
               "endObject without beginObject");
    bool had = stack_.back().hasItems;
    stack_.pop_back();
    if (had)
        indent();
    os_ << '}';
    if (stack_.empty() && pretty_)
        os_ << '\n';
}

void
JsonWriter::beginArray(const std::string &key)
{
    prefix(key);
    os_ << '[';
    stack_.push_back(Level{true, false});
}

void
JsonWriter::endArray()
{
    xbs_assert(!stack_.empty() && stack_.back().isArray,
               "endArray without beginArray");
    bool had = stack_.back().hasItems;
    stack_.pop_back();
    if (had)
        indent();
    os_ << ']';
}

void
JsonWriter::field(const std::string &key, const std::string &value)
{
    prefix(key);
    os_ << '"' << escape(value) << '"';
}

void
JsonWriter::field(const std::string &key, const char *value)
{
    field(key, std::string(value));
}

void
JsonWriter::field(const std::string &key, double value)
{
    prefix(key);
    if (std::isfinite(value)) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.6g", value);
        os_ << buf;
    } else {
        os_ << "null";
    }
}

void
JsonWriter::fieldFull(const std::string &key, double value)
{
    prefix(key);
    if (std::isfinite(value)) {
        // %.17g round-trips every finite double through strtod
        // bit-exactly; used where a value will be read back and must
        // compare equal (benchmark records, pinned metrics), not just
        // displayed.
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        os_ << buf;
    } else {
        os_ << "null";
    }
}

void
JsonWriter::field(const std::string &key, uint64_t value)
{
    prefix(key);
    os_ << value;
}

void
JsonWriter::field(const std::string &key, int64_t value)
{
    prefix(key);
    os_ << value;
}

void
JsonWriter::field(const std::string &key, bool value)
{
    prefix(key);
    os_ << (value ? "true" : "false");
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[k, v] : members) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

double
JsonValue::asNumber(double dflt) const
{
    return isNumber() ? numValue : dflt;
}

uint64_t
JsonValue::asUint(uint64_t dflt) const
{
    return isNumber() && numValue >= 0.0 ? (uint64_t)numValue : dflt;
}

const std::string &
JsonValue::asString(const std::string &dflt) const
{
    return isString() ? strValue : dflt;
}

namespace
{

/** Recursive-descent JSON parser over an in-memory string. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    parse(JsonValue *out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const char *why)
    {
        if (error_ && error_->empty()) {
            *error_ = "offset " + std::to_string(pos_) + ": " + why;
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    literal(const char *word, std::size_t len)
    {
        if (text_.compare(pos_, len, word) != 0)
            return fail("bad literal");
        pos_ += len;
        return true;
    }

    bool
    parseValue(JsonValue *out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case '{': return parseObject(out);
          case '[': return parseArray(out);
          case '"':
            out->type = JsonValue::Type::String;
            return parseString(&out->strValue);
          case 't':
            out->type = JsonValue::Type::Bool;
            out->boolValue = true;
            return literal("true", 4);
          case 'f':
            out->type = JsonValue::Type::Bool;
            out->boolValue = false;
            return literal("false", 5);
          case 'n':
            out->type = JsonValue::Type::Null;
            return literal("null", 4);
          default:
            return parseNumber(out);
        }
    }

    bool
    parseNumber(JsonValue *out)
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit((unsigned char)text_[pos_]) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            return fail("expected a value");
        char *end = nullptr;
        std::string num = text_.substr(start, pos_ - start);
        double v = std::strtod(num.c_str(), &end);
        if (!end || *end != '\0')
            return fail("malformed number");
        out->type = JsonValue::Type::Number;
        out->numValue = v;
        return true;
    }

    bool
    parseString(std::string *out)
    {
        ++pos_;  // opening quote
        out->clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_];
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return fail("unterminated escape");
                switch (text_[pos_]) {
                  case '"':  *out += '"'; break;
                  case '\\': *out += '\\'; break;
                  case '/':  *out += '/'; break;
                  case 'b':  *out += '\b'; break;
                  case 'f':  *out += '\f'; break;
                  case 'n':  *out += '\n'; break;
                  case 'r':  *out += '\r'; break;
                  case 't':  *out += '\t'; break;
                  case 'u': {
                    if (pos_ + 4 >= text_.size())
                        return fail("truncated \\u escape");
                    unsigned cp = 0;
                    for (int i = 1; i <= 4; ++i) {
                        char h = text_[pos_ + i];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= (unsigned)(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            cp |= (unsigned)(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            cp |= (unsigned)(h - 'A' + 10);
                        else
                            return fail("bad \\u escape digit");
                    }
                    pos_ += 4;
                    // UTF-8 encode the BMP code point (surrogate
                    // pairs are not produced by our writer).
                    if (cp < 0x80) {
                        *out += (char)cp;
                    } else if (cp < 0x800) {
                        *out += (char)(0xc0 | (cp >> 6));
                        *out += (char)(0x80 | (cp & 0x3f));
                    } else {
                        *out += (char)(0xe0 | (cp >> 12));
                        *out += (char)(0x80 | ((cp >> 6) & 0x3f));
                        *out += (char)(0x80 | (cp & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
            } else {
                *out += c;
            }
            ++pos_;
        }
        if (pos_ >= text_.size())
            return fail("unterminated string");
        ++pos_;  // closing quote
        return true;
    }

    bool
    parseArray(JsonValue *out)
    {
        out->type = JsonValue::Type::Array;
        ++pos_;  // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue item;
            skipWs();
            if (!parseValue(&item))
                return false;
            out->items.push_back(std::move(item));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseObject(JsonValue *out)
    {
        out->type = JsonValue::Type::Object;
        ++pos_;  // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected member key");
            std::string key;
            if (!parseString(&key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            skipWs();
            JsonValue value;
            if (!parseValue(&value))
                return false;
            out->members.emplace_back(std::move(key),
                                      std::move(value));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

} // anonymous namespace

bool
parseJson(const std::string &text, JsonValue *out, std::string *error)
{
    if (error)
        error->clear();
    JsonParser parser(text, error);
    *out = JsonValue{};
    return parser.parse(out);
}

Expected<JsonValue>
readJsonFile(const std::string &path)
{
    Expected<std::string> text = readFileToString(path);
    if (!text.ok())
        return text.status();
    JsonValue doc;
    std::string err;
    if (!parseJson(text.value(), &doc, &err))
        return Status::error("malformed JSON: " + err).withFile(path);
    return doc;
}

JsonlScan
forEachJsonLine(std::istream &is,
                const std::function<bool(const JsonValue &)> &fn)
{
    JsonlScan scan;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        JsonValue doc;
        std::string err;
        if (!parseJson(line, &doc, &err) || !doc.isObject()) {
            scan.badLine = lineno;
            scan.error = err.empty() ? "not a JSON object" : err;
            break;
        }
        ++scan.objects;
        if (!fn(doc))
            break;
    }
    return scan;
}

const JsonValue *
findBySuffix(const JsonValue &obj, const std::string &suffix)
{
    for (const auto &[key, value] : obj.members) {
        if (key.size() >= suffix.size() &&
            key.compare(key.size() - suffix.size(), suffix.size(),
                        suffix) == 0) {
            return &value;
        }
    }
    return nullptr;
}

} // namespace xbs
