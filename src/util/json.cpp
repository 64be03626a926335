#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>

#include "util/log.hpp"

namespace geoanon::util {

void JsonWriter::separate() {
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (!depth_counts_.empty() && depth_counts_.back()++ > 0) out_ += ',';
}

JsonWriter& JsonWriter::begin_object() {
    separate();
    out_ += '{';
    depth_counts_.push_back(0);
    return *this;
}

JsonWriter& JsonWriter::end_object() {
    depth_counts_.pop_back();
    out_ += '}';
    return *this;
}

JsonWriter& JsonWriter::begin_array() {
    separate();
    out_ += '[';
    depth_counts_.push_back(0);
    return *this;
}

JsonWriter& JsonWriter::end_array() {
    depth_counts_.pop_back();
    out_ += ']';
    return *this;
}

JsonWriter& JsonWriter::key(const std::string& k) {
    separate();
    out_ += '"';
    out_ += json_escape(k);
    out_ += "\":";
    after_key_ = true;
    return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
    separate();
    out_ += '"';
    out_ += json_escape(v);
    out_ += '"';
    return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string(v)); }

JsonWriter& JsonWriter::value(double v) {
    separate();
    char buf[40];
    // %.17g round-trips every finite double and formats identically for
    // identical bit patterns — the byte-stability the sweep contract needs.
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
    separate();
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    out_ += buf;
    return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
    separate();
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRId64, v);
    out_ += buf;
    return *this;
}

JsonWriter& JsonWriter::value(bool v) {
    separate();
    out_ += v ? "true" : "false";
    return *this;
}

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

bool write_text_file(const std::string& path, const std::string& content) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) {
        log_error("cannot open %s for writing", path.c_str());
        return false;
    }
    f << content << '\n';
    return static_cast<bool>(f);
}

const JsonValue* JsonValue::find(const std::string& key) const {
    for (const auto& [k, v] : object)
        if (k == key) return &v;
    return nullptr;
}

bool JsonValue::as_u64(std::uint64_t& out) const {
    if (kind != Kind::kNumber || number_raw.empty() ||
        number_raw.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    char* end = nullptr;
    const unsigned long long u = std::strtoull(number_raw.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') return false;
    out = u;
    return true;
}

namespace {

class Parser {
  public:
    Parser(const std::string& text, std::string& error) : text_(text), error_(error) {}

    bool run(JsonValue& out) {
        skip_ws();
        if (!value(out)) return false;
        skip_ws();
        if (pos_ != text_.size()) return fail("trailing garbage");
        return true;
    }

  private:
    bool fail(const char* msg) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s at offset %zu", msg, pos_);
        error_ = buf;
        return false;
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                text_[pos_] == '\r'))
            ++pos_;
    }

    bool literal(const char* word) {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0) return fail("bad literal");
        pos_ += n;
        return true;
    }

    bool value(JsonValue& out) {
        if (pos_ >= text_.size()) return fail("unexpected end of input");
        switch (text_[pos_]) {
            case '{':
            case '[': {
                if (depth_ == kMaxJsonDepth) return fail("nesting too deep");
                ++depth_;
                const bool ok = text_[pos_] == '{' ? object(out) : array(out);
                --depth_;
                return ok;
            }
            case '"':
                out.kind = JsonValue::Kind::kString;
                return string(out.string);
            case 't':
                out.kind = JsonValue::Kind::kBool;
                out.boolean = true;
                return literal("true");
            case 'f':
                out.kind = JsonValue::Kind::kBool;
                out.boolean = false;
                return literal("false");
            case 'n':
                out.kind = JsonValue::Kind::kNull;
                return literal("null");
            default: return number(out);
        }
    }

    bool object(JsonValue& out) {
        out.kind = JsonValue::Kind::kObject;
        ++pos_;  // '{'
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skip_ws();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected key");
            if (!string(key)) return false;
            skip_ws();
            if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':'");
            ++pos_;
            skip_ws();
            JsonValue v;
            if (!value(v)) return false;
            out.object.emplace_back(std::move(key), std::move(v));
            skip_ws();
            if (pos_ >= text_.size()) return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return unique_keys(out);
            }
            return fail("expected ',' or '}'");
        }
    }

    /// Checked once the object is complete: sorting the keys keeps a huge
    /// object O(n log n) where a per-insert scan would be quadratic.
    bool unique_keys(const JsonValue& obj) {
        std::vector<std::string_view> keys;
        keys.reserve(obj.object.size());
        for (const auto& [k, v] : obj.object) keys.emplace_back(k);
        std::sort(keys.begin(), keys.end());
        if (std::adjacent_find(keys.begin(), keys.end()) != keys.end())
            return fail("duplicate key");
        return true;
    }

    bool array(JsonValue& out) {
        out.kind = JsonValue::Kind::kArray;
        ++pos_;  // '['
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skip_ws();
            JsonValue v;
            if (!value(v)) return false;
            out.array.push_back(std::move(v));
            skip_ws();
            if (pos_ >= text_.size()) return fail("unterminated array");
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

    bool string(std::string& out) {
        ++pos_;  // opening quote
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size()) return fail("bad escape");
                switch (text_[pos_]) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'n': out += '\n'; break;
                    case 'r': out += '\r'; break;
                    case 't': out += '\t'; break;
                    case 'b': out += '\b'; break;
                    case 'f': out += '\f'; break;
                    case 'u': {
                        if (pos_ + 4 >= text_.size()) return fail("bad \\u escape");
                        unsigned cp = 0;
                        for (int i = 1; i <= 4; ++i) {
                            const char h = text_[pos_ + i];
                            cp <<= 4;
                            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
                            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
                            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
                            else return fail("bad \\u escape");
                        }
                        pos_ += 4;
                        // The exporter only emits \u00xx for control bytes.
                        if (cp > 0xff) return fail("unsupported \\u escape");
                        out += static_cast<char>(cp);
                        break;
                    }
                    default: return fail("bad escape");
                }
                ++pos_;
                continue;
            }
            out += c;
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool number(JsonValue& out) {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                text_[pos_] == '+' || text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start) return fail("expected value");
        char* end = nullptr;
        const std::string tok = text_.substr(start, pos_ - start);
        out.kind = JsonValue::Kind::kNumber;
        out.number = std::strtod(tok.c_str(), &end);
        if (end == nullptr || *end != '\0') return fail("bad number");
        out.number_raw = tok;
        return true;
    }

    const std::string& text_;
    std::string& error_;
    std::size_t pos_{0};
    std::size_t depth_{0};
};

}  // namespace

bool parse_json(const std::string& text, JsonValue& out, std::string& error) {
    return Parser(text, error).run(out);
}

}  // namespace geoanon::util
