#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace geoanon::util {

/// Minimal ordered JSON emitter. Keys appear in call order and numbers are
/// formatted via a fixed printf recipe, so two semantically equal documents
/// are byte-identical — which is what the sweep determinism contract
/// (`--jobs 1` vs `--jobs 8`) and the trace-export contract compare.
class JsonWriter {
  public:
    JsonWriter& begin_object();
    JsonWriter& end_object();
    JsonWriter& begin_array();
    JsonWriter& end_array();
    JsonWriter& key(const std::string& k);
    JsonWriter& value(const std::string& v);
    JsonWriter& value(const char* v);
    JsonWriter& value(double v);
    JsonWriter& value(std::uint64_t v);
    JsonWriter& value(std::int64_t v);
    JsonWriter& value(bool v);

    const std::string& str() const { return out_; }

  private:
    void separate();
    std::string out_;
    /// One entry per open container: count of elements emitted so far.
    std::vector<std::size_t> depth_counts_;
    bool after_key_{false};
};

std::string json_escape(const std::string& s);

/// Write `content` to `path`; returns false (and logs) on failure.
bool write_text_file(const std::string& path, const std::string& content);

/// Minimal recursive-descent JSON value: the one reader for every JSON the
/// project reads back (Chrome trace export, lint findings). Objects keep
/// insertion order; numbers stay double plus their source token.
struct JsonValue {
    enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

    Kind kind{Kind::kNull};
    bool boolean{false};
    double number{0.0};
    /// Raw source token of a kNumber. `number` is a double and silently
    /// rounds integers above 2^53 (packet uids are full 64-bit PRP outputs);
    /// as_u64 re-parses this instead.
    std::string number_raw;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /// Member with this key, or nullptr. O(members).
    const JsonValue* find(const std::string& key) const;
    /// Exact value of a number written as plain decimal digits that fits in
    /// 64 bits; false for anything else (negative, fraction, exponent).
    bool as_u64(std::uint64_t& out) const;
};

/// Containers nested deeper than this are rejected: the reader recurses
/// once per level, so unbounded input depth would overflow the stack.
inline constexpr std::size_t kMaxJsonDepth = 256;

/// Parse `text`; returns false and sets `error` ("<what> at offset N") on
/// malformed input, trailing garbage after the top-level value, a duplicate
/// key within one object, or nesting deeper than kMaxJsonDepth.
bool parse_json(const std::string& text, JsonValue& out, std::string& error);

}  // namespace geoanon::util
