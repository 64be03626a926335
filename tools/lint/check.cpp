// --check self-validation: re-parse the JSON the tool just emitted with the
// shared reader (util/json) and verify it against the documented schema.
// Mirrors the trace_query --check discipline: the tool proves its own output
// parses before CI consumes it.

#include <set>

#include "lint.hpp"
#include "util/json.hpp"

namespace geoanon::lint {

namespace {

using util::JsonValue;

bool set_error(std::string* error, const std::string& why) {
    if (error) *error = why;
    return false;
}

bool require_string(const JsonValue& obj, const std::string& key,
                    const std::string& ctx, std::string* error) {
    const JsonValue* v = obj.find(key);
    if (!v) return set_error(error, ctx + ": missing key '" + key + "'");
    if (v->kind != JsonValue::Kind::kString)
        return set_error(error, ctx + ": '" + key + "' is not a string");
    return true;
}

/// The schema's numbers are all non-negative integers.
bool require_number(const JsonValue& obj, const std::string& key,
                    const std::string& ctx, std::string* error,
                    std::uint64_t* out = nullptr) {
    const JsonValue* v = obj.find(key);
    if (!v) return set_error(error, ctx + ": missing key '" + key + "'");
    std::uint64_t n = 0;
    if (!v->as_u64(n))
        return set_error(error, ctx + ": '" + key + "' is not a non-negative integer");
    if (out) *out = n;
    return true;
}

}  // namespace

bool validate_findings_json(const std::string& json, std::string* error) {
    JsonValue root;
    std::string parse_error;
    if (!util::parse_json(json, root, parse_error))
        return set_error(error, "parse error: " + parse_error);
    if (root.kind != JsonValue::Kind::kObject)
        return set_error(error, "top level is not an object");

    if (!require_string(root, "tool", "top level", error)) return false;
    if (root.find("tool")->string != "geoanon_lint")
        return set_error(error, "tool is not \"geoanon_lint\"");

    std::uint64_t schema_version = 0, count = 0;
    if (!require_number(root, "schema_version", "top level", error, &schema_version))
        return false;
    if (schema_version != kJsonSchemaVersion)
        return set_error(error, "schema_version is " + std::to_string(schema_version) +
                                    ", expected " + std::to_string(kJsonSchemaVersion));

    if (!require_number(root, "version", "top level", error)) return false;
    if (!require_number(root, "count", "top level", error, &count)) return false;

    const JsonValue* findings = root.find("findings");
    if (!findings) return set_error(error, "missing key 'findings'");
    if (findings->kind != JsonValue::Kind::kArray)
        return set_error(error, "'findings' is not an array");
    if (count != findings->array.size())
        return set_error(error, "count does not match findings length");

    // Known rule ids, for the per-finding rule_id check.
    std::set<std::string> ids;
    for (Rule r : kAllRules) ids.insert(rule_id(r));

    for (std::size_t i = 0; i < findings->array.size(); ++i) {
        const JsonValue& f = findings->array[i];
        const std::string ctx = "findings[" + std::to_string(i) + "]";
        if (f.kind != JsonValue::Kind::kObject)
            return set_error(error, ctx + " is not an object");
        for (const char* key : {"rule_id", "rule", "file", "message"})
            if (!require_string(f, key, ctx, error)) return false;
        if (!require_number(f, "line", ctx, error)) return false;
        if (!ids.count(f.find("rule_id")->string))
            return set_error(error, ctx + ": unknown rule_id '" +
                                        f.find("rule_id")->string + "'");
        // Optional extras must have the right types when present.
        for (const char* key :
             {"taint_source", "taint_sink", "layer_from", "layer_to"}) {
            const JsonValue* v = f.find(key);
            if (v && v->kind != JsonValue::Kind::kString)
                return set_error(error, ctx + ": '" + std::string(key) +
                                            "' is not a string");
        }
        if (f.find("taint_source_line") &&
            !require_number(f, "taint_source_line", ctx, error))
            return false;
        // Unknown keys are a schema drift signal: reject them.
        static const std::set<std::string> known = {
            "rule_id", "rule", "file", "line", "message",
            "taint_source", "taint_source_line", "taint_sink",
            "layer_from", "layer_to"};
        for (const auto& [key, value] : f.object) {
            (void)value;
            if (!known.count(key))
                return set_error(error, ctx + ": unknown key '" + key + "'");
        }
    }
    return true;
}

}  // namespace geoanon::lint
