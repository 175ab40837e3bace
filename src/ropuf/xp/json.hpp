// Minimal JSON value + recursive-descent parser.
//
// The experiment subsystem both writes JSONL (through the shared
// obs::append_json_escaped emitters) and reads it back — resume needs the
// job IDs already present in a results file, and `ropuf report` aggregates
// whole files. The repo is dependency-free by policy, so this is the small
// reader those paths share: strict enough to reject the truncated final
// line a crashed run leaves behind, tolerant of unknown keys so old readers
// survive new record fields.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ropuf::xp {

/// Parse failure, with the byte offset where the input stopped making sense.
class JsonError : public std::runtime_error {
public:
    JsonError(const std::string& what, std::size_t offset)
        : std::runtime_error(what + " (at byte " + std::to_string(offset) + ")"),
          offset_(offset) {}
    std::size_t offset() const { return offset_; }

private:
    std::size_t offset_;
};

/// One JSON value. Object members keep no insertion order (std::map) — the
/// readers only ever look fields up by name.
class JsonValue {
public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    Type type() const { return type_; }
    bool is_null() const { return type_ == Type::Null; }
    bool is_object() const { return type_ == Type::Object; }
    bool is_array() const { return type_ == Type::Array; }

    /// Typed accessors; throw std::logic_error on type mismatch.
    bool as_bool() const;
    double as_number() const;
    const std::string& as_string() const;
    const std::vector<JsonValue>& as_array() const;
    const std::map<std::string, JsonValue>& as_object() const;

    /// Object member lookup; returns nullptr when absent or not an object.
    const JsonValue* find(std::string_view key) const;

    /// Convenience lookups with defaults (missing member or wrong type
    /// yields the fallback) — the tolerant read path for record fields.
    double number_or(std::string_view key, double fallback) const;
    std::string string_or(std::string_view key, const std::string& fallback) const;

    /// Exact 64-bit integer lookups: re-parse the number's source literal,
    /// because the double representation loses precision above 2^53 —
    /// campaign seeds are full 64-bit values and must round-trip exactly.
    std::uint64_t u64_or(std::string_view key, std::uint64_t fallback) const;
    std::int64_t i64_or(std::string_view key, std::int64_t fallback) const;

    static JsonValue make_null() { return JsonValue(); }
    static JsonValue make_bool(bool b);
    static JsonValue make_number(double n, std::string literal = {});
    static JsonValue make_string(std::string s);
    static JsonValue make_array(std::vector<JsonValue> items);
    static JsonValue make_object(std::map<std::string, JsonValue> members);

private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_; ///< string value; for numbers, the source literal
    std::vector<JsonValue> array_;
    std::map<std::string, JsonValue> object_;
};

/// Parses exactly one JSON document; trailing non-whitespace is an error
/// (a truncated JSONL line therefore fails instead of half-parsing).
JsonValue parse_json(std::string_view text);

} // namespace ropuf::xp
