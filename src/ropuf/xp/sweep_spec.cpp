#include "ropuf/xp/sweep_spec.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "ropuf/core/attack_engine.hpp"
#include "ropuf/defense/registry.hpp"
#include "ropuf/xp/json.hpp"

namespace ropuf::xp {

namespace {

std::string trim(std::string_view s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return std::string(s.substr(b, e - b));
}

std::vector<std::string> split_list(std::string_view value) {
    std::vector<std::string> items;
    std::size_t start = 0;
    int depth = 0; // commas inside parentheses belong to the token: bch(6,3)
    for (std::size_t i = 0; i <= value.size(); ++i) {
        if (i < value.size() && value[i] == '(') ++depth;
        if (i < value.size() && value[i] == ')') --depth;
        if (i == value.size() || (value[i] == ',' && depth == 0)) {
            const std::string item = trim(value.substr(start, i - start));
            if (!item.empty()) items.push_back(item);
            start = i + 1;
        }
    }
    return items;
}

/// Splits a `start:stop:step` token; returns false for plain scalars.
bool split_range(const std::string& token, std::string parts[3], int line) {
    const std::size_t first = token.find(':');
    if (first == std::string::npos) return false;
    const std::size_t second = token.find(':', first + 1);
    if (second == std::string::npos || token.find(':', second + 1) != std::string::npos) {
        throw SpecError("range must be start:stop:step: '" + token + "'", line);
    }
    parts[0] = trim(std::string_view(token).substr(0, first));
    parts[1] = trim(std::string_view(token).substr(first + 1, second - first - 1));
    parts[2] = trim(std::string_view(token).substr(second + 1));
    return true;
}

/// Throws unless a range of `count` values fits on an axis already holding
/// `held` — checked before the range expands, so an oversized range is an
/// error instead of an allocation.
void check_axis_room(std::size_t held, double count, const std::string& token, int line) {
    if (!(count <= static_cast<double>(kMaxGridPoints - std::min(held, kMaxGridPoints)))) {
        throw SpecError("axis expands to more than " + std::to_string(kMaxGridPoints) +
                            " values: '" + token + "'",
                        line);
    }
}

std::vector<double> parse_double_axis(std::string_view value, int line) {
    std::vector<double> out;
    for (const auto& token : split_list(value)) {
        std::string parts[3];
        if (!split_range(token, parts, line)) {
            out.push_back(parse_double(token, line));
            continue;
        }
        const double start = parse_double(parts[0], line);
        const double stop = parse_double(parts[1], line);
        const double step = parse_double(parts[2], line);
        if (step <= 0.0) throw SpecError("range step must be > 0: '" + token + "'", line);
        if (stop < start) throw SpecError("range stop < start: '" + token + "'", line);
        // Count-based expansion: immune to drift accumulating past `stop`.
        const double count = std::floor((stop - start) / step + 1e-9) + 1.0;
        check_axis_room(out.size(), count, token, line);
        for (std::size_t i = 0; i < static_cast<std::size_t>(count); ++i) {
            out.push_back(start + static_cast<double>(i) * step);
        }
    }
    if (out.empty()) throw SpecError("axis expands to zero values", line);
    return out;
}

/// Every value lies in [min_allowed, INT_MAX]: start and stop are bounded
/// before the range expands, so nothing narrows or overflows past them.
std::vector<int> parse_int_axis(std::string_view value, int line, int min_allowed) {
    const auto parse = [&](std::string_view token) {
        return static_cast<int>(
            parse_int(token, min_allowed, std::numeric_limits<int>::max(), line));
    };
    std::vector<int> out;
    for (const auto& token : split_list(value)) {
        std::string parts[3];
        if (!split_range(token, parts, line)) {
            out.push_back(parse(token));
            continue;
        }
        const int start = parse(parts[0]);
        const int stop = parse(parts[1]);
        const int step = static_cast<int>(
            parse_int(parts[2], 1, std::numeric_limits<int>::max(), line));
        if (stop < start) throw SpecError("range stop < start: '" + token + "'", line);
        check_axis_room(out.size(),
                        static_cast<double>((static_cast<long long>(stop) - start) / step) + 1.0,
                        token, line);
        for (int v = start;; v += step) {
            out.push_back(v); // invariant: v <= stop
            if (stop - v < step) break; // the next value would pass stop (overflow-safe)
        }
    }
    if (out.empty()) throw SpecError("axis expands to zero values", line);
    return out;
}

std::vector<std::uint64_t> parse_seed_axis(std::string_view value, int line) {
    std::vector<std::uint64_t> out;
    for (const auto& token : split_list(value)) {
        std::string parts[3];
        if (!split_range(token, parts, line)) {
            out.push_back(parse_u64(token, line));
            continue;
        }
        const std::uint64_t start = parse_u64(parts[0], line);
        const std::uint64_t stop = parse_u64(parts[1], line);
        const std::uint64_t step = parse_u64(parts[2], line);
        if (step == 0) throw SpecError("range step must be > 0: '" + token + "'", line);
        if (stop < start) throw SpecError("range stop < start: '" + token + "'", line);
        check_axis_room(out.size(), static_cast<double>((stop - start) / step) + 1.0, token,
                        line);
        for (std::uint64_t v = start;; v += step) {
            out.push_back(v); // invariant: v <= stop
            if (stop - v < step) break; // the next value would pass stop (overflow-safe)
        }
    }
    if (out.empty()) throw SpecError("axis expands to zero values", line);
    return out;
}

std::vector<std::pair<int, int>> parse_geometry_axis(std::string_view value, int line) {
    std::vector<std::pair<int, int>> out;
    for (const auto& token : split_list(value)) {
        out.push_back(parse_geometry(token, std::numeric_limits<int>::max(), line));
    }
    if (out.empty()) throw SpecError("axis expands to zero values", line);
    return out;
}

std::vector<std::pair<int, int>> parse_ecc_axis(std::string_view value, int line) {
    std::vector<std::pair<int, int>> out;
    for (const auto& token : split_list(value)) {
        int m = 0;
        int t = 0;
        char tail = '\0';
        if (std::sscanf(token.c_str(), "bch(%d,%d%c", &m, &t, &tail) != 3 || tail != ')' ||
            m <= 1 || t <= 0) {
            throw SpecError("ecc must be bch(m,t) with m > 1, t > 0: '" + token + "'", line);
        }
        out.emplace_back(m, t);
    }
    if (out.empty()) throw SpecError("axis expands to zero values", line);
    return out;
}

bool valid_name(const std::string& name) {
    if (name.empty()) return false;
    return std::all_of(name.begin(), name.end(), [](unsigned char c) {
        return std::isalnum(c) || c == '_' || c == '-';
    });
}

/// Every key the grammar understands (canonical spellings; `budget` is an
/// accepted alias of `query_budget`). Feeds the did-you-mean suggestion on
/// unknown keys.
const std::vector<std::string> kKnownKeys = {
    "name",          "scenarios", "constructions", "geometry",
    "sigma_noise_mhz", "ambient_c", "majority_wins", "ecc",
    "query_budget",  "defense",   "trials",        "master_seed"};

/// Syntax-normalizes every defense token (`lockout( 8 )` -> `lockout(8)`)
/// so spelling variants hash identically; names are resolved against the
/// defense registry at plan time, like scenario names.
std::vector<std::string> parse_defense_axis(std::string_view value, int line) {
    std::vector<std::string> out;
    for (const auto& token : split_list(value)) {
        try {
            out.push_back(defense::format_token(defense::parse_defense_token(token)));
        } catch (const std::invalid_argument& e) {
            throw SpecError(e.what(), line);
        }
    }
    if (out.empty()) throw SpecError("axis expands to zero values", line);
    return out;
}

/// Applies one key=value assignment to the spec under construction.
void apply_key(SweepSpec& spec, std::vector<std::string>& seen, const std::string& raw_key,
               const std::string& value, int line) {
    const std::string key = raw_key == "budget" ? "query_budget" : raw_key;
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
        throw SpecError("duplicate key '" + key + "'", line);
    }
    seen.push_back(key);
    if (value.empty()) throw SpecError("key '" + key + "' has an empty value", line);
    // Values must stay spellable in the line-based grammar (the canonical
    // form is one). The text path can never produce these characters —
    // comments and line splits are handled first — but the JSON input path
    // can smuggle them inside string values, which would break the
    // canonical-text round trip.
    if (value.find_first_of("\n\r#") != std::string::npos) {
        throw SpecError("key '" + key + "' value contains a newline or '#'", line);
    }

    if (key == "name") {
        if (!valid_name(value)) {
            throw SpecError("name must be [A-Za-z0-9_-]+: '" + value + "'", line);
        }
        spec.name = value;
    } else if (key == "scenarios") {
        if (value == "all") {
            spec.all_scenarios = true;
        } else {
            spec.scenarios = split_list(value);
            if (spec.scenarios.empty()) throw SpecError("empty scenario list", line);
        }
    } else if (key == "constructions") {
        spec.constructions = split_list(value);
        if (spec.constructions.empty()) throw SpecError("empty construction list", line);
    } else if (key == "geometry") {
        spec.geometry = parse_geometry_axis(value, line);
    } else if (key == "sigma_noise_mhz") {
        spec.sigma_noise_mhz = parse_double_axis(value, line);
    } else if (key == "ambient_c") {
        spec.ambient_c = parse_double_axis(value, line);
    } else if (key == "majority_wins") {
        spec.majority_wins = parse_int_axis(value, line, 0);
    } else if (key == "ecc") {
        spec.ecc = parse_ecc_axis(value, line);
    } else if (key == "query_budget") {
        spec.query_budget = parse_int_axis(value, line, 0);
    } else if (key == "defense") {
        spec.defense = parse_defense_axis(value, line);
    } else if (key == "trials") {
        spec.trials = parse_int_axis(value, line, 1);
    } else if (key == "master_seed") {
        spec.master_seed = parse_seed_axis(value, line);
    } else {
        throw SpecError(core::unknown_name_message("spec key", key, kKnownKeys), line);
    }
    if (grid_points(spec, 1) > kMaxGridPoints) {
        throw SpecError("spec grid exceeds " + std::to_string(kMaxGridPoints) + " points", line);
    }
}

void validate(const SweepSpec& spec) {
    if (spec.name.empty()) throw SpecError("spec is missing the required 'name' key");
    if (!spec.all_scenarios && spec.scenarios.empty() && spec.constructions.empty()) {
        throw SpecError("spec selects no experiments: set 'scenarios' or 'constructions'");
    }
}

SweepSpec parse_text_spec(std::string_view text) {
    SweepSpec spec;
    std::vector<std::string> seen;
    for (const SpecLine& entry : read_spec_lines(text)) {
        apply_key(spec, seen, entry.key, entry.value, entry.line);
    }
    validate(spec);
    return spec;
}

/// Renders a JSON spec value back into the text-format axis string, so both
/// input syntaxes share one code path (and therefore one canonical form).
std::string json_value_to_axis(const std::string& key, const JsonValue& value) {
    switch (value.type()) {
        case JsonValue::Type::String: return value.as_string();
        case JsonValue::Type::Number: {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", value.as_number());
            return buf;
        }
        case JsonValue::Type::Array: {
            std::string out;
            for (const auto& item : value.as_array()) {
                if (!out.empty()) out += ",";
                out += json_value_to_axis(key, item);
            }
            return out;
        }
        default: throw SpecError("JSON key '" + key + "' must be a string, number or array");
    }
}

SweepSpec parse_json_spec(std::string_view text) {
    JsonValue doc;
    try {
        doc = parse_json(text);
    } catch (const JsonError& e) {
        throw SpecError(std::string("bad JSON spec: ") + e.what());
    }
    if (!doc.is_object()) throw SpecError("JSON spec must be an object");
    SweepSpec spec;
    std::vector<std::string> seen;
    for (const auto& [key, value] : doc.as_object()) {
        apply_key(spec, seen, key, json_value_to_axis(key, value), 0);
    }
    validate(spec);
    return spec;
}

void append_axis_doubles(std::string& out, const char* key, const std::vector<double>& values) {
    out += key;
    out += '=';
    char buf[64];
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ',';
        std::snprintf(buf, sizeof buf, "%.17g", values[i]);
        out += buf;
    }
    out += '\n';
}

template <typename Int>
void append_axis_ints(std::string& out, const char* key, const std::vector<Int>& values) {
    out += key;
    out += '=';
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(values[i]);
    }
    out += '\n';
}

} // namespace

std::size_t grid_points(const SweepSpec& spec, std::size_t scenario_count) {
    // points never exceeds kMaxGridPoints + 1 and n is an axis length, so
    // the product cannot overflow before it saturates.
    std::size_t points = std::min(scenario_count, kMaxGridPoints + 1);
    for (const std::size_t n :
         {spec.geometry.size(), spec.sigma_noise_mhz.size(), spec.ambient_c.size(),
          spec.majority_wins.size(), spec.ecc.size(), spec.query_budget.size(),
          spec.defense.size(), spec.trials.size(), spec.master_seed.size()}) {
        points = std::min(points * n, kMaxGridPoints + 1);
    }
    return points;
}

SweepSpec parse_spec(std::string_view text) {
    const std::size_t first = text.find_first_not_of(" \t\r\n");
    if (first != std::string_view::npos && text[first] == '{') return parse_json_spec(text);
    return parse_text_spec(text);
}

SweepSpec load_spec_file(const std::string& path) { return parse_spec(read_spec_file(path)); }

std::vector<SpecLine> read_spec_lines(std::string_view text) {
    std::vector<SpecLine> lines;
    std::set<std::string> seen;
    int line_no = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t eol = std::min(text.find('\n', pos), text.size());
        const std::string_view raw = text.substr(pos, eol - pos);
        pos = eol + 1;
        ++line_no;
        const std::string line = trim(raw.substr(0, raw.find('#')));
        if (line.empty()) continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos) {
            throw SpecError("expected 'key = value': '" + line + "'", line_no);
        }
        SpecLine entry{trim(std::string_view(line).substr(0, eq)),
                       trim(std::string_view(line).substr(eq + 1)), line_no};
        if (entry.value.empty()) {
            throw SpecError("key '" + entry.key + "' has an empty value", line_no);
        }
        if (!seen.insert(entry.key).second) {
            throw SpecError("duplicate key '" + entry.key + "'", line_no);
        }
        lines.push_back(std::move(entry));
    }
    return lines;
}

std::string read_spec_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw SpecError("cannot read spec file: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::uint64_t parse_u64(std::string_view token, int line) {
    if (token.empty() || token.find_first_not_of("0123456789") != std::string_view::npos) {
        throw SpecError("not an unsigned integer: '" + std::string(token) + "'", line);
    }
    std::uint64_t v = 0;
    for (const char c : token) {
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
            throw SpecError("value '" + std::string(token) + "' exceeds 2^64 - 1", line);
        }
        v = v * 10 + digit;
    }
    return v;
}

long long parse_int(std::string_view token, long long lo, long long hi, int line) {
    const bool negative = !token.empty() && token.front() == '-';
    const std::uint64_t magnitude = parse_u64(token.substr(negative ? 1 : 0), line);
    // Bounds lie within +-10^18: a larger magnitude is out of range, a
    // smaller one converts exactly.
    const auto capped =
        static_cast<long long>(std::min<std::uint64_t>(magnitude, 1000000000000000001ULL));
    const long long v = negative ? -capped : capped;
    if (v < lo || v > hi) {
        throw SpecError("value '" + std::string(token) + "' outside [" + std::to_string(lo) +
                            ", " + std::to_string(hi) + "]",
                        line);
    }
    return v;
}

double parse_double(std::string_view token, int line, bool non_negative) {
    const std::string s(token);
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    // Non-finite values have no JSON spelling: a record would carry `nan`.
    if (s.empty() || end == nullptr || *end != '\0' || !std::isfinite(v)) {
        throw SpecError("not a finite number: '" + s + "'", line);
    }
    if (non_negative && !(v >= 0.0)) throw SpecError("expected a number >= 0: '" + s + "'", line);
    return v;
}

std::pair<int, int> parse_geometry(std::string_view token, int max_side, int line) {
    const std::size_t x = token.find('x');
    if (x == std::string_view::npos || token.find('x', x + 1) != std::string_view::npos) {
        throw SpecError("geometry must be COLSxROWS: '" + std::string(token) + "'", line);
    }
    return {static_cast<int>(parse_int(trim(token.substr(0, x)), 1, max_side, line)),
            static_cast<int>(parse_int(trim(token.substr(x + 1)), 1, max_side, line))};
}

std::string canonical_text(const SweepSpec& spec) {
    // Fixed key order, expanded values, and valid spec syntax throughout —
    // parse(canonical_text(spec)) always succeeds and reproduces the same
    // canonical text. Axes still holding their default sentinel are omitted
    // (the sentinels, e.g. geometry 0x0, are deliberately not spellable in
    // the input grammar).
    const SweepSpec defaults;
    std::string out;
    out += "name=" + spec.name + '\n';
    if (spec.all_scenarios) {
        out += "scenarios=all\n";
    } else if (!spec.scenarios.empty()) {
        out += "scenarios=";
        for (std::size_t i = 0; i < spec.scenarios.size(); ++i) {
            if (i > 0) out += ',';
            out += spec.scenarios[i];
        }
        out += '\n';
    }
    if (!spec.constructions.empty()) {
        out += "constructions=";
        for (std::size_t i = 0; i < spec.constructions.size(); ++i) {
            if (i > 0) out += ',';
            out += spec.constructions[i];
        }
        out += '\n';
    }
    if (spec.geometry != defaults.geometry) {
        out += "geometry=";
        for (std::size_t i = 0; i < spec.geometry.size(); ++i) {
            if (i > 0) out += ',';
            out += std::to_string(spec.geometry[i].first) + "x" +
                   std::to_string(spec.geometry[i].second);
        }
        out += '\n';
    }
    if (spec.sigma_noise_mhz != defaults.sigma_noise_mhz) {
        append_axis_doubles(out, "sigma_noise_mhz", spec.sigma_noise_mhz);
    }
    if (spec.ambient_c != defaults.ambient_c) {
        append_axis_doubles(out, "ambient_c", spec.ambient_c);
    }
    if (spec.majority_wins != defaults.majority_wins) {
        append_axis_ints(out, "majority_wins", spec.majority_wins);
    }
    if (spec.ecc != defaults.ecc) {
        out += "ecc=";
        for (std::size_t i = 0; i < spec.ecc.size(); ++i) {
            if (i > 0) out += ',';
            out += "bch(" + std::to_string(spec.ecc[i].first) + "," +
                   std::to_string(spec.ecc[i].second) + ")";
        }
        out += '\n';
    }
    if (spec.query_budget != defaults.query_budget) {
        append_axis_ints(out, "query_budget", spec.query_budget);
    }
    if (spec.defense != defaults.defense) {
        out += "defense=";
        for (std::size_t i = 0; i < spec.defense.size(); ++i) {
            if (i > 0) out += ',';
            out += spec.defense[i];
        }
        out += '\n';
    }
    if (spec.trials != defaults.trials) append_axis_ints(out, "trials", spec.trials);
    if (spec.master_seed != defaults.master_seed) {
        append_axis_ints(out, "master_seed", spec.master_seed);
    }
    return out;
}

std::uint64_t fnv1a64(std::string_view s) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (char c : s) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string spec_hash(const SweepSpec& spec) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(canonical_text(spec))));
    return buf;
}

} // namespace ropuf::xp
