#include "ropuf/defense/registry.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "ropuf/core/attack_engine.hpp"
#include "ropuf/hash/sha256.hpp"

namespace ropuf::defense {

namespace {

bool valid_name(std::string_view name) {
    if (name.empty()) return false;
    return std::all_of(name.begin(), name.end(), [](unsigned char c) {
        return std::islower(c) || std::isdigit(c) || c == '_' || c == '-';
    });
}

std::string trim(std::string_view s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return std::string(s.substr(b, e - b));
}

/// %g keeps integer-valued args integer-spelled ("8", not "8.000000"), so
/// canonical tokens stay stable and human-readable. Its six significant
/// digits are widened only when they would not round-trip through strtod,
/// so two distinct args never share a canonical token (or a spec hash).
std::string format_arg(double v) {
    char buf[32];
    for (int digits = 6; digits <= 17; ++digits) { // 17 always round-trips
        std::snprintf(buf, sizeof buf, "%.*g", digits, v);
        if (std::strtod(buf, nullptr) == v) break;
    }
    return buf;
}

/// The `sanity` predicate: a probe is admitted iff the construction's
/// structural validator reports no violation.
FilterOracle::Accept sanity_accept(const DefenseContext& ctx) {
    if (!ctx.validator) throw std::invalid_argument("defense: null helper validator");
    return [validator = ctx.validator](const helperdata::Nvm& nvm) {
        return validator(nvm).ok;
    };
}

const Defense& resolve(std::string_view name, const DefenseRegistry& registry) {
    const Defense* defense = registry.find(name);
    if (defense == nullptr) {
        throw std::invalid_argument(
            core::unknown_name_message("defense", name, registry.names()));
    }
    return *defense;
}

/// Validates arity and fills omitted args from the defaults.
std::vector<double> resolve_args(const Defense& defense, const DefenseToken& token) {
    if (token.args.size() > defense.max_args) {
        throw std::invalid_argument("defense '" + defense.name + "' takes at most " +
                                    std::to_string(defense.max_args) + " argument(s), got " +
                                    std::to_string(token.args.size()));
    }
    std::vector<double> args = token.args;
    for (std::size_t i = args.size(); i < defense.defaults.size(); ++i) {
        args.push_back(defense.defaults[i]);
    }
    return args;
}

int positive_int_arg(const char* defense_name, double v, const char* what) {
    if (!(v >= 1.0) || v != std::floor(v) || v > 1e9) {
        throw std::invalid_argument(std::string("defense '") + defense_name + "': " + what +
                                    " must be a positive integer, got " + format_arg(v));
    }
    return static_cast<int>(v);
}

} // namespace

DefenseRegistry& DefenseRegistry::instance() {
    static DefenseRegistry registry;
    return registry;
}

void DefenseRegistry::add(Defense defense) {
    if (find(defense.name) != nullptr) {
        throw std::invalid_argument("defense '" + defense.name +
                                    "' is already registered (use add_or_replace)");
    }
    defenses_.push_back(std::move(defense));
}

void DefenseRegistry::add_or_replace(Defense defense) {
    for (auto& existing : defenses_) {
        if (existing.name == defense.name) {
            existing = std::move(defense);
            return;
        }
    }
    defenses_.push_back(std::move(defense));
}

const Defense* DefenseRegistry::find(std::string_view name) const {
    for (const auto& defense : defenses_) {
        if (defense.name == name) return &defense;
    }
    return nullptr;
}

std::vector<std::string> DefenseRegistry::names() const {
    std::vector<std::string> out;
    out.reserve(defenses_.size());
    for (const auto& defense : defenses_) out.push_back(defense.name);
    return out;
}

void register_builtin_defenses(DefenseRegistry& registry) {
    registry.add_or_replace(
        {"none", "undefended device (the paper's attacked constructions as-is)", "Sec. VI",
         0, {}, {},
         [](core::AnyOracle, const DefenseContext&,
            std::span<const double>) -> std::shared_ptr<DefenseOracle> { return nullptr; }});

    registry.add_or_replace(
        {"sanity", "per-construction structural helper-data validation", "Sec. VII-C",
         0, {}, {},
         [](core::AnyOracle inner, const DefenseContext& ctx, std::span<const double>) {
             return std::make_shared<FilterOracle>(std::move(inner), sanity_accept(ctx));
         }});

    registry.add_or_replace(
        {"crc", "canonical-form re-encode check (store(parse(x)) == x)", "Sec. VII-C",
         0, {}, {},
         [](core::AnyOracle inner, const DefenseContext& ctx, std::span<const double>) {
             return std::make_shared<FilterOracle>(std::move(inner), ctx.canonical);
         }});

    registry.add_or_replace(
        {"mac", "fused hash/MAC binding of the enrolled helper blob",
         "Fischer; Boyen et al. [1]", 0, {}, {},
         [](core::AnyOracle inner, const DefenseContext& ctx, std::span<const double>) {
             // The device holds a fused digest of the enrolled blob (an HMAC
             // tag under a device-local secret): only the honest blob passes.
             return std::make_shared<FilterOracle>(
                 std::move(inner), [digest = hash::Sha256::hash(ctx.enrolled.bytes())](
                                       const helperdata::Nvm& nvm) {
                     return hash::Sha256::hash(nvm.bytes()) == digest;
                 });
         }});

    registry.add_or_replace(
        {"lockout", "brick the device after K observed regeneration failures",
         "Maringer & Hiller", 1, {32.0},
         [](std::span<const double> args) { positive_int_arg("lockout", args[0], "K"); },
         [](core::AnyOracle inner, const DefenseContext&, std::span<const double> args) {
             const int k = positive_int_arg("lockout", args[0], "K");
             return std::static_pointer_cast<DefenseOracle>(
                 std::make_shared<LockoutOracle>(std::move(inner), k));
         }});

    registry.add_or_replace(
        {"ratelimit", "serve at most N lifetime queries and B probes per burst",
         "device hardening", 2, {256.0, 64.0},
         [](std::span<const double> args) {
             positive_int_arg("ratelimit", args[0], "N");
             positive_int_arg("ratelimit", args[1], "B");
         },
         [](core::AnyOracle inner, const DefenseContext&, std::span<const double> args) {
             const int n = positive_int_arg("ratelimit", args[0], "N");
             const int b = positive_int_arg("ratelimit", args[1], "B");
             return std::static_pointer_cast<DefenseOracle>(
                 std::make_shared<RateLimitOracle>(std::move(inner), n, b));
         }});

    registry.add_or_replace(
        {"noisyrefusal", "structural validation answering refusals from a p-coin",
         "Sec. VII + statistical masking", 1, {0.5},
         [](std::span<const double> args) {
             if (args[0] < 0.0 || args[0] > 1.0) {
                 throw std::invalid_argument(
                     "defense 'noisyrefusal': p must be within [0, 1], got " +
                     format_arg(args[0]));
             }
         },
         [](core::AnyOracle inner, const DefenseContext& ctx, std::span<const double> args) {
             return std::make_shared<FilterOracle>(std::move(inner), sanity_accept(ctx),
                                                   args[0], ctx.seed);
         }});
}

DefenseRegistry& default_registry() {
    auto& registry = DefenseRegistry::instance();
    static const bool registered = [&registry] {
        register_builtin_defenses(registry);
        return true;
    }();
    (void)registered;
    return registry;
}

DefenseToken parse_defense_token(std::string_view token) {
    const std::string text = trim(token);
    DefenseToken out;
    const std::size_t open = text.find('(');
    if (open == std::string::npos) {
        out.name = text;
    } else {
        if (text.empty() || text.back() != ')') {
            throw std::invalid_argument("defense token '" + text +
                                        "' has unbalanced parentheses");
        }
        out.name = trim(std::string_view(text).substr(0, open));
        const std::string inside =
            trim(std::string_view(text).substr(open + 1, text.size() - open - 2));
        if (!inside.empty()) {
            std::size_t start = 0;
            for (std::size_t i = 0; i <= inside.size(); ++i) {
                if (i < inside.size() && inside[i] != ',') continue;
                const std::string arg = trim(std::string_view(inside).substr(start, i - start));
                start = i + 1;
                char* end = nullptr;
                const double v = std::strtod(arg.c_str(), &end);
                if (arg.empty() || end == nullptr || *end != '\0' || !std::isfinite(v)) {
                    throw std::invalid_argument("defense token '" + text +
                                                "': argument '" + arg + "' is not a number");
                }
                out.args.push_back(v);
            }
        }
    }
    if (!valid_name(out.name)) {
        throw std::invalid_argument("defense token '" + text +
                                    "': name must be [a-z0-9_-]+");
    }
    return out;
}

std::string format_token(const DefenseToken& token) {
    std::string out = token.name;
    if (!token.args.empty()) {
        out += '(';
        for (std::size_t i = 0; i < token.args.size(); ++i) {
            if (i > 0) out += ',';
            out += format_arg(token.args[i]);
        }
        out += ')';
    }
    return out;
}

std::string canonical_token(std::string_view token, const DefenseRegistry& registry) {
    const std::string text = trim(token);
    if (text.empty()) return "none";
    DefenseToken parsed = parse_defense_token(text);
    const Defense& defense = resolve(parsed.name, registry);
    parsed.args = resolve_args(defense, parsed);
    if (defense.validate) defense.validate(parsed.args);
    return format_token(parsed);
}

AppliedDefense apply_defense(std::string_view token, core::AnyOracle inner,
                             const DefenseContext& ctx, const DefenseRegistry& registry) {
    // One parse/resolve/validate pass — this runs once per campaign trial,
    // so the canonical spelling is formatted from the already-resolved
    // token instead of round-tripping through canonical_token.
    const std::string text = trim(token);
    DefenseToken parsed = parse_defense_token(text.empty() ? "none" : text);
    const Defense& defense = resolve(parsed.name, registry);
    parsed.args = resolve_args(defense, parsed);
    if (defense.validate) defense.validate(parsed.args);

    AppliedDefense applied;
    applied.token = format_token(parsed);
    applied.handle = defense.wrap(inner, ctx, parsed.args); // copy: AnyOracle is shared
    // Null handle ("none"): hand the caller back its own stack unchanged.
    applied.oracle = applied.handle ? core::AnyOracle(applied.handle) : std::move(inner);
    return applied;
}

AppliedDefense apply_defense(std::string_view token, core::AnyOracle inner,
                             const DefenseContext& ctx) {
    return apply_defense(token, std::move(inner), ctx, default_registry());
}

} // namespace ropuf::defense
