// Declarative sweep specifications.
//
// A spec describes a parameter grid over registered attack scenarios — the
// experiment a bench/fig*.cpp binary used to hard-code, as data. The format
// is a dependency-free `key = value` text file (or the same keys as a JSON
// object), with list and range expansion on every axis:
//
//   # attack cost vs measurement noise (paper Fig. 5 regime)
//   name        = fig5_failure_pdf
//   scenarios   = seqpair/swap, seqpair/swap-sorted
//   sigma_noise_mhz = 0.05:0.35:0.05        # range start:stop:step, inclusive
//   geometry    = 16x8
//   trials      = 200
//   master_seed = 42
//
// Axes: scenarios/constructions (which experiments), geometry (CxR tokens),
// sigma_noise_mhz, ambient_c, majority_wins, ecc (bch(m,t) tokens),
// query_budget (alias `budget`; 0 = unlimited oracle queries), defense
// (countermeasure tokens from the ropuf::defense registry, e.g.
// `none, sanity, mac, lockout(8)`), trials, master_seed. A missing axis
// holds exactly its scenario-default sentinel, so every spec expands to the
// full cartesian product of its axes.
//
// Specs are content-addressed: canonical_text() renders the *expanded* axes
// in a fixed key order (so `0.5:1.5:0.5` and `0.5, 1.0, 1.5` are the same
// spec), and spec_hash() is the FNV-1a 64 of that text. Job IDs, result
// records and resume all key off this hash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ropuf::xp {

/// Parse/validation failure; carries the 1-based spec line when known
/// (0 for file-level and JSON-input errors).
class SpecError : public std::runtime_error {
public:
    SpecError(const std::string& what, int line = 0)
        : std::runtime_error(line > 0 ? "spec line " + std::to_string(line) + ": " + what
                                      : what),
          line_(line) {}
    int line() const { return line_; }

private:
    int line_;
};

/// A parsed sweep specification. Every axis is non-empty: parse_spec fills
/// untouched axes with the single scenario-default sentinel value.
struct SweepSpec {
    std::string name;

    bool all_scenarios = false;             ///< `scenarios = all`
    std::vector<std::string> scenarios;     ///< explicit registry names
    std::vector<std::string> constructions; ///< select every scenario of these kinds

    std::vector<std::pair<int, int>> geometry{{0, 0}}; ///< (cols, rows); 0x0 = default
    std::vector<double> sigma_noise_mhz{-1.0};         ///< < 0 = scenario default
    std::vector<double> ambient_c{25.0};
    std::vector<int> majority_wins{0};
    std::vector<std::pair<int, int>> ecc{{0, 0}};      ///< (m, t); 0 = default
    std::vector<int> query_budget{0};                  ///< oracle query budget; 0 = unlimited
    std::vector<std::string> defense{"none"};          ///< countermeasure tokens ("none",
                                                       ///< "sanity", "lockout(8)", ...)
    std::vector<int> trials{100};
    std::vector<std::uint64_t> master_seed{1};
};

/// The most values one axis may hold and the most grid points (jobs) one
/// spec may plan. Range sizes are computed before they expand, so a range
/// like `trials = 1:100000000:1` is a SpecError, not an allocation. The cap
/// also keeps every job index within the five digits of its job ID.
inline constexpr std::size_t kMaxGridPoints = 100000;

/// The number of grid points `spec` spans for `scenario_count` resolved
/// scenarios, saturated at kMaxGridPoints + 1.
std::size_t grid_points(const SweepSpec& spec, std::size_t scenario_count);

/// Parses spec text. Input starting with '{' is treated as a JSON object
/// with the same keys (values: scalars, axis strings, or arrays); anything
/// else as the line-based format. Throws SpecError on malformed ranges,
/// unknown keys, duplicate keys, empty axes, or an axis or grid larger
/// than kMaxGridPoints.
SweepSpec parse_spec(std::string_view text);

/// Reads and parses a spec file; throws SpecError when unreadable.
SweepSpec load_spec_file(const std::string& path);

/// Fixed-order rendering of the expanded spec; the hashing preimage.
std::string canonical_text(const SweepSpec& spec);

/// 16-hex-digit FNV-1a 64 content hash of canonical_text().
std::string spec_hash(const SweepSpec& spec);

/// FNV-1a 64-bit hash (exposed for tests and job-ID derivation).
std::uint64_t fnv1a64(std::string_view s);

// The `key = value` grammar every spec format shares (sweep specs here,
// fleet specs in fleet/spec): each keeps only its per-key dispatch.

/// One `key = value` assignment and its 1-based line.
struct SpecLine {
    std::string key;
    std::string value;
    int line = 0;
};

/// Strips `#` comments and surrounding whitespace, skips blank lines and
/// splits each line at its first '='. SpecError (with the line) on a line
/// without '=', an empty value or a repeated key.
std::vector<SpecLine> read_spec_lines(std::string_view text);

/// The whole text of a spec file; throws SpecError when unreadable.
std::string read_spec_file(const std::string& path);

// Scalar parsers of one trimmed token: SpecError (with the line) instead of
// clamping, wrapping or ignoring trailing junk.
std::uint64_t parse_u64(std::string_view token, int line); ///< digits, <= 2^64 - 1
/// An optionally negative integer in [lo, hi] (bounds within +-10^18).
long long parse_int(std::string_view token, long long lo, long long hi, int line);
/// A finite strtod number; `non_negative` also rejects negatives.
double parse_double(std::string_view token, int line, bool non_negative = false);
/// A `COLSxROWS` token, each side in [1, max_side].
std::pair<int, int> parse_geometry(std::string_view token, int max_side, int line);

} // namespace ropuf::xp
