// Declarative fleet specifications — a device *population* as data.
//
// Where an xp sweep spec describes a grid of attack experiments over one
// on-the-fly device per trial, a fleet spec describes a manufactured
// population: how many devices, how they are grouped into wafers, the
// per-device RO array geometry, the wafer-correlation strengths, and the
// enrollment / reconstruction parameters. The format is the same
// dependency-free `key = value` text the xp specs use:
//
//   # population smoke: 8 wafers of 64 dies
//   name            = fleet_smoke
//   devices         = 512
//   wafer_size      = 64          # dies per wafer
//   wafer_cols      = 8           # die-grid columns (wafer_size % wafer_cols == 0)
//   geometry        = 16x8        # per-device RO array
//   key_bits        = 48          # <= geometry count / 2 (disjoint pairs)
//   enroll_samples  = 9           # averaged scans at enrollment
//   majority_wins   = 5           # scans per reconstruction trial (odd)
//   trials          = 3           # reconstruction trials per device
//   sigma_noise_mhz = 0.05
//   base_seed       = 42
//
// Wafer-correlation axes (all in MHz, defaults chosen against the
// ProcessParams defaults; see population.hpp for the model):
//
//   wafer_grad_sigma_mhz   per-wafer spread of the shared within-die
//                          gradient tilt — the knob that correlates key
//                          bits across dies of one wafer
//   die_grad_sigma_mhz     per-die residual gradient spread
//   wafer_f_sigma_mhz      per-wafer common-mode frequency offset
//   die_f_sigma_mhz        per-die common-mode frequency offset
//
// Specs are content-addressed exactly like sweep specs: canonical_text()
// renders every field in a fixed order with defaults filled in, and
// fleet_spec_hash() is the FNV-1a 64 of that text. The enrollment store
// header, shard job IDs, result records and resume all key off this hash.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ropuf::fleet {

/// A parsed fleet specification. Defaults are smoke-test scale; `name` and
/// `devices` are required.
struct FleetSpec {
    std::string name;
    std::uint64_t devices = 0;       ///< population size (required, >= 1)
    std::uint32_t wafer_size = 64;   ///< dies per wafer
    std::uint32_t wafer_cols = 8;    ///< die-grid columns on the wafer
    int cols = 16;                   ///< per-device RO array columns
    int rows = 8;                    ///< per-device RO array rows
    int key_bits = 48;               ///< enrolled key width (<= cols*rows/2)
    int enroll_samples = 9;          ///< averaged scans at enrollment
    int majority_wins = 5;           ///< scans per reconstruction trial (odd)
    int trials = 3;                  ///< reconstruction trials per device
    double sigma_noise_mhz = 0.05;   ///< per-measurement noise
    double wafer_grad_sigma_mhz = 0.5;
    double die_grad_sigma_mhz = 0.1;
    double wafer_f_sigma_mhz = 2.0;
    double die_f_sigma_mhz = 0.5;
    std::uint64_t base_seed = 1;

    int ro_count() const { return cols * rows; }
    std::uint32_t wafers() const {
        return static_cast<std::uint32_t>((devices + wafer_size - 1) / wafer_size);
    }
};

/// Parses fleet-spec text with xp's spec line reader and scalar parsers.
/// Throws xp::SpecError on unknown/duplicate keys, malformed or
/// out-of-range values, or constraint violations (devices == 0, even
/// majority_wins, key_bits exceeding the disjoint-pair budget, wafer_size
/// not a multiple of wafer_cols, ...).
FleetSpec parse_fleet_spec(std::string_view text);

/// Reads and parses a spec file; throws xp::SpecError when unreadable.
FleetSpec load_fleet_spec_file(const std::string& path);

/// Fixed-order rendering with defaults filled in — the hashing preimage.
std::string canonical_text(const FleetSpec& spec);

/// 16-hex-digit FNV-1a 64 content hash of canonical_text().
std::string fleet_spec_hash(const FleetSpec& spec);

/// The same hash as a raw 64-bit value (the store header stamps it).
std::uint64_t fleet_spec_hash_u64(const FleetSpec& spec);

} // namespace ropuf::fleet
