#include "ropuf/fleet/spec.hpp"

#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>

#include "ropuf/xp/sweep_spec.hpp"

namespace ropuf::fleet {

using xp::SpecError;

namespace {

void append_double(std::string& out, std::string_view key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += key;
    out += '=';
    out += buf;
    out += '\n';
}

void validate(const FleetSpec& spec) {
    if (spec.name.empty()) throw SpecError("fleet spec requires a name");
    if (spec.devices == 0) throw SpecError("fleet spec requires devices >= 1");
    if (spec.wafer_size == 0) throw SpecError("wafer_size must be >= 1");
    if (spec.wafer_cols == 0 || spec.wafer_size % spec.wafer_cols != 0) {
        throw SpecError("wafer_size must be a positive multiple of wafer_cols");
    }
    if (spec.ro_count() > 65535) throw SpecError("geometry must fit u16 RO indices");
    if (spec.key_bits <= 0 || spec.key_bits > spec.ro_count() / 2) {
        throw SpecError("key_bits must be in [1, geometry count / 2] — each bit "
                        "consumes one disjoint RO pair");
    }
    if (spec.enroll_samples <= 0) throw SpecError("enroll_samples must be >= 1");
    if (spec.majority_wins <= 0 || spec.majority_wins % 2 == 0) {
        throw SpecError("majority_wins must be odd and >= 1");
    }
    if (spec.trials <= 0) throw SpecError("trials must be >= 1");
    if (!(spec.sigma_noise_mhz >= 0.0)) throw SpecError("sigma_noise_mhz must be >= 0");
}

} // namespace

FleetSpec parse_fleet_spec(std::string_view text) {
    // Per-key dispatch only: the line grammar and the scalar parsers are
    // xp's (xp/sweep_spec.hpp), shared with sweep specs.
    FleetSpec spec;
    for (const xp::SpecLine& entry : xp::read_spec_lines(text)) {
        const std::string& key = entry.key;
        const std::string_view value = entry.value;
        const int line = entry.line;
        const auto count = [&] { return static_cast<int>(xp::parse_int(value, 0, 1 << 30, line)); };
        const auto u32 = [&] {
            return static_cast<std::uint32_t>(xp::parse_int(value, 0, UINT32_MAX, line));
        };
        const auto sigma = [&] { return xp::parse_double(value, line, /*non_negative=*/true); };
        if (key == "name") {
            spec.name = entry.value;
        } else if (key == "devices") {
            spec.devices = xp::parse_u64(value, line);
        } else if (key == "wafer_size") {
            spec.wafer_size = u32();
        } else if (key == "wafer_cols") {
            spec.wafer_cols = u32();
        } else if (key == "geometry") {
            // Sides up to 2^15 keep cols * rows inside int; validate() then
            // holds the product to u16 RO indices.
            std::tie(spec.cols, spec.rows) = xp::parse_geometry(value, 1 << 15, line);
        } else if (key == "key_bits") {
            spec.key_bits = count();
        } else if (key == "enroll_samples") {
            spec.enroll_samples = count();
        } else if (key == "majority_wins") {
            spec.majority_wins = count();
        } else if (key == "trials") {
            spec.trials = count();
        } else if (key == "sigma_noise_mhz") {
            spec.sigma_noise_mhz = sigma();
        } else if (key == "wafer_grad_sigma_mhz") {
            spec.wafer_grad_sigma_mhz = sigma();
        } else if (key == "die_grad_sigma_mhz") {
            spec.die_grad_sigma_mhz = sigma();
        } else if (key == "wafer_f_sigma_mhz") {
            spec.wafer_f_sigma_mhz = sigma();
        } else if (key == "die_f_sigma_mhz") {
            spec.die_f_sigma_mhz = sigma();
        } else if (key == "base_seed") {
            spec.base_seed = xp::parse_u64(value, line);
        } else {
            throw SpecError("unknown fleet spec key: " + key, line);
        }
    }
    validate(spec);
    return spec;
}

FleetSpec load_fleet_spec_file(const std::string& path) {
    return parse_fleet_spec(xp::read_spec_file(path));
}

std::string canonical_text(const FleetSpec& spec) {
    // Fixed key order with every field spelled out (no default elision:
    // the defaults here are tuning knobs, not sentinels, and a future
    // default change must not silently re-address existing stores).
    std::string out;
    out += "name=" + spec.name + '\n';
    out += "devices=" + std::to_string(spec.devices) + '\n';
    out += "wafer_size=" + std::to_string(spec.wafer_size) + '\n';
    out += "wafer_cols=" + std::to_string(spec.wafer_cols) + '\n';
    out += "geometry=" + std::to_string(spec.cols) + "x" + std::to_string(spec.rows) + '\n';
    out += "key_bits=" + std::to_string(spec.key_bits) + '\n';
    out += "enroll_samples=" + std::to_string(spec.enroll_samples) + '\n';
    out += "majority_wins=" + std::to_string(spec.majority_wins) + '\n';
    out += "trials=" + std::to_string(spec.trials) + '\n';
    append_double(out, "sigma_noise_mhz", spec.sigma_noise_mhz);
    append_double(out, "wafer_grad_sigma_mhz", spec.wafer_grad_sigma_mhz);
    append_double(out, "die_grad_sigma_mhz", spec.die_grad_sigma_mhz);
    append_double(out, "wafer_f_sigma_mhz", spec.wafer_f_sigma_mhz);
    append_double(out, "die_f_sigma_mhz", spec.die_f_sigma_mhz);
    out += "base_seed=" + std::to_string(spec.base_seed) + '\n';
    return out;
}

std::uint64_t fleet_spec_hash_u64(const FleetSpec& spec) {
    return xp::fnv1a64(canonical_text(spec));
}

std::string fleet_spec_hash(const FleetSpec& spec) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(fleet_spec_hash_u64(spec)));
    return buf;
}

} // namespace ropuf::fleet
