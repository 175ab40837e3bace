// Helper-data sanity checks — the "best practices" of paper Section VII.
//
// The attacked constructions perform no validation of their helper data; the
// paper argues a precise parsing/sanity specification is a minimum
// requirement. These are the structural checks a careful device could run
// (index ranges, RO re-use across pairs, strict group partitions, helper
// length consistency); DeviceTraits::sanity composes them per construction
// and the `sanity` defense runs them per probe. The cryptographic fix the
// paper cites (Boyen et al. [1]) is the registry's `mac` defense.
#pragma once

#include <string>
#include <vector>

#include "ropuf/helperdata/formats.hpp"

namespace ropuf::helperdata {

/// Result of a structural validation pass.
struct SanityReport {
    bool ok = true;
    std::vector<std::string> violations;

    void fail(std::string reason) {
        ok = false;
        violations.push_back(std::move(reason));
    }
};

/// Checks a pair list: indices within [0, ro_count), no self-pairs, and —
/// when `forbid_reuse` — no RO shared across pairs ("the re-use of ROs across
/// pairs should also be prohibited somehow", Section VII-C).
SanityReport check_pair_list(const std::vector<IndexPair>& pairs, int ro_count,
                             bool forbid_reuse);

/// Checks a group assignment: every RO in exactly one group, group ids dense
/// starting at 1 (Algorithm 2's convention), and group sizes >= 1.
SanityReport check_group_assignment(const std::vector<int>& group_of, int ro_count);

/// Checks distiller coefficients against a plausibility bound: an honest fit
/// of a frequency map can never have |beta| above a few times the systematic
/// magnitude. Flagging absurd coefficients blocks the steep-surface
/// injections of Section VI-C/D (at the price of a device-specific bound).
SanityReport check_coefficients(const std::vector<double>& beta, double magnitude_bound);

} // namespace ropuf::helperdata
