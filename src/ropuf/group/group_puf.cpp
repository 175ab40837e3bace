#include "ropuf/group/group_puf.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "ropuf/helperdata/formats.hpp"

namespace ropuf::group {

GroupBasedPuf::GroupBasedPuf(const sim::RoArray& array, const GroupPufConfig& config)
    : array_(&array), config_(config), code_(config.ecc_m, config.ecc_t) {}

namespace {

int largest_group(const Partition& groups) {
    int largest = 0;
    for (int j = 0; j < groups.groups(); ++j) largest = std::max(largest, groups.size_of(j));
    return largest;
}

} // namespace

int GroupBasedPuf::kendall_bits_of(const Partition& groups) {
    int total = 0;
    for (int j = 0; j < groups.groups(); ++j) total += kendall_bits(groups.size_of(j));
    return total;
}

int GroupBasedPuf::key_bits_of(const Partition& groups) {
    int total = 0;
    for (int j = 0; j < groups.groups(); ++j) total += compact_bits(groups.size_of(j));
    return total;
}

GroupBasedPuf::Coded GroupBasedPuf::encode_groups(const Partition& groups,
                                                  std::span<const double> residuals) {
    Coded out;
    out.kendall.resize(static_cast<std::size_t>(kendall_bits_of(groups)));
    out.key.resize(static_cast<std::size_t>(key_bits_of(groups)));
    std::vector<int> scratch(static_cast<std::size_t>(largest_group(groups)));
    std::size_t kendall_at = 0;
    std::size_t key_at = 0;
    for (int j = 0; j < groups.groups(); ++j) {
        // Canonical labels: group members in ascending RO index.
        const std::span<const int> labels = groups.members(j);
        const int g = static_cast<int>(labels.size());
        // Frequency order: labels sorted by residual, descending.
        const std::span<int> order(scratch.data(), labels.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(), [&](int la, int lb) {
            const double va = residuals[static_cast<std::size_t>(labels[static_cast<std::size_t>(la)])];
            const double vb = residuals[static_cast<std::size_t>(labels[static_cast<std::size_t>(lb)])];
            if (va != vb) return va > vb;
            return la < lb;
        });
        const auto kb = static_cast<std::size_t>(kendall_bits(g));
        kendall_encode(order, std::span(out.kendall).subspan(kendall_at, kb));
        kendall_at += kb;
        const auto cb = static_cast<std::size_t>(compact_bits(g));
        compact_encode(order, std::span(out.key).subspan(key_at, cb));
        key_at += cb;
    }
    return out;
}

GroupBasedPuf::Enrollment GroupBasedPuf::enroll(rng::Xoshiro256pp& rng) const {
    const auto freqs = array_->enroll_frequencies(config_.condition, config_.enroll_samples, rng);
    const auto surface = distiller::fit(array_->geometry(), freqs, config_.distiller_degree);
    const auto resid = distiller::residuals(array_->geometry(), freqs, surface);

    Enrollment out;
    out.grouping = grouping(resid, config_.delta_f_th, config_.max_group_size);
    out.helper.beta = surface.beta();
    out.helper.group_of = out.grouping.group_of;

    const auto coded = encode_groups(*partition_from_assignment(out.grouping.group_of), resid);
    out.kendall_ref = coded.kendall;
    out.key = coded.key;
    out.helper.ecc = ecc::BlockEcc(code_).enroll(out.kendall_ref);
    return out;
}

bool GroupBasedPuf::helper_consistent(const GroupPufHelper& helper) const {
    if (static_cast<int>(helper.group_of.size()) != array_->count()) return false;
    std::vector<int> sizes;
    if (!group_sizes(helper.group_of, sizes)) return false;
    int total_kendall = 0;
    for (const int size : sizes) {
        if (size > config_.max_group_size) return false;
        total_kendall += kendall_bits(size);
    }
    if (helper.ecc.response_bits != total_kendall) return false;
    const ecc::BlockEcc block_ecc(code_);
    if (static_cast<int>(helper.ecc.parity.size()) != block_ecc.helper_bits(total_kendall)) {
        return false;
    }
    // Distillation accepts any polynomial degree the coefficients imply — the
    // naive device infers the degree from the coefficient count.
    return inferred_degree(helper) >= 0;
}

int GroupBasedPuf::inferred_degree(const GroupPufHelper& helper) {
    for (int d = 0; d <= 16; ++d) {
        if (distiller::coefficient_count(d) == static_cast<int>(helper.beta.size())) return d;
    }
    return -1;
}

GroupBasedPuf::Reconstruction GroupBasedPuf::reconstruct(const GroupPufHelper& helper,
                                                         const sim::Condition& condition,
                                                         rng::Xoshiro256pp& rng) const {
    if (!helper_consistent(helper)) return {};
    return reconstruct_measured(helper, condition, array_->measure_all(condition, rng));
}

GroupBasedPuf::Reconstruction GroupBasedPuf::reconstruct_measured(
    const GroupPufHelper& helper, const sim::Condition&, std::span<const double> freqs) const {
    if (!helper_consistent(helper)) return {};
    const Partition groups = *partition_from_assignment(helper.group_of);
    const distiller::PolySurface surface(inferred_degree(helper), helper.beta);
    const auto resid = distiller::residuals(array_->geometry(), freqs, surface);

    const auto noisy = encode_groups(groups, resid);
    const auto rec = ecc::BlockEcc(code_).reconstruct(noisy.kendall, helper.ecc);
    if (!rec.ok) return {};

    // Entropy packing of the corrected Kendall bits, group by group.
    Reconstruction out{true, bits::BitVec(static_cast<std::size_t>(key_bits_of(groups))),
                       rec.corrected};
    const auto largest = static_cast<std::size_t>(largest_group(groups));
    std::vector<int> scratch(2 * largest);
    const std::span<const std::uint8_t> corrected(rec.value);
    std::size_t kendall_at = 0;
    std::size_t key_at = 0;
    for (int j = 0; j < groups.groups(); ++j) {
        const int g = groups.size_of(j);
        const std::span<int> order(scratch.data(), static_cast<std::size_t>(g));
        const std::span<int> wins(scratch.data() + largest, static_cast<std::size_t>(g));
        const auto kb = static_cast<std::size_t>(kendall_bits(g));
        if (!kendall_decode_exact(corrected.subspan(kendall_at, kb), order, wins)) {
            return {}; // corrected bits are not a consistent order
        }
        kendall_at += kb;
        const auto cb = static_cast<std::size_t>(compact_bits(g));
        compact_encode(order, std::span(out.key).subspan(key_at, cb));
        key_at += cb;
    }
    return out;
}

helperdata::Nvm serialize(const GroupPufHelper& helper) {
    helperdata::BlobWriter w;
    helperdata::write_coefficients(w, helper.beta);
    helperdata::write_group_assignment(w, helper.group_of);
    w.put_u32(static_cast<std::uint32_t>(helper.ecc.response_bits));
    w.put_bits(helper.ecc.parity);
    return helperdata::Nvm(w.take());
}

GroupPufHelper parse_group_puf(const helperdata::Nvm& nvm) {
    auto r = nvm.reader();
    GroupPufHelper helper;
    helper.beta = helperdata::read_coefficients(r);
    helper.group_of = helperdata::read_group_assignment(r);
    helper.ecc.response_bits = static_cast<int>(r.get_u32());
    helper.ecc.parity = r.get_bits();
    return helper;
}

} // namespace ropuf::group
