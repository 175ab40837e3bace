// Bitwise equivalence of the per-probe regeneration path against reference
// copies of its straightforward implementations: the bit-serial BCH
// encoder, the vector Berlekamp–Massey decoder with a polynomial-evaluating
// Chien search, the slice-and-insert block splitter, the per-RO std::pow
// distiller and the vector-of-vectors group coding. The fast code must
// agree on every output bit, decoder failures and miscorrections beyond t
// included; cases come from tests/pt_util.hpp and shrink on failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "pt_util.hpp"
#include "ropuf/distiller/regression.hpp"
#include "ropuf/ecc/bch.hpp"
#include "ropuf/ecc/block_ecc.hpp"
#include "ropuf/group/group_puf.hpp"

namespace {

namespace bits = ropuf::bits;
namespace distiller = ropuf::distiller;
namespace group = ropuf::group;
using ropuf::ecc::BchCode;
using ropuf::ecc::BlockEcc;
using ropuf::ecc::BlockEccHelper;

// ---------------------------------------------------------------------------
// Reference implementations
// ---------------------------------------------------------------------------
namespace ref {

bits::BitVec parity(const BchCode& code, const bits::BitVec& message) {
    const int p = code.parity_bits();
    const auto& gen = code.generator();
    bits::BitVec rem(static_cast<std::size_t>(p), 0);
    for (int i = 0; i < code.k(); ++i) {
        const std::uint8_t feedback =
            static_cast<std::uint8_t>(rem[0] ^ message[static_cast<std::size_t>(i)]);
        for (int j = 0; j < p - 1; ++j) {
            rem[static_cast<std::size_t>(j)] = static_cast<std::uint8_t>(
                rem[static_cast<std::size_t>(j + 1)] ^
                (feedback & gen[static_cast<std::size_t>(p - 1 - j)]));
        }
        rem[static_cast<std::size_t>(p - 1)] = static_cast<std::uint8_t>(feedback & gen[0]);
    }
    return rem;
}

/// S_j = r(alpha^j) with bit i the coefficient of x^(n-1-i), j = 1..2t.
std::vector<int> syndromes(const BchCode& code, const bits::BitVec& word) {
    const auto& f = code.field();
    const int n = code.n();
    std::vector<int> s(static_cast<std::size_t>(2 * code.t()), 0);
    for (int j = 1; j <= 2 * code.t(); ++j) {
        int acc = 0;
        for (int i = 0; i < n; ++i) {
            if (word[static_cast<std::size_t>(i)]) acc ^= f.alpha_pow(j * (n - 1 - i));
        }
        s[static_cast<std::size_t>(j - 1)] = acc;
    }
    return s;
}

bool is_codeword(const BchCode& code, const bits::BitVec& word) {
    const auto s = syndromes(code, word);
    return std::all_of(s.begin(), s.end(), [](int v) { return v == 0; });
}

BchCode::DecodeResult decode(const BchCode& code, const bits::BitVec& received) {
    const auto& f = code.field();
    const int n = code.n();
    const int t = code.t();
    const auto s = syndromes(code, received);
    if (std::all_of(s.begin(), s.end(), [](int v) { return v == 0; })) {
        return {true, received, 0};
    }
    std::vector<int> sigma{1};
    std::vector<int> prev{1};
    int l = 0;
    int shift = 1;
    int prev_discrepancy = 1;
    for (int r = 0; r < 2 * t; ++r) {
        int d = s[static_cast<std::size_t>(r)];
        for (int i = 1; i <= l && i <= r; ++i) {
            if (static_cast<std::size_t>(i) < sigma.size()) {
                d ^= f.mul(sigma[static_cast<std::size_t>(i)], s[static_cast<std::size_t>(r - i)]);
            }
        }
        if (d == 0) {
            ++shift;
            continue;
        }
        std::vector<int> next = sigma;
        const int scale = f.div(d, prev_discrepancy);
        if (next.size() < prev.size() + static_cast<std::size_t>(shift)) {
            next.resize(prev.size() + static_cast<std::size_t>(shift), 0);
        }
        for (std::size_t i = 0; i < prev.size(); ++i) {
            next[i + static_cast<std::size_t>(shift)] ^= f.mul(scale, prev[i]);
        }
        if (2 * l <= r) {
            prev = sigma;
            prev_discrepancy = d;
            l = r + 1 - l;
            shift = 1;
        } else {
            ++shift;
        }
        sigma = std::move(next);
    }
    while (sigma.size() > 1 && sigma.back() == 0) sigma.pop_back();
    const int degree = static_cast<int>(sigma.size()) - 1;
    if (degree > t || degree != l) return {false, received, 0};
    bits::BitVec corrected = received;
    int found = 0;
    for (int e = 0; e < n; ++e) {
        if (f.eval_poly(sigma, f.alpha_pow((n - e) % n)) == 0) {
            corrected[static_cast<std::size_t>(n - 1 - e)] ^= 1u;
            ++found;
        }
    }
    if (found != degree || !is_codeword(code, corrected)) return {false, received, 0};
    return {true, corrected, found};
}

bits::BitVec block_enroll(const BchCode& code, const bits::BitVec& reference) {
    const BlockEcc layout(code);
    const int total = static_cast<int>(reference.size());
    const int k = code.k();
    bits::BitVec parity_bits;
    for (int b = 0; b < layout.block_count(total); ++b) {
        const int len = layout.block_data_bits(total, b);
        bits::BitVec message = bits::zeros(static_cast<std::size_t>(k - len));
        const auto data = bits::slice(reference, static_cast<std::size_t>(b * k),
                                      static_cast<std::size_t>(len));
        message.insert(message.end(), data.begin(), data.end());
        const auto par = parity(code, message);
        parity_bits.insert(parity_bits.end(), par.begin(), par.end());
    }
    return parity_bits;
}

BlockEcc::Result block_reconstruct(const BchCode& code, const bits::BitVec& noisy,
                                   const BlockEccHelper& helper) {
    const BlockEcc layout(code);
    const int total = helper.response_bits;
    const int k = code.k();
    const int p = code.parity_bits();
    BlockEcc::Result out;
    out.ok = true;
    for (int b = 0; b < layout.block_count(total); ++b) {
        const int len = layout.block_data_bits(total, b);
        bits::BitVec word = bits::zeros(static_cast<std::size_t>(k - len));
        const auto data = bits::slice(noisy, static_cast<std::size_t>(b * k),
                                      static_cast<std::size_t>(len));
        word.insert(word.end(), data.begin(), data.end());
        const auto par = bits::slice(helper.parity, static_cast<std::size_t>(b * p),
                                     static_cast<std::size_t>(p));
        word.insert(word.end(), par.begin(), par.end());
        const auto result = decode(code, word);
        bool virtual_flip = false;
        for (int i = 0; i < k - len; ++i) {
            if (result.codeword[static_cast<std::size_t>(i)]) virtual_flip = true;
        }
        if (!result.ok || virtual_flip) {
            out.ok = false;
            ++out.failed_blocks;
            out.value.insert(out.value.end(), data.begin(), data.end());
            continue;
        }
        out.corrected += result.corrected;
        const auto fixed = bits::slice(result.codeword, static_cast<std::size_t>(k - len),
                                       static_cast<std::size_t>(len));
        out.value.insert(out.value.end(), fixed.begin(), fixed.end());
    }
    return out;
}

/// The surface at one RO with two std::pow calls per term.
double surface_at(const std::vector<double>& beta, int degree, double x, double y) {
    double acc = 0.0;
    for (int i = 0; i <= degree; ++i) {
        for (int j = 0; j <= i; ++j) {
            acc += beta[static_cast<std::size_t>(distiller::coefficient_index(i, j))] *
                   std::pow(x, i - j) * std::pow(y, j);
        }
    }
    return acc;
}

std::optional<std::vector<std::vector<int>>> members(const std::vector<int>& group_of) {
    int max_group = 0;
    for (const int g : group_of) {
        if (g < 1) return std::nullopt;
        max_group = std::max(max_group, g);
    }
    std::vector<std::vector<int>> out(static_cast<std::size_t>(max_group));
    for (std::size_t i = 0; i < group_of.size(); ++i) {
        out[static_cast<std::size_t>(group_of[i] - 1)].push_back(static_cast<int>(i));
    }
    for (const auto& m : out) {
        if (m.empty()) return std::nullopt;
    }
    return out;
}

bits::BitVec kendall_encode(const group::Order& order) {
    const int g = static_cast<int>(order.size());
    std::vector<int> rank_of(static_cast<std::size_t>(g));
    for (std::size_t r = 0; r < order.size(); ++r) {
        rank_of[static_cast<std::size_t>(order[r])] = static_cast<int>(r);
    }
    bits::BitVec code;
    for (std::size_t i = 0; i < order.size(); ++i) {
        for (std::size_t j = i + 1; j < order.size(); ++j) {
            code.push_back(rank_of[j] < rank_of[i] ? 1 : 0);
        }
    }
    return code;
}

std::optional<group::Order> kendall_decode_exact(const bits::BitVec& code, int g) {
    std::vector<int> wins(static_cast<std::size_t>(g), 0);
    std::size_t bit = 0;
    for (int i = 0; i < g; ++i) {
        for (int j = i + 1; j < g; ++j) ++wins[static_cast<std::size_t>(code[bit++] ? j : i)];
    }
    group::Order order(static_cast<std::size_t>(g), -1);
    for (int label = 0; label < g; ++label) {
        const int rank = g - 1 - wins[static_cast<std::size_t>(label)];
        if (order[static_cast<std::size_t>(rank)] != -1) return std::nullopt;
        order[static_cast<std::size_t>(rank)] = label;
    }
    if (kendall_encode(order) != code) return std::nullopt;
    return order;
}

bits::BitVec compact_encode(const group::Order& order) {
    const int g = static_cast<int>(order.size());
    std::uint64_t rank = 0;
    for (int r = 0; r < g; ++r) {
        int smaller = 0;
        for (int s = r + 1; s < g; ++s) {
            smaller += order[static_cast<std::size_t>(s)] < order[static_cast<std::size_t>(r)];
        }
        rank += static_cast<std::uint64_t>(smaller) * group::factorial(g - 1 - r);
    }
    return bits::from_u64(rank, static_cast<std::size_t>(group::compact_bits(g)));
}

int inferred_degree(const group::GroupPufHelper& helper) {
    for (int d = 0; d <= 16; ++d) {
        if (distiller::coefficient_count(d) == static_cast<int>(helper.beta.size())) return d;
    }
    return -1;
}

bool helper_consistent(const group::GroupBasedPuf& puf, const group::GroupPufHelper& helper) {
    if (static_cast<int>(helper.group_of.size()) != puf.array().count()) return false;
    const auto m = members(helper.group_of);
    if (!m) return false;
    int total_kendall = 0;
    for (const auto& grp : *m) {
        if (static_cast<int>(grp.size()) > puf.config().max_group_size) return false;
        total_kendall += group::kendall_bits(static_cast<int>(grp.size()));
    }
    if (helper.ecc.response_bits != total_kendall) return false;
    if (static_cast<int>(helper.ecc.parity.size()) !=
        BlockEcc(puf.code()).helper_bits(total_kendall)) {
        return false;
    }
    return inferred_degree(helper) >= 0;
}

group::GroupBasedPuf::Reconstruction reconstruct(const group::GroupBasedPuf& puf,
                                                 const group::GroupPufHelper& helper,
                                                 const std::vector<double>& freqs) {
    if (!helper_consistent(puf, helper)) return {};
    const auto groups = *members(helper.group_of);
    const auto& geom = puf.array().geometry();
    const int degree = inferred_degree(helper);
    std::vector<double> resid(freqs.size());
    for (int idx = 0; idx < geom.count(); ++idx) {
        resid[static_cast<std::size_t>(idx)] =
            freqs[static_cast<std::size_t>(idx)] -
            surface_at(helper.beta, degree, geom.x_of(idx), geom.y_of(idx));
    }
    bits::BitVec kendall;
    for (const auto& labels : groups) {
        group::Order order(labels.size());
        for (std::size_t l = 0; l < order.size(); ++l) order[l] = static_cast<int>(l);
        std::sort(order.begin(), order.end(), [&](int la, int lb) {
            const double va = resid[static_cast<std::size_t>(labels[static_cast<std::size_t>(la)])];
            const double vb = resid[static_cast<std::size_t>(labels[static_cast<std::size_t>(lb)])];
            if (va != vb) return va > vb;
            return la < lb;
        });
        const auto code = kendall_encode(order);
        kendall.insert(kendall.end(), code.begin(), code.end());
    }
    const auto rec = block_reconstruct(puf.code(), kendall, helper.ecc);
    if (!rec.ok) return {};
    bits::BitVec key;
    std::size_t cursor = 0;
    for (const auto& labels : groups) {
        const int g = static_cast<int>(labels.size());
        const auto kb = static_cast<std::size_t>(group::kendall_bits(g));
        const auto order = kendall_decode_exact(bits::slice(rec.value, cursor, kb), g);
        cursor += kb;
        if (!order) return {};
        const auto packed = compact_encode(*order);
        key.insert(key.end(), packed.begin(), packed.end());
    }
    return {true, key, rec.corrected};
}

} // namespace ref

// ---------------------------------------------------------------------------
// BCH and BlockEcc
// ---------------------------------------------------------------------------

/// A message plus exactly `weight` distinct error positions in an n-bit word.
pt::CodewordCase case_with_weight(pt::Rng& rng, int k, int n, int weight) {
    pt::CodewordCase cw;
    cw.message = bits::random_bits(static_cast<std::size_t>(k), rng);
    while (static_cast<int>(cw.errors.size()) < weight) {
        const auto pos = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
        if (std::find(cw.errors.begin(), cw.errors.end(), pos) == cw.errors.end()) {
            cw.errors.push_back(pos);
        }
    }
    return cw;
}

std::string compare_decode(const BchCode::DecodeResult& got, const BchCode::DecodeResult& want) {
    if (got.ok != want.ok) return "ok differs";
    if (got.corrected != want.corrected) return "corrected differs";
    if (got.codeword != want.codeword) return "codeword differs";
    return "";
}

TEST(RegenEquivalence, BchParityAndDecodeMatchReference) {
    int codes = 0;
    int failures_seen = 0;
    for (const int m : {3, 4, 5, 6, 8, 13}) {
        for (int t = 1; t <= 5; ++t) {
            std::optional<BchCode> built;
            try {
                built.emplace(m, t);
            } catch (const std::invalid_argument&) {
                continue; // t too large for this field: no message bits left
            }
            const BchCode& code = *built;
            ++codes;
            const int cases = m >= 13 ? 4 : 25;
            for (int weight = 0; weight <= t + 3 && weight <= code.n(); ++weight) {
                const std::string label = "bch(" + std::to_string(m) + "," + std::to_string(t) +
                                          ") weight " + std::to_string(weight);
                const auto result = pt::check<pt::CodewordCase>(
                    label, 0x5eed00u + static_cast<unsigned>(m * 100 + t * 10 + weight), cases,
                    [&](pt::Rng& rng) { return case_with_weight(rng, code.k(), code.n(), weight); },
                    pt::shrink_codeword_case,
                    [&](const pt::CodewordCase& cw) -> std::string {
                        const auto par = code.parity(cw.message);
                        if (par != ref::parity(code, cw.message)) return "parity differs";
                        auto received = bits::concat(cw.message, par);
                        for (const std::size_t pos : cw.errors) bits::flip(received, pos);
                        const auto got = code.decode(received);
                        failures_seen += got.ok ? 0 : 1;
                        return compare_decode(got, ref::decode(code, received));
                    },
                    pt::show_codeword_case);
                EXPECT_FALSE(result.failed) << result.summary();
            }
        }
    }
    EXPECT_GE(codes, 25);        // every (m, t) except BCH(3, t >= 4)
    EXPECT_GT(failures_seen, 0); // the beyond-t weights reach the failure path
}

TEST(RegenEquivalence, BlockEnrollAndReconstructMatchReferenceOnShortenedBlocks) {
    // Response lengths that leave a short final block, so the virtual zero
    // prefix exists and miscorrections into it must be flagged.
    for (const int t : {1, 3, 5}) {
        const BchCode code(6, t);
        const BlockEcc block_ecc(code);
        const auto result = pt::check<pt::CodewordCase>(
            "block ecc t=" + std::to_string(t), 0xb10cu + static_cast<unsigned>(t), 300,
            [&](pt::Rng& rng) {
                const int total = rng.uniform_int(1, 3 * code.k());
                pt::CodewordCase cw;
                cw.message = bits::random_bits(static_cast<std::size_t>(total), rng);
                const int noisy_len = total + block_ecc.helper_bits(total);
                const int weight = rng.uniform_int(0, std::min(noisy_len, 2 * (t + 3)));
                while (static_cast<int>(cw.errors.size()) < weight) {
                    const auto pos = static_cast<std::size_t>(rng.uniform_int(0, noisy_len - 1));
                    if (std::find(cw.errors.begin(), cw.errors.end(), pos) == cw.errors.end()) {
                        cw.errors.push_back(pos);
                    }
                }
                return cw;
            },
            pt::shrink_codeword_case,
            [&](const pt::CodewordCase& cw) -> std::string {
                // Errors index the response bits, then the parity bits.
                BlockEccHelper helper = block_ecc.enroll(cw.message);
                if (helper.parity != ref::block_enroll(code, cw.message)) {
                    return "enrolled parity differs";
                }
                bits::BitVec noisy = cw.message;
                for (const std::size_t pos : cw.errors) {
                    if (pos < noisy.size()) {
                        bits::flip(noisy, pos);
                    } else {
                        bits::flip(helper.parity, pos - noisy.size());
                    }
                }
                const auto got = block_ecc.reconstruct(noisy, helper);
                const auto want = ref::block_reconstruct(code, noisy, helper);
                if (got.ok != want.ok) return "ok differs";
                if (got.value != want.value) return "value differs";
                if (got.corrected != want.corrected) return "corrected differs";
                if (got.failed_blocks != want.failed_blocks) return "failed_blocks differs";
                return "";
            },
            pt::show_codeword_case);
        EXPECT_FALSE(result.failed) << result.summary();
    }
}

// ---------------------------------------------------------------------------
// Distiller residuals
// ---------------------------------------------------------------------------

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(ResidualExactness, PowerTablesMatchPerRoPowForEveryDegree) {
    // 32 columns: x reaches 31, and 31^16 is far beyond 2^53 (31^13 already
    // overflows a 64-bit integer), so power tables built from integer powers
    // instead of std::pow values cannot pass.
    const ropuf::sim::ArrayGeometry g{32, 16};
    ASSERT_GT(std::pow(31.0, 16), 9007199254740992.0);
    pt::Rng rng(0xd15711u);
    std::vector<double> freqs(static_cast<std::size_t>(g.count()));
    for (auto& f : freqs) f = rng.gaussian(200.0, 3.0);
    for (int degree = 0; degree <= 16; ++degree) {
        std::vector<double> beta(static_cast<std::size_t>(distiller::coefficient_count(degree)));
        for (auto& b : beta) b = rng.gaussian(0.0, 1.0);
        const distiller::PolySurface surface(degree, beta);
        const auto grid = surface.evaluate_grid(g);
        const auto resid = distiller::residuals(g, freqs, surface);
        int grid_mismatches = 0;
        int resid_mismatches = 0;
        for (int idx = 0; idx < g.count(); ++idx) {
            const double want = ref::surface_at(beta, degree, g.x_of(idx), g.y_of(idx));
            const auto i = static_cast<std::size_t>(idx);
            grid_mismatches += bits_of(grid[i]) != bits_of(want);
            resid_mismatches += bits_of(resid[i]) != bits_of(freqs[i] - want);
        }
        EXPECT_EQ(grid_mismatches, 0) << "evaluate_grid, degree " << degree;
        EXPECT_EQ(resid_mismatches, 0) << "residuals, degree " << degree;
    }
}

// ---------------------------------------------------------------------------
// Group-based PUF
// ---------------------------------------------------------------------------

group::GroupPufConfig group_config() {
    group::GroupPufConfig cfg;
    cfg.enroll_samples = 8;
    return cfg;
}

struct GroupFixture {
    ropuf::sim::RoArray array{{16, 8}, ropuf::sim::ProcessParams{}, 0x9a0u};
    group::GroupBasedPuf puf{array, group_config()};
    group::GroupPufHelper honest;

    GroupFixture() {
        pt::Rng rng(0x9a1u);
        honest = puf.enroll(rng).helper;
    }
};

TEST(GroupHelperChecks, RejectsMalformedAssignments) {
    const GroupFixture fx;
    const auto& puf = fx.puf;
    ASSERT_TRUE(puf.helper_consistent(fx.honest));

    auto zero_id = fx.honest;
    zero_id.group_of[3] = 0;
    EXPECT_FALSE(puf.helper_consistent(zero_id));

    auto negative_id = fx.honest;
    negative_id.group_of[5] = -2;
    EXPECT_FALSE(puf.helper_consistent(negative_id));

    auto gap = fx.honest;
    gap.group_of[0] = *std::max_element(gap.group_of.begin(), gap.group_of.end()) + 2;
    EXPECT_FALSE(puf.helper_consistent(gap));

    auto huge_id = fx.honest;
    huge_id.group_of[0] = 2147483647;
    EXPECT_FALSE(puf.helper_consistent(huge_id));

    auto oversized = fx.honest;
    std::fill(oversized.group_of.begin(), oversized.group_of.end(), 1);
    oversized.ecc.response_bits = group::kendall_bits(puf.array().count());
    oversized.ecc.parity.assign(
        static_cast<std::size_t>(BlockEcc(puf.code()).helper_bits(oversized.ecc.response_bits)), 0);
    EXPECT_FALSE(puf.helper_consistent(oversized));

    auto wrong_bits = fx.honest;
    wrong_bits.ecc.response_bits += 1;
    EXPECT_FALSE(puf.helper_consistent(wrong_bits));

    pt::Rng scan_rng(1);
    const auto freqs = fx.array.measure_all(puf.config().condition, scan_rng);
    for (const auto* helper : {&zero_id, &negative_id, &gap, &huge_id, &oversized, &wrong_bits}) {
        EXPECT_FALSE(puf.reconstruct_measured(*helper, puf.config().condition, freqs).ok);
    }
}

/// A (possibly manipulated) helper and the seed of the scan it is
/// regenerated against.
struct HelperCase {
    group::GroupPufHelper helper;
    std::uint64_t scan_seed = 0;
    std::string edits;
};

HelperCase mutate(const GroupFixture& fx, pt::Rng& rng) {
    HelperCase c{fx.honest, rng.next(), ""};
    auto& h = c.helper;
    const int n = static_cast<int>(h.group_of.size());
    const int edits = rng.uniform_int(0, 3);
    for (int e = 0; e < edits; ++e) {
        const auto ro = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
        const int max_id = *std::max_element(h.group_of.begin(), h.group_of.end());
        switch (rng.uniform_int(0, 9)) {
            case 0: h.group_of[ro] = 0; c.edits += "zero-id "; break;
            case 1: h.group_of[ro] = -rng.uniform_int(1, 5); c.edits += "negative-id "; break;
            case 2: h.group_of[ro] = max_id + rng.uniform_int(1, 4 * n); c.edits += "gap "; break;
            case 3:
                std::swap(h.group_of[ro],
                          h.group_of[static_cast<std::size_t>(rng.uniform_int(0, n - 1))]);
                c.edits += "swap ";
                break;
            case 4: h.group_of[ro] = rng.uniform_int(1, max_id); c.edits += "move "; break;
            case 5:
                h.ecc.response_bits += rng.uniform_int(0, 1) ? 1 : -1;
                c.edits += "bits ";
                break;
            case 6:
                for (int f = rng.uniform_int(1, 6); f > 0 && !h.ecc.parity.empty(); --f) {
                    const auto last = static_cast<std::uint64_t>(h.ecc.parity.size() - 1);
                    bits::flip(h.ecc.parity, static_cast<std::size_t>(rng.uniform_u64(0, last)));
                }
                c.edits += "parity-flips ";
                break;
            case 7: h.ecc.parity.pop_back(); c.edits += "parity-length "; break;
            case 8:
                for (auto& b : h.beta) b += rng.gaussian(0.0, 0.5);
                c.edits += "beta ";
                break;
            default: {
                // A fresh dense assignment with random parity: consistent,
                // so it reaches the decoder and the Kendall decode.
                const int groups = rng.uniform_int(n / 12 + 1, n);
                for (int i = 0; i < n; ++i) {
                    h.group_of[static_cast<std::size_t>(i)] = i % groups + 1;
                }
                for (int i = n - 1; i > 0; --i) {
                    std::swap(h.group_of[static_cast<std::size_t>(i)],
                              h.group_of[static_cast<std::size_t>(rng.uniform_int(0, i))]);
                }
                const auto p = group::partition_from_assignment(h.group_of);
                h.ecc.response_bits = group::GroupBasedPuf::kendall_bits_of(*p);
                const int parity_bits = BlockEcc(fx.puf.code()).helper_bits(h.ecc.response_bits);
                h.ecc.parity = bits::random_bits(static_cast<std::size_t>(parity_bits), rng);
                if (rng.uniform_int(0, 1)) h.beta.resize(10, 0.0); // degree 3
                c.edits += "reassign ";
                break;
            }
        }
    }
    return c;
}

TEST(RegenEquivalence, GroupReconstructionMatchesReference) {
    const GroupFixture fx;
    int consistent = 0;
    int ok = 0;
    const auto result = pt::check<HelperCase>(
        "group reconstruct_measured", 0x6a0u, 600,
        [&](pt::Rng& rng) { return mutate(fx, rng); },
        [](const HelperCase&) { return std::vector<HelperCase>{}; },
        [&](const HelperCase& c) -> std::string {
            pt::Rng scan_rng(c.scan_seed);
            const auto freqs = fx.array.measure_all(fx.puf.config().condition, scan_rng);
            const bool got_consistent = fx.puf.helper_consistent(c.helper);
            if (got_consistent != ref::helper_consistent(fx.puf, c.helper)) {
                return "helper_consistent differs";
            }
            consistent += got_consistent;
            const auto& condition = fx.puf.config().condition;
            const auto got = fx.puf.reconstruct_measured(c.helper, condition, freqs);
            const auto want = ref::reconstruct(fx.puf, c.helper, freqs);
            ok += got.ok;
            if (got.ok != want.ok) return "ok differs";
            if (got.key != want.key) return "key differs";
            if (got.corrected != want.corrected) return "corrected differs";
            return "";
        },
        [](const HelperCase& c) { return "edits: " + c.edits; });
    EXPECT_FALSE(result.failed) << result.summary();
    // The mix reaches every outcome: refused, decoded and failed.
    EXPECT_GT(consistent, 100);
    EXPECT_GT(ok, 50);
    EXPECT_LT(ok, consistent);
}

} // namespace
