#include "ropuf/ecc/bch.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <set>
#include <stdexcept>

#include "ropuf/obs/metrics.hpp"

namespace ropuf::ecc {

namespace {

/// Multiplies two GF(2) polynomials (index i = coeff of x^i).
std::vector<std::uint8_t> gf2_poly_mul(const std::vector<std::uint8_t>& a,
                                       const std::vector<std::uint8_t>& b) {
    std::vector<std::uint8_t> out(a.size() + b.size() - 1, 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!a[i]) continue;
        for (std::size_t j = 0; j < b.size(); ++j) {
            out[i + j] ^= b[j];
        }
    }
    return out;
}

/// Bytes of the longest word the syndrome kernel packs (n = 2^14 - 1).
constexpr std::size_t kMaxWordBytes = ((std::size_t{1} << 14) - 1 + 7) / 8;

/// Decoder scratch ints: on the stack up to kInline (every t <= 56), on the
/// heap beyond.
class Scratch {
public:
    explicit Scratch(std::size_t count)
        : data_(count <= kInline ? inline_.data() : (heap_.resize(count), heap_.data())) {}
    Scratch(const Scratch&) = delete; // data_ may point into inline_
    Scratch& operator=(const Scratch&) = delete;
    int* data() { return data_; }

private:
    static constexpr std::size_t kInline = 512;
    std::array<int, kInline> inline_;
    std::vector<int> heap_;
    int* data_;
};

} // namespace

BchCode::BchCode(int m, int t) : field_(m), n_(field_.n()), t_(t) {
    if (t < 1) throw std::invalid_argument("BchCode requires t >= 1");

    // Generator = LCM of the minimal polynomials of alpha^1 .. alpha^{2t}.
    // Conjugacy: the minimal polynomial of alpha^i also covers alpha^{2i mod n}.
    std::set<int> covered;
    std::vector<std::uint8_t> gen{1};
    for (int i = 1; i <= 2 * t_; ++i) {
        if (covered.contains(i % n_)) continue;
        // Cyclotomic coset of i.
        std::vector<int> coset;
        int c = i % n_;
        do {
            coset.push_back(c);
            covered.insert(c);
            c = (2 * c) % n_;
        } while (c != i % n_);
        // Minimal polynomial = prod over the coset of (x + alpha^c), computed
        // with GF(2^m) coefficients; the result has GF(2) coefficients.
        std::vector<int> min_poly{1};
        for (int e : coset) {
            const int root = field_.alpha_pow(e);
            std::vector<int> next(min_poly.size() + 1, 0);
            for (std::size_t d = 0; d < min_poly.size(); ++d) {
                next[d + 1] ^= min_poly[d];                   // x * term
                next[d] ^= field_.mul(min_poly[d], root);     // root * term
            }
            min_poly = std::move(next);
        }
        std::vector<std::uint8_t> min_poly2(min_poly.size());
        for (std::size_t d = 0; d < min_poly.size(); ++d) {
            assert(min_poly[d] == 0 || min_poly[d] == 1);
            min_poly2[d] = static_cast<std::uint8_t>(min_poly[d]);
        }
        gen = gf2_poly_mul(gen, min_poly2);
    }
    generator_ = std::move(gen);
    const int deg = static_cast<int>(generator_.size()) - 1;
    k_ = n_ - deg;
    if (k_ < 1) {
        throw std::invalid_argument("BCH(m,t): generator degree leaves no message bits");
    }
    if (deg <= 63) {
        for (int i = 0; i < deg; ++i) {
            if (generator_[static_cast<std::size_t>(i)]) generator_taps_ |= std::uint64_t{1} << i;
        }
    }
    build_horner_tables();
}

void BchCode::build_horner_tables() {
    // S_j = r(alpha^j) with bit i the coefficient of x^(n-1-i). The kernel
    // evaluates the zero-padded byte sequence (length 8B >= n) by Horner:
    //     acc <- acc * alpha^{8j} ^ T_j[byte]
    // where T_j[byte] = sum over set bits k (MSB-first) of alpha^{j*(7-k)}.
    // Padding with `pad` trailing zeros multiplies every true term by
    // alpha^{j*pad}, so one final multiply by alpha^{-j*pad} restores S_j.
    const int n_synd = 2 * t_;
    const int n_bytes = (n_ + 7) / 8;
    const int pad = n_bytes * 8 - n_;

    horner_byte_tbl_.assign(static_cast<std::size_t>(n_synd) * 256, 0);
    horner_step_log_.resize(static_cast<std::size_t>(n_synd));
    horner_fixup_log_.resize(static_cast<std::size_t>(n_synd));
    for (int j = 1; j <= n_synd; ++j) {
        std::uint16_t* row = horner_byte_tbl_.data() + static_cast<std::size_t>(j - 1) * 256;
        int bit_val[8]; // alpha^{j*(7-k)} for MSB-first bit position k
        for (int k = 0; k < 8; ++k) bit_val[k] = field_.alpha_pow(j * (7 - k));
        for (int byte = 0; byte < 256; ++byte) {
            int acc = 0;
            for (int k = 0; k < 8; ++k) {
                if (byte & (1 << (7 - k))) acc ^= bit_val[k];
            }
            row[byte] = static_cast<std::uint16_t>(acc);
        }
        horner_step_log_[static_cast<std::size_t>(j - 1)] =
            static_cast<std::uint16_t>((8 * j) % n_);
        const int back = static_cast<int>((static_cast<long long>(j) * pad) % n_);
        horner_fixup_log_[static_cast<std::size_t>(j - 1)] =
            static_cast<std::uint16_t>((n_ - back) % n_);
    }

    // Direct per-step multiplication tables when the field is small enough
    // (m <= 12 keeps a 2t x 2^m uint16 block within a few hundred KB); the
    // kernel falls back to log/exp stepping otherwise.
    if (field_.size() <= 4096) {
        horner_mul_tbl_.assign(
            static_cast<std::size_t>(n_synd) * static_cast<std::size_t>(field_.size()), 0);
        for (int j = 1; j <= n_synd; ++j) {
            const int step = field_.alpha_pow(8 * j);
            std::uint16_t* row = horner_mul_tbl_.data() +
                                 static_cast<std::size_t>(j - 1) *
                                     static_cast<std::size_t>(field_.size());
            for (int v = 0; v < field_.size(); ++v) {
                row[v] = static_cast<std::uint16_t>(field_.mul(v, step));
            }
        }
    }
}

simd::BchHornerView BchCode::horner_view() const {
    simd::BchHornerView v;
    v.byte_tbl = horner_byte_tbl_.data();
    v.mul_tbl = horner_mul_tbl_.empty() ? nullptr : horner_mul_tbl_.data();
    v.step_log = horner_step_log_.data();
    v.fixup_log = horner_fixup_log_.data();
    v.log_tbl = field_.log_table().data();
    v.exp_tbl = field_.exp_table().data();
    v.field_n = field_.n();
    v.field_size = field_.size();
    v.n_synd = 2 * t_;
    return v;
}

bits::BitVec BchCode::encode(const bits::BitVec& message) const {
    return bits::concat(message, parity(message));
}

bits::BitVec BchCode::parity(const bits::BitVec& message) const {
    assert(static_cast<int>(message.size()) == k_);
    // Systematic encoding: remainder of m(x) * x^(n-k) divided by g(x).
    // Premultiplied LFSR division circuit: clocking in the k message bits
    // (MSB-first) leaves rem = m(x) * x^(n-k) mod g(x), rem[0] the top bit.
    const int p = parity_bits();
    bits::BitVec rem(static_cast<std::size_t>(p), 0);
    if (p <= 63) {
        // The whole register in one word: bit p-1-j holds rem[j].
        const std::uint64_t top = std::uint64_t{1} << (p - 1);
        const std::uint64_t mask = (top << 1) - 1;
        std::uint64_t reg = 0;
        for (int i = 0; i < k_; ++i) {
            const std::uint64_t in = message[static_cast<std::size_t>(i)] & 1u;
            const std::uint64_t feedback = ((reg >> (p - 1)) ^ in) & 1u;
            reg = ((reg << 1) & mask) ^ (feedback ? generator_taps_ : 0);
        }
        for (int j = 0; j < p; ++j) {
            rem[static_cast<std::size_t>(j)] = static_cast<std::uint8_t>((reg >> (p - 1 - j)) & 1u);
        }
        return rem;
    }
    for (int i = 0; i < k_; ++i) {
        const std::uint8_t in = message[static_cast<std::size_t>(i)];
        const std::uint8_t feedback = static_cast<std::uint8_t>(rem[0] ^ in);
        // Shift left by one, feeding back g(x) when the top bit pops out.
        for (int j = 0; j < p - 1; ++j) {
            rem[static_cast<std::size_t>(j)] = static_cast<std::uint8_t>(
                rem[static_cast<std::size_t>(j + 1)] ^
                (feedback & generator_[static_cast<std::size_t>(p - 1 - j)]));
        }
        rem[static_cast<std::size_t>(p - 1)] =
            static_cast<std::uint8_t>(feedback & generator_[0]);
    }
    return rem;
}

bool BchCode::syndromes(std::span<const std::uint8_t> word, int* s) const {
    assert(static_cast<int>(word.size()) == n_);
    // Pack MSB-first into a stack buffer, then run the byte-wise
    // table-driven Horner of the simd kernel layer: 8 bits per GF(2^m) step
    // instead of one table lookup per set bit.
    std::array<std::uint8_t, kMaxWordBytes> bytes;
    const std::size_t n_bytes = (word.size() + 7) / 8;
    std::fill_n(bytes.begin(), n_bytes, std::uint8_t{0});
    for (std::size_t i = 0; i < word.size(); ++i) {
        if (word[i]) bytes[i / 8] |= static_cast<std::uint8_t>(0x80u >> (i % 8));
    }
    ROPUF_OBS_COUNT("simd.calls.bch_syndromes", 1);
    simd::kernels().bch_syndromes(bytes.data(), n_bytes, horner_view(), s);
    return std::any_of(s, s + 2 * t_, [](int v) { return v != 0; });
}

BchCode::DecodeResult BchCode::decode(const bits::BitVec& received) const {
    DecodeResult out;
    out.codeword = received;
    const int flips = correct(out.codeword);
    out.ok = flips >= 0;
    out.corrected = std::max(flips, 0);
    return out;
}

int BchCode::correct(std::span<std::uint8_t> word) const {
    assert(static_cast<int>(word.size()) == n_);
    // Scratch layout: syndromes [2t]; sigma, prev and spare [2t+1 each] for
    // Berlekamp–Massey (no locator outgrows degree 2t); error positions [t].
    const int n_synd = 2 * t_;
    const int width = n_synd + 1;
    Scratch scratch(static_cast<std::size_t>(n_synd + 3 * width + t_));
    int* const s = scratch.data();
    if (!syndromes(word, s)) return 0;
    int* sigma = s + n_synd;  // current locator, zero past its degree
    int* prev = sigma + width; // locator before the last length change
    int* spare = prev + width;
    int* const positions = spare + width;
    std::fill_n(sigma, 2 * width, 0);
    sigma[0] = 1;
    prev[0] = 1;

    // Berlekamp–Massey: find the error-locator polynomial sigma(x) with
    // sigma(0) = 1 whose feedback taps annihilate the syndrome sequence.
    int l = 0;                // current LFSR length
    int shift = 1;            // steps since the last length change
    int prev_discrepancy = 1; // discrepancy at the last length change
    for (int r = 0; r < n_synd; ++r) {
        // Discrepancy d = S_r + sum_i sigma_i * S_{r-i}.
        int d = s[r];
        for (int i = 1; i <= l && i <= r; ++i) d ^= field_.mul(sigma[i], s[r - i]);
        if (d == 0) {
            ++shift;
            continue;
        }
        // sigma' = sigma - (d/prev_d) * x^shift * prev
        const int scale = field_.div(d, prev_discrepancy);
        const bool lengthen = 2 * l <= r;
        if (lengthen) std::copy_n(sigma, width, spare);
        for (int i = 0; i + shift < width; ++i) sigma[i + shift] ^= field_.mul(scale, prev[i]);
        if (lengthen) {
            std::swap(prev, spare); // prev = sigma before this step
            prev_discrepancy = d;
            l = r + 1 - l;
            shift = 1;
        } else {
            ++shift;
        }
    }
    int degree = n_synd;
    while (degree > 0 && sigma[degree] == 0) --degree;
    if (degree > t_ || degree != l) return -1;

    // Chien search: roots alpha^(-e) of sigma locate errors at x^e. In the
    // log domain term i of sigma(alpha^-e) is alpha^(log sigma_i - i*e), so
    // each step subtracts i from the logs instead of re-evaluating sigma.
    int* const term_log = spare; // -1 marks a zero coefficient
    for (int i = 1; i <= degree; ++i) term_log[i] = sigma[i] == 0 ? -1 : field_.log(sigma[i]);
    const int* const exp = field_.exp_table().data();
    int found = 0;
    for (int e = 0; e < n_; ++e) {
        int value = 1; // sigma_0
        for (int i = 1; i <= degree; ++i) {
            if (term_log[i] < 0) continue;
            value ^= exp[term_log[i]];
            term_log[i] -= i;
            if (term_log[i] < 0) term_log[i] += n_;
        }
        if (value == 0) {
            // A nonzero polynomial has at most `degree` <= t roots.
            assert(found < degree);
            positions[found++] = n_ - 1 - e;
        }
    }
    if (found != degree) return -1;
    for (int f = 0; f < found; ++f) word[static_cast<std::size_t>(positions[f])] ^= 1u;
    // A valid correction must restore a codeword (all syndromes zero).
    if (syndromes(word, s)) {
        for (int f = 0; f < found; ++f) word[static_cast<std::size_t>(positions[f])] ^= 1u;
        return -1;
    }
    return found;
}

bits::BitVec BchCode::message_of(const bits::BitVec& codeword) const {
    assert(static_cast<int>(codeword.size()) == n_);
    return bits::slice(codeword, 0, static_cast<std::size_t>(k_));
}

bool BchCode::is_codeword(const bits::BitVec& word) const {
    Scratch scratch(static_cast<std::size_t>(2 * t_));
    return !syndromes(word, scratch.data());
}

} // namespace ropuf::ecc
