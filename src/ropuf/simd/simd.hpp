// Runtime-dispatched SIMD kernel layer.
//
// The three hot loops of the attack engine — array measurement (ziggurat
// noise + condition affine), the pairwise frequency comparator / majority
// vote, and the BCH syndrome accumulation — run through a function-pointer
// table selected once at startup from CPU features (AVX-512 > AVX2 > NEON >
// portable scalar). The choice can be forced with the environment variable
//
//     ROPUF_SIMD=scalar|avx2|avx512|neon
//
// (an unavailable request falls back to the best available path with a
// one-time stderr warning).
//
// Determinism contract: every dispatch path produces bitwise-identical
// output for identical inputs, including identical RNG word consumption.
// This holds by construction:
//
//  * Stream-exact kernels (fill_gaussian, measure_scans) replay the historic
//    single-stream draw order. The xoshiro generator chain is serial (~2.4
//    cyc/word) and the ziggurat slow path is scalar libm, so these kernels
//    are the same carefully-scheduled scalar code on every path — measured
//    on the pinned CI host, every blocked/lane-parallel restructuring of the
//    single-stream fill lost to the out-of-order scalar loop.
//
//  * The fleet kernel (measure_fleet) is where the wide lanes pay off: each
//    device owns two private xoshiro streams (main + slow-path), one draw
//    consumes exactly one main-stream word, and slow draws are resolved as
//    scalar deferred fixups from the device's slow stream. A device's output
//    depends only on its own streams, so vector width changes nothing —
//    lanes are devices, and the scalar path literally loops over devices.
//
//  * Comparator, majority vote and BCH syndromes are integer/compare-only.
//
// All kernel translation units compile with -ffp-contract=off so no path
// can fuse a mul/add pair the others round separately.
#pragma once

#include <cstdint>
#include <vector>

#include "ropuf/rng/xoshiro.hpp"

namespace ropuf::simd {

enum class Path { kScalar = 0, kAvx2 = 1, kAvx512 = 2, kNeon = 3 };

/// Stable lowercase name ("scalar", "avx2", "avx512", "neon").
const char* path_name(Path p) noexcept;

/// The dispatch decision: detected once (first call), honoring ROPUF_SIMD.
Path active_path() noexcept;

/// True when the path is compiled in and supported by this CPU.
bool path_available(Path p) noexcept;

/// Every available path, scalar first. Used by the equivalence tests.
std::vector<Path> available_paths();

/// Structure-of-arrays view of a manufactured RO array: the frozen static
/// frequency component and per-RO temperature coefficient.
struct SoaView {
    const double* stat;   ///< static_mhz[i] = f_nominal + systematic + random
    const double* tempco; ///< MHz / degC
    std::size_t n = 0;
};

/// Per-device RNG streams for the fleet measurement kernel. Each device owns
/// a main stream (exactly one word per draw) and a slow-path stream (consumed
/// only by ziggurat slow-path resolutions), which is what keeps device lanes
/// in lockstep regardless of vector width.
struct FleetStreams {
    std::vector<rng::Xoshiro256pp> main;
    std::vector<rng::Xoshiro256pp> slow;

    /// Streams for `devices` devices derived from one base seed.
    static FleetStreams from_seed(std::uint64_t base_seed, std::size_t devices);

    std::size_t devices() const noexcept { return main.size(); }
};

/// Table bundle for the byte-wise Horner BCH syndrome kernel (built once per
/// BchCode). All table elements fit in uint16 because m <= 14.
struct BchHornerView {
    const std::uint16_t* byte_tbl = nullptr; ///< [n_synd][256] per-byte contribution
    const std::uint16_t* mul_tbl = nullptr;  ///< [n_synd][field_size] acc * alpha^{8j}; may be null
    const std::uint16_t* step_log = nullptr; ///< [n_synd] log(alpha^{8j}) (fallback when mul_tbl null)
    const std::uint16_t* fixup_log = nullptr;///< [n_synd] log(alpha^{-j*pad}) trailing-pad correction
    const int* log_tbl = nullptr;            ///< [field_size] discrete logs ([0] unused)
    const int* exp_tbl = nullptr;            ///< [>= field_n] alpha powers
    int field_n = 0;                         ///< 2^m - 1
    int field_size = 0;                      ///< 2^m
    int n_synd = 0;                          ///< 2t
};

/// The dispatchable kernel table. Pointers are never null.
struct Kernels {
    /// Stream-exact ziggurat fill: out[i] = mean + sd * z_i, bitwise equal to
    /// the historic rng::fill_gaussian for the same generator state.
    void (*fill_gaussian)(rng::Xoshiro256pp& rng, double mean, double sd,
                          double* out, std::size_t n);

    /// Stream-exact fused measurement: `scans` full passes over the array,
    /// out[s*n + i] = (mean + sd*z) + ((stat[i] + tempco[i]*dt) + dv), drawn
    /// in row-major order — bitwise equal to fill_gaussian over scans*n
    /// followed by the affine sweep (the pre-kernel measure_batch_into).
    void (*measure_scans)(const SoaView& soa, double dt, double dv, double mean,
                          double sd, int scans, rng::Xoshiro256pp& rng, double* out);

    /// Fleet measurement: for each device d, scans*n draws from its streams;
    /// out[d][s*n + i] = (mean + sd*z) + base[d][i]. Lane-parallel across
    /// devices on the vector paths; identical to a per-device scalar loop.
    void (*measure_fleet)(const double* const* base, std::size_t devices,
                          std::size_t n, int scans, double mean, double sd,
                          FleetStreams& streams, double* const* out);

    /// Pairwise comparator: out[i] = values[pairs[2i]] > values[pairs[2i+1]].
    void (*compare_pairs)(const double* values, const int* pairs,
                          std::size_t n_pairs, std::uint8_t* out);

    /// Bit-packed comparator: result bit i lands in out[i/64] bit (i%64),
    /// LSB-first; trailing bits of the last word are zero.
    void (*compare_pairs_packed)(const double* values, const int* pairs,
                                 std::size_t n_pairs, std::uint64_t* out);

    /// Bit-sliced majority vote over n_rows packed rows of `words` words:
    /// out bit = 1 iff the bit is set in strictly more than n_rows/2 rows.
    void (*majority_vote_packed)(const std::uint64_t* rows, std::size_t words,
                                 int n_rows, std::uint64_t* out);

    /// Byte-wise table-driven Horner BCH syndromes over MSB-first packed
    /// bytes; out[j] = S_{j+1} for j in [0, n_synd).
    void (*bch_syndromes)(const std::uint8_t* bytes, std::size_t n_bytes,
                          const BchHornerView& tables, int* out);
};

/// Kernel table of the active path.
const Kernels& kernels() noexcept;

/// Kernel table of a specific path; `p` must satisfy path_available(p).
const Kernels& kernels_for(Path p) noexcept;

} // namespace ropuf::simd
