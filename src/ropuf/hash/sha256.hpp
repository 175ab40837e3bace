// FIPS 180-4 SHA-256, implemented from scratch.
//
// Used by the fuzzy-extractor reference construction (paper Fig. 7): the hash
// compresses the error-corrected PUF response into a uniformly distributed
// key, compensating the ECC helper-data entropy loss. Also used by the robust
// helper-data mode and the `mac` defense to bind helper blobs against
// manipulation.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ropuf::hash {

using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256. Typical use:
///   Sha256 h; h.update(a); h.update(b); Digest d = h.finalize();
/// `finalize` may be called once; the object can then be `reset()`.
class Sha256 {
public:
    Sha256() { reset(); }

    /// Restores the initial hash state.
    void reset();

    /// Absorbs `data` into the running hash.
    void update(std::span<const std::uint8_t> data);

    /// Convenience overload for string payloads.
    void update(std::string_view s);

    /// Completes padding and returns the 32-byte digest.
    Digest finalize();

    /// One-shot helpers.
    static Digest hash(std::span<const std::uint8_t> data);
    static Digest hash(std::string_view s);

private:
    void process_block(const std::uint8_t* block);

    std::array<std::uint32_t, 8> state_{};
    std::array<std::uint8_t, 64> buffer_{};
    std::size_t buffer_len_ = 0;
    std::uint64_t total_bits_ = 0;
    bool finalized_ = false;
};

/// Renders a digest as lowercase hex.
std::string to_hex(const Digest& d);

} // namespace ropuf::hash
