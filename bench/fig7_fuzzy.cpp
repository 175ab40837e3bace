// E11 — paper Fig. 7 / Section VII: the fuzzy-extractor reference solution.
//
// Shows (1) reliability parity with the attacked constructions, (2) that
// helper manipulation produces a response-independent observable (no per-bit
// side channel), and (3) the robust variant detecting manipulation.
#include "bench_util.hpp"

#include "ropuf/fuzzy/robust.hpp"
#include "ropuf/pairing/neighbor_chain.hpp"
#include "ropuf/sim/ro_array.hpp"
#include "ropuf/stats/estimators.hpp"

int main() {
    using namespace ropuf;
    benchutil::header("E11: fuzzy extractor reference", "Fig. 7 + Section VII",
                      "code-offset + hash: no helper read/write constraints needed");

    const sim::ArrayGeometry g{16, 8};
    const sim::RoArray chip(g, sim::ProcessParams{}, 81);
    const auto pairs = pairing::neighbor_chain(g, pairing::ChainOrder::Serpentine,
                                               pairing::ChainOverlap::Overlapping);
    rng::Xoshiro256pp rng(82);
    const auto enroll_freqs = chip.enroll_frequencies(sim::Condition{}, 32, rng);
    const auto response = pairing::evaluate_pairs(pairs, enroll_freqs);

    const ecc::BchCode code(6, 5);
    const fuzzy::FuzzyExtractor fe(code);
    const auto enrollment = fe.enroll(response, rng);

    benchutil::section("reliability (honest helper)");
    stats::Proportion honest;
    for (int trial = 0; trial < 200; ++trial) {
        const auto noisy =
            pairing::evaluate_pairs(pairs, chip.measure_all(sim::Condition{}, rng));
        const auto rec = fe.reconstruct(noisy, enrollment.helper);
        honest.add(rec.ok && rec.key == enrollment.key);
    }
    std::printf("  %zu response bits, BCH(%d,%d,t=%d): key regenerated in %.1f%% of trials\n",
                response.size(), code.n(), code.k(), code.t(), 100.0 * honest.rate());

    benchutil::section("manipulation observable is response-independent");
    // For every offset position, flipping it leaves decoding intact and
    // shifts the key — identically for any secret. The failure observable
    // carries zero per-bit information: quantified as the failure-rate spread
    // across manipulated positions (compare with the attacked schemes, where
    // the spread between hypotheses approaches 1).
    stats::Proportion flips_ok;
    for (std::size_t pos = 0; pos < 60; pos += 3) {
        auto tampered = enrollment.helper;
        bits::flip(tampered.offset, pos);
        const auto noisy =
            pairing::evaluate_pairs(pairs, chip.measure_all(sim::Condition{}, rng));
        const auto rec = fe.reconstruct(noisy, tampered);
        flips_ok.add(rec.ok && rec.key != enrollment.key);
    }
    std::printf("  single-offset-bit flips: %.0f%% decode fine with a shifted key\n",
                100.0 * flips_ok.rate());
    std::printf("  => failure rate does not depend on which hypothesis a bit satisfies\n");

    benchutil::section("robust variant (Boyen et al. [1]) detects manipulation");
    const fuzzy::RobustFuzzyExtractor rfe(code);
    const auto robust = rfe.enroll(response, rng);
    int detected = 0;
    int trials = 0;
    for (std::size_t pos = 0; pos < robust.helper.sketch.offset.size(); pos += 37) {
        auto tampered = robust.helper;
        bits::flip(tampered.sketch.offset, pos);
        const auto noisy =
            pairing::evaluate_pairs(pairs, chip.measure_all(sim::Condition{}, rng));
        const auto rec = rfe.reconstruct(noisy, tampered);
        detected += rec.tampered || !rec.ok;
        ++trials;
    }
    std::printf("  %d/%d manipulations rejected by the binding tag\n", detected, trials);

    benchutil::section("efficiency comparison (helper bits per key bit)");
    std::printf("  %-24s %14s %14s\n", "construction", "helper bits", "key bits");
    std::printf("  %-24s %14zu %14d\n", "fuzzy extractor", enrollment.helper.offset.size(), 256);
    std::printf("  (attacked schemes store pair lists / group maps / coefficients on top\n");
    std::printf("   of ECC redundancy — see Section VII's efficiency discussion)\n");
    const bool flips_shift_key = flips_ok.rate() == 1.0;
    const bool all_rejected = detected == trials;
    std::printf("\n[shape check] same reliability, manipulation yields DoS at worst.\n");
    std::printf("              every offset flip decodes to a shifted key: %s; the robust tag "
                "rejects every manipulation: %s\n",
                flips_shift_key ? "yes" : "NO", all_rejected ? "yes" : "NO");
    return flips_shift_key && all_rejected ? 0 : 1;
}
