// Quickstart: enroll a group-based RO PUF, regenerate its key under noise,
// and watch a helper-data manipulation break it.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "ropuf/group/group_puf.hpp"

int main() {
    using namespace ropuf;

    // 1. "Manufacture" a chip: a 16x8 RO array with realistic process
    //    variation, spatial gradients and measurement noise.
    const sim::ArrayGeometry geometry{16, 8};
    const sim::RoArray chip(geometry, sim::ProcessParams{}, /*seed=*/2014);

    // 2. Instantiate the group-based construction (DATE 2013 + DAC 2013
    //    distiller) and enroll once.
    group::GroupPufConfig config;
    config.delta_f_th = 0.15;
    const group::GroupBasedPuf puf(chip, config);
    rng::Xoshiro256pp rng(1);
    const auto enrollment = puf.enroll(rng);

    std::printf("enrolled a %d-RO array\n", chip.count());
    std::printf("  groups          : %d\n", enrollment.grouping.num_groups);
    std::printf("  kendall bits    : %zu (ECC-protected)\n", enrollment.kendall_ref.size());
    std::printf("  packed key bits : %zu\n", enrollment.key.size());
    std::printf("  key             : %s\n", bits::to_string(enrollment.key).c_str());

    // 3. Regenerate the key from fresh noisy measurements.
    int successes = 0;
    constexpr int kTrials = 20;
    for (int i = 0; i < kTrials; ++i) {
        const auto rec = puf.reconstruct(enrollment.helper, rng);
        successes += rec.ok && rec.key == enrollment.key;
    }
    std::printf("honest regenerations: %d/%d succeeded\n", successes, kTrials);

    // 4. The threat model: helper data is public and WRITABLE. Flip one
    //    stored group assignment and watch reconstruction break.
    auto tampered = enrollment.helper;
    tampered.group_of[0] = tampered.group_of[1];
    const auto rec = puf.reconstruct(tampered, rng);
    std::printf("after one helper-byte manipulation: %s\n",
                (rec.ok && rec.key == enrollment.key) ? "key survived (!)"
                                                      : "key regeneration broke");
    std::printf("=> failure observability is exactly the side channel the\n");
    std::printf("   DATE 2014 attacks exploit; `ropuf run specs/smoke.spec` runs them\n");
    return 0;
}
