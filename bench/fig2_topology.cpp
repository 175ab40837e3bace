// E2 — paper Fig. 2 / Section III: frequency topology of an RO array.
//
// "The linear trend corresponds with systematic variability. Only the random
// surface roughness is desired." We regenerate the topology, fit the
// distiller polynomial, and show the residual is the random component.
#include "bench_util.hpp"

#include <cmath>

#include "ropuf/distiller/regression.hpp"
#include "ropuf/sim/ro_array.hpp"
#include "ropuf/stats/estimators.hpp"

int main() {
    using namespace ropuf;
    benchutil::header("E2: frequency topology f(x, y)", "Fig. 2 + Section III / V-A",
                      "map = linear trend + quadratic bowing + random roughness");

    const sim::ArrayGeometry g{16, 8};
    const sim::RoArray chip(g, sim::ProcessParams{}, 4);
    rng::Xoshiro256pp rng(5);
    const auto freqs = chip.enroll_frequencies(sim::Condition{}, 32, rng);

    benchutil::section("raw frequency map (MHz, quantized to 0-9 heat buckets)");
    benchutil::heatmap(freqs, g.cols, g.rows);

    benchutil::section("distiller fits (Section V-A: p = 2 and 3 recommended)");
    std::printf("  %8s %12s %22s\n", "degree", "coeffs", "residual RMS (MHz)");
    double fit_rms[4] = {};
    for (int degree : {0, 1, 2, 3}) {
        const auto surface = distiller::fit(g, freqs, degree);
        const auto resid = distiller::residuals(g, freqs, surface);
        fit_rms[degree] = distiller::rms(resid);
        std::printf("  %8d %12d %22.4f\n", degree, distiller::coefficient_count(degree),
                    fit_rms[degree]);
    }

    const auto surface = distiller::fit(g, freqs, 2);
    benchutil::section("fitted systematic surface (the undesired trend)");
    benchutil::heatmap(surface.evaluate_grid(g), g.cols, g.rows);

    benchutil::section("residual roughness (the desired random variation)");
    const auto resid = distiller::residuals(g, freqs, surface);
    benchutil::heatmap(resid, g.cols, g.rows);

    benchutil::section("ground truth vs recovered components");
    stats::RunningStats sys_err;
    stats::RunningStats ran;
    for (int i = 0; i < g.count(); ++i) {
        ran.add(chip.random_component(i));
        sys_err.add(resid[static_cast<std::size_t>(i)] - chip.random_component(i));
    }
    std::printf("  true random-component sigma : %.4f MHz\n", ran.stddev());
    std::printf("  residual-vs-truth error RMS : %.4f MHz (fit removes the trend)\n",
                sys_err.stddev());
    // "Close" allows 10%: a degree-p fit absorbs (p+1)(p+2)/2 of the 128
    // degrees of freedom and the 32-sample enrollment average keeps some
    // measurement noise.
    const double sigma = ran.stddev();
    const bool falls = fit_rms[2] < fit_rms[0];
    bool close = true;
    for (int degree : {2, 3}) close = close && std::abs(fit_rms[degree] - sigma) <= 0.1 * sigma;
    std::printf("\n[shape check] residual RMS ~ sigma_random once degree >= 2.\n");
    std::printf("              RMS falls from degree 0 to 2: %s; within 10%% of sigma_random "
                "(%.4f MHz) at degree >= 2: %s\n",
                falls ? "yes" : "NO", sigma, close ? "yes" : "NO");
    return falls && close ? 0 : 1;
}
