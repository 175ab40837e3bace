#include "ropuf/fleet/enroll.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "ropuf/core/pool.hpp"
#include "ropuf/obs/metrics.hpp"

namespace ropuf::fleet {

namespace {

/// Builds the record for device `first + i` of a measured shard.
/// `meas` is the device's scan block: scan s occupies [s*n, (s+1)*n).
EnrollmentRecord record_from_scans(const FleetSpec& spec, std::uint64_t device,
                                   const std::vector<double>& meas) {
    const std::size_t n = static_cast<std::size_t>(spec.ro_count());
    const int samples = spec.enroll_samples;

    // Average the scans: enrollment's noise suppression.
    std::vector<double> avg(n, 0.0);
    for (int s = 0; s < samples; ++s) {
        const double* scan = meas.data() + static_cast<std::size_t>(s) * n;
        for (std::size_t r = 0; r < n; ++r) avg[r] += scan[r];
    }
    for (double& v : avg) v /= static_cast<double>(samples);

    // Disjoint adjacent pairs, ranked by reliability |Δf| (ties by index).
    const std::size_t pairs = n / 2;
    std::vector<double> delta(pairs);
    for (std::size_t p = 0; p < pairs; ++p) delta[p] = avg[2 * p] - avg[2 * p + 1];
    std::vector<std::uint16_t> order(pairs);
    std::iota(order.begin(), order.end(), std::uint16_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::uint16_t a, std::uint16_t b) {
        return std::abs(delta[a]) > std::abs(delta[b]);
    });
    order.resize(static_cast<std::size_t>(spec.key_bits));
    std::sort(order.begin(), order.end()); // canonical set order, not rank

    EnrollmentRecord rec;
    rec.device = device;
    rec.helper = std::move(order);
    rec.key_words.assign((static_cast<std::size_t>(spec.key_bits) + 63) / 64, 0);
    for (int j = 0; j < spec.key_bits; ++j) {
        if (delta[rec.helper[static_cast<std::size_t>(j)]] > 0.0) {
            rec.key_words[static_cast<std::size_t>(j) / 64] |=
                std::uint64_t{1} << (static_cast<std::size_t>(j) % 64);
        }
    }
    return rec;
}

} // namespace

EnrollmentRecord enroll_device(const Population& population, std::uint64_t device) {
    sim::RoFleet fleet =
        population.manufacture_shard(device, 1, Population::Phase::enroll);
    std::vector<std::vector<double>> out;
    fleet.measure_batch(sim::Condition{}, population.spec().enroll_samples, out);
    return record_from_scans(population.spec(), device, out[0]);
}

std::uint64_t enroll_population(const Population& population, EnrollmentWriter& writer,
                                int workers, const std::atomic<bool>* stop) {
    const FleetSpec& spec = population.spec();
    const std::uint64_t start = writer.next_device();
    const std::uint64_t shards = (spec.devices - start + kShardDevices - 1) / kShardDevices;
    const core::WorkPool pool(static_cast<std::size_t>(shards), workers, stop);
    std::vector<std::vector<std::vector<double>>> scratch(
        static_cast<std::size_t>(pool.workers()));
    // The writer only takes records in device order, so shards commit in
    // index order; a writer fault escapes to the caller after the records
    // before it have landed.
    core::OrderedCommitter<std::vector<EnrollmentRecord>> committer(
        [&writer](std::vector<EnrollmentRecord>& records) {
            for (const EnrollmentRecord& rec : records) writer.append(rec);
            ROPUF_OBS_COUNT("fleet.devices_enrolled", static_cast<double>(records.size()));
        });
    pool.run([&](std::size_t shard, int worker) {
        const std::uint64_t first = start + shard * kShardDevices;
        const std::size_t count = static_cast<std::size_t>(
            std::min<std::uint64_t>(kShardDevices, spec.devices - first));
        std::vector<std::vector<double>>& out = scratch[static_cast<std::size_t>(worker)];
        population.manufacture_shard(first, count, Population::Phase::enroll)
            .measure_batch(sim::Condition{}, spec.enroll_samples, out);
        std::vector<EnrollmentRecord> records;
        records.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            records.push_back(record_from_scans(spec, first + i, out[i]));
        }
        committer.commit(shard, std::move(records));
    });
    return writer.next_device() - start;
}

} // namespace ropuf::fleet
