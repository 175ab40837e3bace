// Population enrollment: measure every device once, well, and persist it.
//
// Enrollment follows the paper's standard recipe: average `enroll_samples`
// noisy scans per device at the reference condition, form the disjoint
// adjacent RO pairs (2p, 2p+1), and keep the `key_bits` most reliable
// pairs — largest |Δf|, index as tie-break — as the device's helper data.
// Key bit j is then sign(Δf) of selected pair p_j. Selected pair indices
// are stored sorted ascending, so the helper is a canonical set, not a
// ranking (rank would leak more than the paper's schemes do).
//
// Devices enroll in shards of kShardDevices through RoFleet::measure_batch,
// so the SIMD kernels see a full device batch per call; memory stays
// O(shard) per worker. Shards run on the shared core::WorkPool and their
// records reach the writer through core::OrderedCommitter in device order,
// so the store bytes do not depend on the worker count. Enrollment is
// resumable: the writer knows the valid record prefix, and
// enroll_population simply continues from there — records are
// deterministic per device, so a resumed store is byte-identical to a
// clean one.
#pragma once

#include <atomic>
#include <cstdint>

#include "ropuf/fleet/population.hpp"
#include "ropuf/fleet/store.hpp"

namespace ropuf::fleet {

/// Devices per enrollment batch (and per campaign shard): wide enough
/// that every SIMD path runs full lanes, small enough that per-shard
/// buffers stay cache-friendly.
inline constexpr std::size_t kShardDevices = 64;

/// Enrolls one device in isolation — bit-identical to the record the
/// sharded path produces for it (pinned by test).
EnrollmentRecord enroll_device(const Population& population, std::uint64_t device);

/// Enrolls every not-yet-enrolled device (writer.next_device() onward)
/// into `writer` on `workers` pool workers (0 = hardware concurrency).
/// Checks `stop` between shards when non-null (SIGINT); returns the number
/// of devices enrolled by this call. A writer fault propagates once the
/// shards in flight finish; the store then holds every record before the
/// faulted one, so calling again retries from there.
std::uint64_t enroll_population(const Population& population, EnrollmentWriter& writer,
                                int workers, const std::atomic<bool>* stop = nullptr);

} // namespace ropuf::fleet
