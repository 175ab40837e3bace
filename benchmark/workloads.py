"""Workload specs, generated from the benchmark's --seed.

Each workload is a spec file text the `ropuf` CLI reads; the program sees
only the generated spec. Seeds inside the spec derive from the benchmark
seed through SHA-256, so the same seed always gives the same spec.
"""

import hashlib

# The 12 base scenarios, named explicitly: the deprecated `-defended`
# aliases stay out, so deleting them does not change this workload.
PAPER_SCENARIOS = (
    "seqpair/swap", "seqpair/swap-sorted", "tempaware/substitution", "group/sortmerge",
    "group/exhaustive", "maskedchain/distiller", "maskedchain/probe",
    "overlapchain/distiller", "fuzzy/reference", "group/sortmerge-adaptive",
    "maskedchain/distiller-adaptive", "overlapchain/distiller-adaptive",
)

# The fig_matrix attacks and the defenses of the outcome matrix.
MATRIX_SCENARIOS = (
    "seqpair/swap", "tempaware/substitution", "group/sortmerge", "maskedchain/distiller",
    "overlapchain/distiller", "group/sortmerge-adaptive", "maskedchain/distiller-adaptive",
    "overlapchain/distiller-adaptive",
)
MATRIX_DEFENSES = ("none", "sanity", "crc", "mac", "lockout(8)", "ratelimit(200,64)",
                   "noisyrefusal(0.5)")
MATRIX_BUDGETS = (0, 64, 256)  # 0 = unlimited

# Per-size knobs. `tiny` is a seconds-long check of the whole pipeline.
SIZES = {
    "full": {"paper_trials": 100, "grid_trials": 4, "grid_seeds": 2, "grid_scenarios": 8,
             "grid_defenses": 7, "fleet_devices": 100000},
    "tiny": {"paper_trials": 3, "grid_trials": 2, "grid_seeds": 1, "grid_scenarios": 2,
             "grid_defenses": 3, "fleet_devices": 2048},
}

WORKLOADS = ("paper_sweep", "defense_grid", "fleet_population")


def derive(seed, salt):
    """A 32-bit seed for `salt` derived from the benchmark seed."""
    digest = hashlib.sha256(f"{salt}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def paper_sweep(seed, size):
    trials = SIZES[size]["paper_trials"]
    scenarios = PAPER_SCENARIOS if size == "full" else PAPER_SCENARIOS[:4] + ("fuzzy/reference",)
    text = ("name = paper_sweep\n"
            f"scenarios = {', '.join(scenarios)}\n"
            f"trials = {trials}\n"
            f"master_seed = {derive(seed, 'paper_sweep')}\n")
    return text, len(scenarios)


def defense_grid(seed, size):
    k = SIZES[size]
    scenarios = MATRIX_SCENARIOS[:k["grid_scenarios"]]
    defenses = MATRIX_DEFENSES[:k["grid_defenses"]]
    seeds = [derive(seed, f"defense_grid/{i}") for i in range(k["grid_seeds"])]
    text = ("name = defense_grid\n"
            f"scenarios = {', '.join(scenarios)}\n"
            f"defense = {', '.join(defenses)}\n"
            f"query_budget = {', '.join(str(b) for b in MATRIX_BUDGETS)}\n"
            f"trials = {k['grid_trials']}\n"
            f"master_seed = {', '.join(str(s) for s in seeds)}\n")
    return text, len(scenarios) * len(defenses) * len(MATRIX_BUDGETS) * len(seeds)


def fleet_population(seed, size):
    devices = SIZES[size]["fleet_devices"]
    text = ("name = fleet_population\n"
            f"devices = {devices}\n"
            "wafer_size = 256\n"
            "wafer_cols = 16\n"
            "geometry = 16x8\n"
            "key_bits = 48\n"
            "enroll_samples = 5\n"
            "majority_wins = 3\n"
            "trials = 3\n"
            "sigma_noise_mhz = 0.05\n"
            f"base_seed = {derive(seed, 'fleet_population')}\n")
    shards = (devices + 63) // 64
    return text, shards


def generate(workload, seed, size="full"):
    """(spec text, planned job or shard count) for one workload."""
    return {"paper_sweep": paper_sweep, "defense_grid": defense_grid,
            "fleet_population": fleet_population}[workload](seed, size)
