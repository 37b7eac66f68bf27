"""Ground-truth synthetic systems: what the machines actually are.

The reproduction cannot scrape top500.org, so the *model path* runs on a
synthetic November-2024-like list.  A :class:`TrueSystem` (defined in
:mod:`repro.data.top500`, so that loading the committed default list
never imports this generator) holds the full physical truth about one
machine — every field populated (except
accelerator fields on CPU-only systems, which are genuinely absent, not
hidden).  What any data scenario *sees* is decided later by the
missingness plan (:mod:`repro.data.missingness`); truth and visibility
are kept strictly separate so tests can assert against the truth while
the pipeline only ever touches masked views.

Distributions are calibrated to the real list's public shape:

* Rmax follows a power law from ≈1.74 EFlop/s at rank 1 down to
  ≈2.3 PFlop/s at rank 500 (exponent ≈1.06);
* ≈45 % of systems are accelerated, concentrated at the top (the paper:
  systems 151-500 are mostly CPU-based);
* HPL efficiency (Rmax/Rpeak) ≈0.70 for accelerated, ≈0.78 CPU-only;
* countries follow the list's national shares; 2016-2024 install years.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache
from typing import TypeVar

import numpy as np

from repro.data.top500 import TrueSystem
from repro.hardware.cpus import CPU_CATALOG
from repro.hardware.gpus import GPU_CATALOG
from repro.hardware.memory import MemoryType

T = TypeVar("T")

#: Rmax power-law calibration (TFlop/s).
RMAX_RANK1_TFLOPS: float = 1.742e6
RMAX_RANK500_TFLOPS: float = 2.3e3

#: Country share of the list (approximate Nov-2024 shares).
COUNTRY_WEIGHTS: tuple[tuple[str, float], ...] = (
    ("United States", 0.345),
    ("China", 0.125),
    ("Germany", 0.08),
    ("Japan", 0.075),
    ("France", 0.05),
    ("United Kingdom", 0.035),
    ("South Korea", 0.025),
    ("Netherlands", 0.025),
    ("Italy", 0.025),
    ("Canada", 0.02),
    ("Brazil", 0.02),
    ("Saudi Arabia", 0.02),
    ("Sweden", 0.015),
    ("Australia", 0.015),
    ("Spain", 0.015),
    ("Finland", 0.01),
    ("Switzerland", 0.01),
    ("Poland", 0.01),
    ("India", 0.01),
    ("Taiwan", 0.01),
    ("Russia", 0.015),
    ("Norway", 0.01),
    ("Ireland", 0.01),
    ("Singapore", 0.01),
    ("Czechia", 0.01),
    ("Luxembourg", 0.005),
    ("Austria", 0.005),
    ("Belgium", 0.005),
    ("Portugal", 0.005),
    ("Denmark", 0.005),
    ("Morocco", 0.005),
    ("Israel", 0.005),
    ("Thailand", 0.005),
    ("United Arab Emirates", 0.005),
)

#: Accelerator model mix for accelerated systems (weights sum to 1).
GPU_MIX: tuple[tuple[str, float], ...] = (
    ("h100", 0.28), ("a100", 0.22), ("v100", 0.10), ("gh200", 0.07),
    ("mi250x", 0.07), ("mi300a", 0.05), ("h200", 0.05), ("pvc", 0.04),
    ("a100-40", 0.05), ("mi100", 0.03), ("p100", 0.02), ("sx-aurora", 0.02),
)

#: CPU model mix (weights sum to 1).
CPU_MIX: tuple[tuple[str, float], ...] = (
    ("epyc-9654", 0.16), ("epyc-7763", 0.16), ("xeon-8480", 0.14),
    ("epyc-7742", 0.10), ("xeon-8358", 0.08), ("xeon-8280", 0.07),
    ("epyc-9754", 0.06), ("xeon-8160", 0.05), ("grace", 0.04),
    ("a64fx", 0.03), ("xeon-6148", 0.04), ("epyc-7601", 0.03),
    ("power9", 0.02), ("sw26010-pro", 0.01), ("xeon-8592", 0.01),
)

#: Fraction of systems carrying accelerators, by rank band.
ACCEL_PROB_BY_BAND: tuple[tuple[int, float], ...] = (
    (25, 0.88), (100, 0.72), (150, 0.55), (300, 0.38), (500, 0.30),
)

#: Segments and weights.
SEGMENT_WEIGHTS: tuple[tuple[str, float], ...] = (
    ("Research", 0.42), ("Industry", 0.30), ("Government", 0.12),
    ("Academic", 0.12), ("Vendor", 0.04),
)

VENDORS: tuple[str, ...] = (
    "HPE", "EVIDEN", "Lenovo", "DELL EMC", "NVIDIA", "Fujitsu",
    "Inspur", "Sugon", "NEC", "Penguin Computing", "MEGWARE", "Atos",
)

INTERCONNECTS: tuple[str, ...] = (
    "Slingshot-11", "Infiniband NDR", "Infiniband HDR", "Infiniband EDR",
    "Omni-Path", "25G Ethernet", "Tofu interconnect D", "Aries",
)


def rmax_for_rank(rank: int) -> float:
    """Power-law Rmax (TFlop/s) for a rank in [1, 500]."""
    if not 1 <= rank <= 500:
        raise ValueError(f"rank must be in [1, 500], got {rank}")
    alpha = np.log(RMAX_RANK1_TFLOPS / RMAX_RANK500_TFLOPS) / np.log(500.0)
    return float(RMAX_RANK1_TFLOPS * rank ** (-alpha))


def accel_probability(rank: int) -> float:
    """Probability a system at ``rank`` is accelerated."""
    for upper, prob in ACCEL_PROB_BY_BAND:
        if rank <= upper:
            return prob
    return ACCEL_PROB_BY_BAND[-1][1]


@cache
def _cdf(table: tuple[tuple[str, float], ...]) -> tuple[tuple[str, ...], np.ndarray]:
    """``(names, cdf)`` of one weight table, exactly as ``choice`` builds it."""
    weights = np.array([w for _, w in table], dtype=float)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return tuple(n for n, _ in table), cdf


def _weighted_choice(rng: np.random.Generator, table: tuple[tuple[str, float], ...]) -> str:
    """``rng.choice(names, p=weights)`` without its per-call set-up.

    ``Generator.choice`` normalizes ``p``, takes ``cdf = p.cumsum();
    cdf /= cdf[-1]`` and draws ``cdf.searchsorted(rng.random(),
    side="right")``; doing exactly that against a cached CDF consumes
    the same one double from the stream and picks the same name.
    """
    names, cdf = _cdf(table)
    return names[int(cdf.searchsorted(rng.random(), side="right"))]


def _uniform_choice(rng: np.random.Generator, seq: Sequence[T]) -> T:
    """``rng.choice(seq)`` for a uniform pick: one bounded integer draw."""
    return seq[int(rng.integers(0, len(seq)))]


def generate_true_system(rank: int, rng: np.random.Generator,
                         *, accelerated: bool) -> TrueSystem:
    """Generate the ground truth for one system.

    ``accelerated`` is decided by the caller (the generator enforces an
    exact accelerated-count for the list; see
    :func:`repro.data.top500.generate_top500`).
    """
    rmax = rmax_for_rank(rank) * float(rng.uniform(0.96, 1.04))
    country = _weighted_choice(rng, COUNTRY_WEIGHTS)

    cpu_key = _weighted_choice(rng, CPU_MIX)
    cpu = CPU_CATALOG[cpu_key]

    if accelerated:
        gpu_key = _weighted_choice(rng, GPU_MIX)
        gpu = GPU_CATALOG[gpu_key]
        hpl_eff = float(rng.uniform(0.62, 0.78))
        # Per-GPU sustained HPL contribution (TFlop/s): calibrated to
        # Frontier (1.35 EF / 37.6k MI250X ≈ 36 TF) and Eos (121 PF /
        # 4.6k H100 ≈ 26 TF), scaled by TDP as a generation proxy.
        per_gpu_tflops = 32.0 * (gpu.tdp_w / 600.0) * float(rng.uniform(0.8, 1.2))
        n_gpus = max(int(rmax / per_gpu_tflops), 4)
        gpus_per_node = _uniform_choice(rng, (4, 4, 4, 8))
        n_nodes = max(n_gpus // gpus_per_node, 1)
        n_gpus = n_nodes * gpus_per_node
        sockets = 1 if gpu_key == "gh200" else 2
        n_cpus = n_nodes * sockets
        accel_cores = n_gpus * 6912 // 64  # SM-equivalent "cores" per list convention
        accel_cores *= 64
    else:
        gpu_key = None
        hpl_eff = float(rng.uniform(0.70, 0.85))
        # Per-socket HPL: Frontera-class Xeons sustain ≈0.05 TF/core.
        per_cpu_tflops = cpu.cores * 0.05 * float(rng.uniform(0.85, 1.15))
        n_cpus = max(int(rmax / per_cpu_tflops), 2)
        sockets = 2
        n_nodes = max(n_cpus // sockets, 1)
        n_cpus = n_nodes * sockets
        n_gpus = 0
        accel_cores = 0

    total_cores = n_cpus * cpu.cores + accel_cores
    rpeak = rmax / hpl_eff

    # Power: component-ish truth with site-to-site spread (Top500 power
    # is LINPACK-load, close to the component sum plus interconnect).
    gpu_tdp = GPU_CATALOG[gpu_key].tdp_w if gpu_key else 0.0
    power_w = (n_cpus * cpu.tdp_w + n_gpus * gpu_tdp) * float(rng.uniform(0.95, 1.2))
    power_kw = max(power_w / 1e3, 40.0)

    memory_gb = n_nodes * _uniform_choice(rng, (256.0, 384.0, 512.0, 768.0, 1024.0))
    mem_type = MemoryType.DDR5 if cpu.year >= 2022 else MemoryType.DDR4
    # Parallel-filesystem share grows superlinearly at the top of the
    # list (Frontier's ~700 PB Orion).  The 5 TB/node base exceeds the
    # model's 2 TB/node default, so public SSD reveals mostly *increase*
    # embodied carbon — the direction the paper reports in Fig. 9.
    # multiplier tops out ≈15× (Frontier: ~700 PB over ~9.4k nodes is
    # ~74 TB/node ≈ 15× the 5 TB/node base).
    fs_multiplier = 1.0 + 14.0 * (rmax / RMAX_RANK1_TFLOPS) ** 1.1
    ssd_gb = n_nodes * 5000.0 * fs_multiplier * float(rng.uniform(0.6, 2.2))

    year_bias = max(2024 - int(rng.exponential(2.2)), 2016)
    names = _system_name(rank, rng)

    return TrueSystem(
        rank=rank,
        name=names,
        country=country,
        region=_region_for(country, rng),
        year=year_bias,
        segment=_weighted_choice(rng, SEGMENT_WEIGHTS),
        vendor=_uniform_choice(rng, VENDORS),
        processor=cpu_key,
        processor_speed_mhz=_uniform_choice(rng, (2000.0, 2250.0, 2450.0, 2600.0, 3100.0)),
        accelerator=gpu_key,
        n_nodes=n_nodes,
        n_cpus=n_cpus,
        n_gpus=n_gpus,
        total_cores=total_cores,
        accelerator_cores=accel_cores,
        rmax_tflops=rmax,
        rpeak_tflops=rpeak,
        nmax=int(8e6 * (rmax / 1e5) ** 0.5),
        power_kw=power_kw,
        energy_efficiency=rmax / power_kw,
        memory_gb=memory_gb,
        memory_type=mem_type,
        ssd_gb=ssd_gb,
        utilization=float(rng.uniform(0.6, 0.95)),
        annual_energy_kwh=power_kw * 8760.0 * float(rng.uniform(0.75, 0.95)),
        interconnect=_uniform_choice(rng, INTERCONNECTS),
        os="Linux",
        cooling=_uniform_choice(rng, ("liquid", "air", "liquid")),
    )


_NAME_STEMS = (
    "Aurora", "Borealis", "Cascadia", "Dynamo", "Electra", "Fulcrum",
    "Glacier", "Horizon", "Ion", "Juniper", "Kelvin", "Lumen", "Meridian",
    "Nimbus", "Orion", "Pulsar", "Quasar", "Ridge", "Summit", "Tempest",
    "Umbra", "Vortex", "Wavelet", "Xenon", "Yukon", "Zephyr",
)


def _system_name(rank: int, rng: np.random.Generator) -> str:
    stem = _uniform_choice(rng, _NAME_STEMS)
    suffix = int(rng.integers(1, 99))
    return f"{stem}-{suffix} (R{rank})"


#: Sub-national grid regions a system in each country may sit in.
_REGIONS: dict[str, tuple[str, ...]] = {
    "United States": ("us-tva", "us-california", "us-illinois",
                      "us-new-mexico", "us-texas", "us-washington",
                      "us-virginia", "us-iowa"),
    "Finland": ("fi-hydro-contract",),
    "Germany": ("de-bavaria",),
    "Switzerland": ("ch-cscs",),
    "Italy": ("it-cineca",),
    "Spain": ("es-bsc",),
    "France": ("fr-nuclear",),
    "United Kingdom": ("uk-edinburgh",),
    "Japan": ("jp-kobe", "jp-tokyo"),
    "China": ("cn-wuxi", "cn-guangzhou"),
    "South Korea": ("kr-sejong",),
    "Australia": ("au-pawsey",),
    "Saudi Arabia": ("sa-kaust",),
}


def _region_for(country: str, rng: np.random.Generator) -> str | None:
    """Assign a sub-national grid region to a minority of systems."""
    pool = _REGIONS.get(country)
    if pool is None or rng.uniform() > 0.55:
        return None
    return _uniform_choice(rng, pool)
