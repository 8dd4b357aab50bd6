"""SortBenchmark categories (paper Section VI, second half).

The paper's headline results are SortBenchmark entries with 100-byte
records and 10-byte keys on 195 nodes / 780 disks:

* **Indy GraySort** — 10^14 bytes in just under 3 hours ≈ 564 GB/min,
  leading the 2009 category;
* **MinuteSort** — 955 GB sorted within one minute (3.6x the former
  record of TokuSampleSort), an *internal* sort since N < M;
* **TerabyteSort** — 10^12 bytes in < 64 s, about a third of
  TokuSampleSort's 2007 time.

``quick=True`` simulates a 16-node slice of the machine under the full
195-node fabric congestion and reports machine-scale numbers by scaling
node-proportional quantities (data volume) to 195 nodes — honest because
the algorithm is communication-light and per-node load is identical.
``quick=False`` simulates all 195 nodes.
"""

from __future__ import annotations

import math
from ..cluster.machine import GiB, MachineSpec, MiB, PAPER_MACHINE
from .harness import run_canonical, sortbench_config
from .report import FigureResult

__all__ = ["graysort", "minutesort", "terabytesort", "PAPER_NODES", "PAPER_DISKS"]

#: The paper's SortBenchmark machine.
PAPER_NODES = 195
PAPER_DISKS = 780


def _congested_spec(full_nodes: int = PAPER_NODES) -> MachineSpec:
    """A spec whose network already carries ``full_nodes`` of congestion.

    Used by quick mode so a 16-node slice sees the 195-node fabric.
    """
    bw = PAPER_MACHINE.net_bandwidth(full_nodes)
    return PAPER_MACHINE.with_overrides(
        net_p2p_bandwidth=bw, net_min_bandwidth=bw, net_congestion=0.0
    )


def _nodes_and_spec(quick: bool):
    if quick:
        return 16, _congested_spec()
    return PAPER_NODES, PAPER_MACHINE


def graysort(quick: bool = True) -> FigureResult:
    """Indy GraySort: sort 10^14 bytes, metric is GB sorted per minute."""
    n_nodes, spec = _nodes_and_spec(quick)
    data_per_node = 1e14 / PAPER_NODES
    # R = 40 runs at 12 GiB of run memory; keep >= R blocks per piece.
    config = sortbench_config(data_per_node_bytes=data_per_node, downscale=24)
    record = run_canonical(n_nodes, "gensort", config=config, spec=spec)
    machine_bytes = data_per_node * PAPER_NODES
    seconds = record.total_seconds
    gb_min = (machine_bytes / 1e9) / (seconds / 60.0)
    rows = [
        {"entry": "this reproduction (simulated)", "nodes": PAPER_NODES,
         "disks": PAPER_DISKS, "GB/min": gb_min, "time [s]": seconds},
        {"entry": "DEMSort (paper, 2009 winner)", "nodes": 195, "disks": 780,
         "GB/min": 564.0, "time [s]": 1e14 / 1e9 / 564.0 * 60.0},
        {"entry": "Yahoo Hadoop (2009)", "nodes": 3452, "disks": 13808,
         "GB/min": 578.0, "time [s]": 1e14 / 1e9 / 578.0 * 60.0},
        {"entry": "Google MapReduce (2008, 10x data)", "nodes": 4000,
         "disks": 48000, "GB/min": 1e15 / 1e9 / (6 * 3600 + 120) * 60.0,
         "time [s]": 6 * 3600 + 120},
    ]
    notes = [
        f"simulated machine sorts 10^14 bytes in {seconds:,.0f} s = {gb_min:,.0f} GB/min "
        f"(paper: 564 GB/min; ratio {gb_min / 564.0:.2f})",
        f"runs formed R = {record.result.n_runs} (paper-scale R = "
        f"{math.ceil(data_per_node / (12 * GiB))})",
        "competitor rows are the published numbers the paper cites, not code",
    ]
    if quick:
        notes.append(
            f"quick mode: {record.n_nodes}-node slice under full-fabric congestion, "
            "scaled to 195 nodes"
        )
    return FigureResult(
        "graysort",
        "Indy GraySort (10^14 bytes, 100-byte records)",
        ["entry", "nodes", "disks", "GB/min", "time [s]"],
        rows,
        paper_claims=[
            "564 GB/min with 195 nodes and 780 disks, leading Indy GraySort 2009",
            "Yahoo's 578 GB/min uses 17x the nodes — far worse efficiency",
            "Google's informal 1 PB run uses 61x the disks for 5x the speed",
        ],
        notes=notes,
    )


def minutesort(quick: bool = True, budget_seconds: float = 60.0) -> FigureResult:
    """MinuteSort: how much data sorts in one minute (N < M, internal)."""
    n_nodes, spec = _nodes_and_spec(quick)

    def time_for(total_bytes: float) -> float:
        node_bytes = total_bytes / PAPER_NODES
        downscale = max(1.0, node_bytes / (96 * 8 * MiB))  # ~96 blocks/node
        config = sortbench_config(node_bytes, downscale=downscale)
        record = run_canonical(n_nodes, "gensort", config=config, spec=spec)
        return record.total_seconds

    lo, hi = 100e9, 4000e9
    for _ in range(9):
        mid = (lo + hi) / 2
        if time_for(mid) <= budget_seconds:
            lo = mid
        else:
            hi = mid
    sorted_gb = lo / 1e9
    rows = [
        {"entry": "this reproduction (simulated)", "data [GB]": sorted_gb,
         "nodes": PAPER_NODES},
        {"entry": "DEMSort (paper, 2009)", "data [GB]": 955.0, "nodes": 195},
        {"entry": "TokuSampleSort (2007 record)", "data [GB]": 955.0 / 3.6,
         "nodes": 400},
        {"entry": "Yahoo Hadoop (2009)", "data [GB]": 500.0, "nodes": 1406},
    ]
    return FigureResult(
        "minutesort",
        "MinuteSort (data sorted within 60 seconds)",
        ["entry", "data [GB]", "nodes"],
        rows,
        paper_claims=[
            "955 GB in one minute — 3.6x the former TokuSampleSort record",
            "Yahoo reaches about half with a machine 7 times as large",
            "N < M: the sort is merely internal, 2 I/Os per block",
        ],
        notes=[
            f"simulated: {sorted_gb:,.0f} GB within {budget_seconds:.0f} s "
            f"(paper: 955 GB; ratio {sorted_gb / 955.0:.2f})",
        ],
    )


def terabytesort(quick: bool = True) -> FigureResult:
    """TerabyteSort: time to sort 10^12 bytes (rendered obsolete in 2009)."""
    n_nodes, spec = _nodes_and_spec(quick)
    node_bytes = 1e12 / PAPER_NODES
    downscale = max(1.0, node_bytes / (96 * 8 * MiB))
    config = sortbench_config(node_bytes, downscale=downscale)
    record = run_canonical(n_nodes, "gensort", config=config, spec=spec)
    seconds = record.total_seconds
    rows = [
        {"entry": "this reproduction (simulated)", "time [s]": seconds,
         "nodes": PAPER_NODES, "disks": PAPER_DISKS},
        {"entry": "DEMSort (paper)", "time [s]": 64.0, "nodes": 195, "disks": 780},
        {"entry": "TokuSampleSort (2007 winner)", "time [s]": 64.0 * 3.0,
         "nodes": 400, "disks": 780 / 3},
        {"entry": "Google (informal, 2008)", "time [s]": 68.0, "nodes": 1000,
         "disks": 12000},
    ]
    return FigureResult(
        "terabytesort",
        "TerabyteSort (10^12 bytes)",
        ["entry", "time [s]", "nodes", "disks"],
        rows,
        paper_claims=[
            "10^12 bytes in less than 64 s — a third of TokuSampleSort's time "
            "with the same cores and a third of the disks",
            "slightly better than Google's informal result that used 12000 disks",
        ],
        notes=[
            f"simulated: {seconds:,.1f} s (paper: < 64 s; N < M so the in-memory "
            "fast path with 2 I/Os per block applies)",
        ],
    )


def daytona(quick: bool = True) -> FigureResult:
    """Daytona-style robustness: skewed benchmark records.

    The paper entered the Indy category (uniform keys assumed); the
    Daytona category requires surviving arbitrary key distributions.
    Exact multiway selection makes CanonicalMergeSort Daytona-robust for
    free — this experiment sorts duplicate-heavy records and contrasts
    the NOW-Sort baseline's collapse on the same input.
    """
    from ..baselines.nowsort import NowSort
    from ..cluster.cluster import Cluster
    from ..core.canonical import CanonicalMergeSort
    from ..workloads.generators import input_keys
    from ..workloads.gensort import generate_gensort_input
    from ..workloads.validation import validate_output

    n_nodes, spec = _nodes_and_spec(quick)
    data_per_node = 1e12 / PAPER_NODES * 4  # a few TB total: skew demo
    config = sortbench_config(data_per_node, downscale=8)
    rows = []
    for label, factory, balanced in [
        ("CanonicalMergeSort (exact splitting)",
         lambda c: CanonicalMergeSort(c, config), True),
        ("NowSort (uniform splitters)",
         lambda c: NowSort(c, config, "uniform"), False),
    ]:
        cluster = Cluster(n_nodes, spec=spec)
        em, inputs = generate_gensort_input(cluster, config, seed=3, skew=True)
        before = input_keys(em, inputs)
        result = factory(cluster).sort(em, inputs)
        validate_output(
            before, result.output_keys(em), balanced=balanced
        ).raise_if_failed()
        rows.append(
            {
                "algorithm": label,
                "imbalance (max/ideal)": getattr(result, "imbalance", 1.0),
                "total [s]": result.stats.scaled_total_time,
            }
        )
    return FigureResult(
        "daytona",
        "Daytona-style robustness (duplicate-heavy benchmark records)",
        ["algorithm", "imbalance (max/ideal)", "total [s]"],
        rows,
        paper_claims=[
            "exact splitting guarantees the canonical balanced output for "
            "any input distribution (§IV)",
            "NOW-Sort deteriorates when the data concentrates (§II)",
        ],
        notes=[
            "the paper entered Indy; Daytona robustness falls out of the "
            "algorithm's exactness with no extra machinery",
        ],
    )
