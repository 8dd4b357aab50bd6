"""Ablation studies for the design choices the paper calls out.

These are not figures from the paper but experiments its design sections
imply (DESIGN.md's quality gates):

* ``selection_strategies`` — §IV-A's optimizations: cold-start step
  halving vs. sample-warm start vs. the provable bisection (Appendix B);
* ``block_size_sweep`` — the B trade-off of Appendix C (data movement
  shrinks with sqrt(B), raw streaming favours large B);
* ``overlap`` — §IV-E's overlapping of I/O, computation, communication;
* ``prefetch`` — Appendix A's optimal schedule vs. naive prediction order;
* ``randomization`` — the core §IV randomization switch, per workload;
* ``algorithms_on_skew`` — CanonicalMergeSort vs. NOW-Sort vs. external
  sample sort on skewed input (the robustness claim of §II);
* ``canonical_vs_striped`` — communication volume of §IV vs. §III.
"""

from __future__ import annotations

import numpy as np

from ..baselines.nowsort import NowSort
from ..baselines.samplesort import ExternalSampleSort
from ..cluster.cluster import Cluster
from ..cluster.machine import GiB, MiB
from ..core.canonical import CanonicalMergeSort
from ..core.striped import GlobalStripedMergeSort
from ..workloads.generators import generate_input, input_keys
from ..workloads.validation import validate_output
from .harness import paper_config, run_canonical
from .report import FigureResult

__all__ = [
    "selection_strategies",
    "block_size_sweep",
    "overlap_ablation",
    "prefetch_ablation",
    "randomization_ablation",
    "algorithms_on_skew",
    "canonical_vs_striped",
    "run_length_ablation",
    "pipeline_ablation",
    "straggler_ablation",
    "hierarchy_ablation",
]

_QUICK_P = 4


def selection_strategies(quick: bool = True) -> FigureResult:
    """Cost of the three multiway-selection strategies (§IV-A, App. B)."""
    n_nodes = _QUICK_P if quick else 16
    rows = []
    for strategy in ["basic", "sampled", "bisect"]:
        record = run_canonical(
            n_nodes, "random", config=paper_config(selection=strategy)
        )
        stats = record.stats
        rows.append(
            {
                "strategy": strategy,
                "element probes": stats.counter_total("selection_touches"),
                "block reads": stats.counter_total("selection_block_reads"),
                "cache hits": stats.counter_total("selection_cache_hits"),
                "fixup swaps": stats.counter_total("selection_fixup_swaps"),
                "selection wall [s]": record.phase_seconds("selection"),
            }
        )
    notes = [
        "the sample warm start (the paper's implementation) cuts probes and "
        "block reads by an order of magnitude versus the cold start",
        "bisection bounds the worst case at a modest constant overhead",
    ]
    return FigureResult(
        "ablation_selection",
        "Ablation: multiway-selection strategies",
        ["strategy", "element probes", "block reads", "cache hits",
         "fixup swaps", "selection wall [s]"],
        rows,
        paper_claims=[
            "sampling + caching make selection time negligible (§IV-A)",
            "the Appendix B variant provably scales to very large machines",
        ],
        notes=notes,
    )


def block_size_sweep(quick: bool = True) -> FigureResult:
    """Block-size trade-off on worst-case input (Appendix C)."""
    n_nodes = _QUICK_P if quick else 16
    rows = []
    for block_bytes in [1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB]:
        # Fixed downscale: smaller B means more, finer simulated blocks,
        # exactly how Figure 5's B = 2 MiB series is produced.
        record = run_canonical(
            n_nodes,
            "worstcase",
            config=paper_config(block_bytes=block_bytes),
        )
        rows.append(
            {
                "B [MiB]": block_bytes / MiB,
                "all-to-all volume / N": record.alltoall_volume_ratio,
                "run formation [s]": record.phase_seconds("run_formation"),
                "total [s]": record.total_seconds,
            }
        )
    return FigureResult(
        "ablation_blocksize",
        "Ablation: block size B on randomized worst-case input",
        ["B [MiB]", "all-to-all volume / N", "run formation [s]", "total [s]"],
        rows,
        paper_claims=[
            "data movement grows with sqrt(B) (Appendix C; Figure 5 supports it)",
            "smaller blocks cost a little I/O performance (more seeks)",
        ],
        notes=["movement ratio falls and run formation rises as B shrinks"],
    )


def overlap_ablation(quick: bool = True) -> FigureResult:
    """Effect of overlapping I/O with computation/communication (§IV-E)."""
    n_nodes = _QUICK_P if quick else 16
    rows = []
    for overlap in [True, False]:
        record = run_canonical(
            n_nodes, "random", config=paper_config(overlap=overlap)
        )
        rows.append(
            {
                "overlap": "on" if overlap else "off",
                "run formation [s]": record.phase_seconds("run_formation"),
                "all-to-all [s]": record.phase_seconds("all_to_all"),
                "total [s]": record.total_seconds,
            }
        )
    speedup = rows[1]["total [s]"] / rows[0]["total [s]"]
    return FigureResult(
        "ablation_overlap",
        "Ablation: overlapping I/O with computation and communication",
        ["overlap", "run formation [s]", "all-to-all [s]", "total [s]"],
        rows,
        paper_claims=[
            "run formation overlaps writing run i-1, sorting run i, fetching run i+1",
        ],
        notes=[f"disabling overlap slows the sort by {speedup:.2f}x"],
    )


def prefetch_ablation(quick: bool = True) -> FigureResult:
    """Optimal duality-based prefetch schedule vs naive order (App. A)."""
    n_nodes = _QUICK_P if quick else 16
    rows = []
    for optimal in [True, False]:
        for buffers in [8, 16, 32]:
            record = run_canonical(
                n_nodes,
                "random",
                config=paper_config(
                    optimal_prefetch=optimal, prefetch_buffers=buffers
                ),
            )
            rows.append(
                {
                    "schedule": "optimal" if optimal else "naive",
                    "buffers": buffers,
                    "merge [s]": record.phase_seconds("merge"),
                    "total [s]": record.total_seconds,
                }
            )
    return FigureResult(
        "ablation_prefetch",
        "Ablation: prefetch schedule and buffer count in the merge phase",
        ["schedule", "buffers", "merge [s]", "total [s]"],
        rows,
        paper_claims=[
            "the duality-based schedule is efficient already for Ω(D) buffers, "
            "the naive order may need Ω(D log D) (Appendix A)",
        ],
        notes=["optimal scheduling matters most at small buffer counts"],
    )


def randomization_ablation(quick: bool = True) -> FigureResult:
    """Randomization on/off across workloads — the core §IV insurance."""
    n_nodes = _QUICK_P if quick else 16
    rows = []
    for workload in ["random", "worstcase", "sorted", "reversed"]:
        for randomize in [True, False]:
            record = run_canonical(
                n_nodes, workload, config=paper_config(randomize=randomize)
            )
            rows.append(
                {
                    "workload": workload,
                    "randomized": "yes" if randomize else "no",
                    "all-to-all volume / N": record.alltoall_volume_ratio,
                    "total [s]": record.total_seconds,
                }
            )
    return FigureResult(
        "ablation_randomization",
        "Ablation: run-formation block randomization per workload",
        ["workload", "randomized", "all-to-all volume / N", "total [s]"],
        rows,
        paper_claims=[
            "randomized block selection makes all runs resemble the global "
            "distribution, keeping redistribution negligible",
        ],
        notes=[
            "only locally-ordered (worst-case) inputs need the insurance; "
            "random input is immune either way",
        ],
    )


def algorithms_on_skew(quick: bool = True) -> FigureResult:
    """Exact splitting vs splitter-guessing baselines on skewed input."""
    n_nodes = _QUICK_P if quick else 8
    config = paper_config(
        data_per_node_bytes=12 * GiB, memory_bytes=4 * GiB, downscale=24
    )
    rows = []
    for workload in ["random", "skewed"]:
        for label, factory in [
            ("CanonicalMergeSort", lambda c, cfg: CanonicalMergeSort(c, cfg)),
            ("NowSort (uniform splitters)", lambda c, cfg: NowSort(c, cfg, "uniform")),
            ("NowSort (sampled splitters)", lambda c, cfg: NowSort(c, cfg, "sampled")),
            ("ExternalSampleSort", lambda c, cfg: ExternalSampleSort(c, cfg)),
        ]:
            cluster = Cluster(n_nodes)
            em, inputs = generate_input(cluster, config, workload)
            before = input_keys(em, inputs)
            result = factory(cluster, config).sort(em, inputs)
            balanced = label == "CanonicalMergeSort"
            validate_output(
                before, result.output_keys(em), balanced=balanced
            ).raise_if_failed()
            imbalance = getattr(result, "imbalance", 1.0)
            rows.append(
                {
                    "workload": workload,
                    "algorithm": label,
                    "imbalance (max/ideal)": imbalance,
                    "io / N": result.stats.total_io_bytes
                    / config.total_bytes(n_nodes),
                    "total [s]": result.stats.scaled_total_time,
                }
            )
    return FigureResult(
        "ablation_skew",
        "Exact splitting vs splitter guessing (random vs skewed input)",
        ["workload", "algorithm", "imbalance (max/ideal)", "io / N", "total [s]"],
        rows,
        paper_claims=[
            "NOW-Sort only works efficiently for random inputs; in the worst "
            "case it deteriorates to a sequential algorithm (§II)",
            "splitter preprocessing costs an additional scan and still does "
            "not give exact partitioning (§II)",
        ],
        notes=[
            "CanonicalMergeSort's imbalance is exactly 1.0 by construction",
        ],
    )


def canonical_vs_striped(quick: bool = True) -> FigureResult:
    """Communication volume: CanonicalMergeSort (§IV) vs striping (§III)."""
    n_nodes = _QUICK_P if quick else 8
    config = paper_config(
        data_per_node_bytes=12 * GiB, memory_bytes=4 * GiB, downscale=24
    )
    rows = []
    for label, factory, getter in [
        (
            "CanonicalMergeSort",
            lambda c: CanonicalMergeSort(c, config),
            lambda res, em: np.concatenate(res.output_keys(em)),
        ),
        (
            "GlobalStripedMergeSort",
            lambda c: GlobalStripedMergeSort(c, config),
            lambda res, em: res.global_keys(em),
        ),
    ]:
        cluster = Cluster(n_nodes)
        em, inputs = generate_input(cluster, config, "random")
        before = np.sort(np.concatenate(input_keys(em, inputs)))
        result = factory(cluster).sort(em, inputs)
        out = getter(result, em)
        if not np.array_equal(before, out):
            raise AssertionError(f"{label} produced an incorrect ordering")
        total = config.total_bytes(n_nodes)
        rows.append(
            {
                "algorithm": label,
                "communication / N": result.stats.network_bytes / total,
                "io / N": result.stats.total_io_bytes / total,
                "total [s]": result.stats.scaled_total_time,
            }
        )
    return FigureResult(
        "ablation_striped",
        "CanonicalMergeSort vs globally striped mergesort",
        ["algorithm", "communication / N", "io / N", "total [s]"],
        rows,
        paper_claims=[
            "the striped algorithm needs 4-5 communications for two passes; "
            "CanonicalMergeSort communicates the data only once in the best case",
            "both need about two passes of I/O (4N bytes)",
        ],
        notes=[],
    )


def run_length_ablation(quick: bool = True) -> FigureResult:
    """Replacement-selection run lengths (§VII / Knuth 5.4.1).

    The outlook's longer-runs idea: snow-plow run formation yields runs of
    expected length 2M on random input, halving R — "by decreasing the
    number of runs, we can further increase the block size".
    """
    from ..algos.replacement_selection import run_length_stats

    n = 20_000 if quick else 200_000
    memory = 512
    rng = np.random.default_rng(0)
    inputs = {
        "random": rng.integers(0, 2 ** 60, n),
        "sorted": np.arange(n),
        "reverse-sorted": np.arange(n)[::-1].copy(),
        "nearly sorted (1% swaps)": _nearly_sorted(rng, n),
    }
    rows = []
    for label, keys in inputs.items():
        stats = run_length_stats(keys, memory)
        load_sort_runs = -(-n // memory)
        rows.append(
            {
                "input": label,
                "runs (replacement sel.)": stats["n_runs"],
                "runs (memory-load sort)": load_sort_runs,
                "mean run / M": stats["length_over_memory"],
            }
        )
    return FigureResult(
        "ablation_runlength",
        "Ablation: replacement-selection run formation (§VII longer runs)",
        ["input", "runs (replacement sel.)", "runs (memory-load sort)",
         "mean run / M"],
        rows,
        paper_claims=[
            "longer runs decrease R, allowing a larger block size (§VII)",
            "expected run length 2M for random input (Knuth 5.4.1)",
        ],
        notes=["sorted input collapses to one run; reverse-sorted to runs of M"],
    )


def _nearly_sorted(rng, n):
    keys = np.arange(n)
    idx = rng.integers(0, n - 1, n // 100)
    keys[idx], keys[idx + 1] = keys[idx + 1].copy(), keys[idx].copy()
    return keys


def pipeline_ablation(quick: bool = True) -> FigureResult:
    """Pipelined vs batch sorting: I/O passes saved (§VII).

    With a generator source and a sorted-order sink, the input and output
    passes disappear: ~2N bytes of I/O instead of ~4N.
    """
    from ..core.pipeline import ArraySource, CollectingSink, PipelinedMergeSort
    from ..em.context import ExternalMemory

    n_nodes = _QUICK_P if quick else 8
    config = paper_config(
        data_per_node_bytes=12 * GiB, memory_bytes=4 * GiB, downscale=24
    )
    rows = []

    # Batch mode: the standard CanonicalMergeSort.
    record = run_canonical(n_nodes, "random", config=config)
    n_sim = record.simulated_bytes
    rows.append(
        {
            "mode": "batch (disk to disk)",
            "io passes": record.stats.total_io_bytes / n_sim / 2,
            "total [s]": record.total_seconds,
        }
    )

    # Pipelined: generator source, sorted-order sink.
    cluster = Cluster(n_nodes)
    em = ExternalMemory(cluster, config.block_bytes, config.block_elems)
    rng = np.random.default_rng(config.seed)
    inputs = [
        rng.integers(0, 2 ** 60, config.keys_per_node, dtype=np.uint64)
        for _ in range(n_nodes)
    ]
    sources = [ArraySource(k, config.block_elems) for k in inputs]
    sinks = [CollectingSink() for _ in range(n_nodes)]
    result = PipelinedMergeSort(cluster, config).sort(em, sources, sinks)
    got = np.concatenate([s.keys for s in sinks])
    want = np.sort(np.concatenate(inputs))
    if not np.array_equal(got, want):
        raise AssertionError("pipelined sort produced incorrect output")
    rows.append(
        {
            "mode": "pipelined (source to sink)",
            "io passes": result.stats.total_io_bytes / n_sim / 2,
            "total [s]": result.stats.scaled_total_time,
        }
    )
    return FigureResult(
        "ablation_pipeline",
        "Ablation: pipelined sorting (§VII) vs batch sorting",
        ["mode", "io passes", "total [s]"],
        rows,
        paper_claims=[
            "pipelined run formation obtains data from a generator; output "
            "feeds a postprocessor in sorted order (§VII)",
        ],
        notes=["the pipeline saves the input read and the output write pass"],
    )


def straggler_ablation(quick: bool = True) -> FigureResult:
    """Stragglers under fault injection (the §VII fault-tolerance question).

    Degrading one disk of one node slows the whole machine to the
    straggler's pace — the cost that replication (Google's factor-3 in
    disks) buys its way out of.
    """
    from ..cluster.faults import inject_disk_slowdown
    from ..workloads.generators import generate_input, input_keys
    from ..workloads.validation import validate_output
    from ..core.canonical import CanonicalMergeSort

    n_nodes = _QUICK_P if quick else 8
    config = paper_config(
        data_per_node_bytes=12 * GiB, memory_bytes=4 * GiB, downscale=24
    )
    rows = []
    for label, factor in [("healthy", None), ("one disk 2x slower", 2.0),
                          ("one disk 4x slower", 4.0),
                          ("one disk 8x slower", 8.0)]:
        cluster = Cluster(n_nodes)
        em, inputs = generate_input(cluster, config, "random")
        before = input_keys(em, inputs)
        if factor is not None:
            inject_disk_slowdown(cluster, node=0, disk=0, factor=factor)
        result = CanonicalMergeSort(cluster, config).sort(em, inputs)
        validate_output(before, result.output_keys(em)).raise_if_failed()
        walls = [pe.walls["merge"] for pe in result.stats.workers]
        rows.append(
            {
                "fault": label,
                "total [s]": result.stats.scaled_total_time,
                "merge imbalance (max/mean)": max(walls) / (sum(walls) / len(walls)),
            }
        )
    base = rows[0]["total [s]"]
    for row in rows:
        row["slowdown"] = row["total [s]"] / base
    return FigureResult(
        "ablation_faults",
        "Fault injection: one degraded disk gates the machine (§VII)",
        ["fault", "total [s]", "slowdown", "merge imbalance (max/mean)"],
        rows,
        paper_claims=[
            "when scaling to very large machines, fault tolerance will play "
            "a bigger role (§VII, open question)",
        ],
        notes=[
            "correctness is unaffected (validated); only the clock suffers, "
            "and barriers make the slowest PE's disk everyone's problem",
        ],
    )


def hierarchy_ablation(quick: bool = True) -> FigureResult:
    """Hierarchical parallelism (§IV-E): nodes-as-PEs vs cores-as-PEs.

    "Taking each processor core as a PE would lead to a larger number P,
    negatively influencing some of the stated properties of the
    algorithm."  Same total hardware both ways: N nodes of 8 cores and 4
    disks, either as N communicating PEs exploiting the cores/disks
    internally, or as 4N quarter-node PEs that all communicate.
    """
    base_nodes = 2 if quick else 8
    data_per_pe = 12 * GiB
    mem_per_pe = 4 * GiB

    def run(n_pes, spec, label):
        config = paper_config(
            data_per_node_bytes=data_per_pe * base_nodes / n_pes,
            memory_bytes=mem_per_pe * base_nodes / n_pes,
            downscale=24,
        )
        record = run_canonical(n_pes, "worstcase", config=config, spec=spec)
        stats = record.stats
        return {
            "configuration": label,
            "#PEs": n_pes,
            "all-to-all volume / N": record.alltoall_volume_ratio,
            "selection block reads": stats.counter_total("selection_block_reads"),
            "total [s]": record.total_seconds,
        }

    from ..cluster.machine import PAPER_MACHINE

    rows = [
        run(
            base_nodes,
            PAPER_MACHINE,
            f"{base_nodes} nodes as PEs (8 cores, 4 disks each)",
        ),
        run(
            4 * base_nodes,
            PAPER_MACHINE.with_overrides(cores_per_node=2, disks_per_node=1),
            f"{4 * base_nodes} quarter-node PEs (2 cores, 1 disk each)",
        ),
    ]
    return FigureResult(
        "ablation_hierarchy",
        "Hierarchical parallelism (§IV-E): one PE per node vs per core group",
        ["configuration", "#PEs", "all-to-all volume / N",
         "selection block reads", "total [s]"],
        rows,
        paper_claims=[
            "a PE is defined with respect to communication; cores and disks "
            "inside a node are exploited as hierarchical parallelism (§IV-E)",
            "core-as-PE increases P, hurting the m >> P·B·log P condition and "
            "the per-PE overheads",
        ],
        notes=[
            "same total hardware: larger P raises redistribution overhead "
            "and selection traffic",
        ],
    )
