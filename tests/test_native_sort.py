"""End-to-end tests of the native backend: real files, real processes.

Sizes are tiny (the CI container has one CPU and the workers time-slice
it), but every configuration still crosses all four phases, multiple
runs, and the full pipe mesh.
"""

import hashlib
import json
import mmap
import multiprocessing as mp
import os
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.config import ConfigError, SortConfig
from repro.native import NativeJob, NativeSorter, NativeSortError, native_sort
from repro.native.comm import PipeComm
from repro.native.records import NATIVE_DTYPE, generate_records
from repro.native.worker import _run_phases
from repro.workloads.gensort import record_keys
from repro.workloads.validation import validate_output

KiB = 1024


def native_config(**overrides):
    base = dict(
        data_per_node_bytes=128 * KiB,   # 8192 records / worker
        memory_bytes=48 * KiB,
        block_bytes=2 * KiB,             # 128 records / block
        seed=42,
    )
    base.update(overrides)
    return SortConfig(**base)


def run_sort(tmp_path, n_workers=3, skew=False, **overrides):
    cfg = native_config(**overrides)
    return native_sort(
        cfg, n_workers=n_workers, spill_dir=str(tmp_path), skew=skew, timeout=120
    )


def ground_truth_check(result, skew=False):
    """Full valsort + permutation check against regenerated input keys."""
    job = result.job
    keys_in = record_keys(
        0, job.total_records, seed=job.config.seed, skew=skew
    )
    report = validate_output([keys_in], result.output_keys())
    # validate_output's balance check uses len(output_parts) as P, which
    # holds here since every rank contributes one part.
    assert report.ok, report.issues
    return report


def test_multiworker_sort_is_correct(tmp_path):
    result = run_sort(tmp_path, n_workers=3)
    report = result.validate()
    assert report.ok, report.issues
    ground_truth_check(result)
    assert result.stats.n_runs > 1  # really external: several runs


def test_payloads_travel_with_their_keys(tmp_path):
    """Records, not bare keys: each output payload still matches its key."""
    result = run_sort(tmp_path, n_workers=2)
    keys_in = record_keys(0, result.job.total_records, seed=42)
    for rank in range(2):
        records = result.output_records(rank)
        assert np.array_equal(keys_in[records["payload"]], records["key"])


def test_single_worker(tmp_path):
    result = run_sort(tmp_path, n_workers=1)
    assert result.validate().ok
    ground_truth_check(result)


def test_single_run(tmp_path):
    # M large enough that all data fits in one run: no merge work to split.
    result = run_sort(
        tmp_path, n_workers=2, memory_bytes=3 * 128 * KiB
    )
    assert result.stats.n_runs == 1
    assert result.validate().ok
    ground_truth_check(result)


def test_skewed_duplicate_heavy_input(tmp_path):
    result = run_sort(tmp_path, n_workers=3, skew=True)
    assert result.validate().ok, result.validate().issues
    ground_truth_check(result, skew=True)


def test_selection_strategies(tmp_path):
    """Native phase 2 ignores ``config.selection``: it always selects
    from the pieces' key windows, so one non-default strategy stands for
    all three and must sort exactly like the default."""
    result = run_sort(tmp_path, n_workers=2, selection="bisect")
    assert result.validate().ok
    ground_truth_check(result)


def test_no_randomize(tmp_path):
    result = run_sort(tmp_path, n_workers=2, randomize=False)
    assert result.validate().ok
    ground_truth_check(result)


def test_internal_sort_sent_records_counts_what_changed_rank(tmp_path):
    """Each rank counts the records its run-formation exchange shipped to
    peers, so the ranks' counts add up to every record whose piece lies
    on another rank than its chunk.  Without randomization run r is the
    r-th chunk of consecutive records on every rank, and rank d's piece is
    the d-th exact quantile of the run in (key, rank, position) order."""
    result = run_sort(tmp_path, n_workers=2, randomize=False)
    job = result.job
    n, chunk = job.records_per_worker, job.chunk_records
    keys = record_keys(0, job.total_records, seed=job.config.seed).reshape(2, n)
    changed = 0
    for lo in range(0, n, chunk):
        chunks = [np.sort(keys[rank, lo : lo + chunk]) for rank in range(2)]
        source = np.repeat([0, 1], [len(c) for c in chunks])
        run_order = np.argsort(np.concatenate(chunks), kind="stable")
        dest = np.arange(len(source)) >= len(source) // 2
        changed += int(np.count_nonzero(source[run_order] != dest))
    sent = [w.counters["internal_sort_sent_records"] for w in result.stats.workers]
    assert result.stats.n_runs > 1
    assert 0 < min(sent) and sum(sent) == changed < job.total_records


def test_deterministic_output(tmp_path):
    a = run_sort(tmp_path / "a", n_workers=2)
    b = run_sort(tmp_path / "b", n_workers=2)
    assert [m.checksum for m in a.outputs] == [m.checksum for m in b.outputs]
    assert np.array_equal(
        np.concatenate(a.output_keys()), np.concatenate(b.output_keys())
    )


def test_memory_budget_respected(tmp_path):
    """Analytic working set stays within the configured M (plus slack for
    the merge's per-run buffers at this tiny block-to-memory ratio)."""
    result = run_sort(tmp_path, n_workers=2)
    M = result.job.memory_bytes
    assert result.stats.peak_resident_bytes <= 2 * M
    # Run formation really was external: several runs, not one big sort.
    assert result.stats.n_runs >= 3


def test_stats_account_every_phase(tmp_path):
    result = run_sort(tmp_path, n_workers=2)
    stats = result.stats
    for phase in ("generate", "run_formation", "selection", "all_to_all", "merge"):
        assert phase in stats.phases
        assert stats.wall_max(phase) > 0.0
    data = stats.total_bytes
    # Input is read once and pieces written once in run formation.
    assert stats.phase_bytes("run_formation") >= 2 * data
    # The all-to-all reads and writes only what changes rank — on random
    # input a sliver of the data — and the merge reads the rest in place.
    moved = stats.wire_sent("all_to_all")
    assert 0 < moved < data // 4
    assert stats.phase_bytes("all_to_all") == 2 * moved
    assert moved + stats.counter_total("a2a_kept_bytes") == data
    assert stats.phase_bytes("merge") == 2 * data
    assert stats.network_bytes > 0
    d = stats.to_dict()
    assert d["backend"] == "native"
    assert set(d["phases"]) == set(stats.phases)
    assert "wall_max" in d["phases"]["merge"]
    assert stats.summary()


class _CountingPipeComm(PipeComm):
    """A pipe comm that counts its posts per (phase, message tag, peer)."""

    def __init__(self, *args, **kwargs):
        self.posted = Counter()
        super().__init__(*args, **kwargs)

    def post(self, peer, msg):
        self.posted[(self._phase, msg[0], peer)] += 1
        super().post(peer, msg)


class _Mailbox:
    """Stands in for a worker's result pipe: keeps what it is sent."""

    def send(self, obj):
        self.obj = obj

    def close(self):
        pass


@pytest.mark.parametrize("records", ["fixed16", "string"])
@pytest.mark.parametrize("n_workers", [2, 3])
def test_run_formation_is_three_collectives_and_no_probes(
    tmp_path, n_workers, records
):
    """Each run costs exactly three collective epochs — the fused length
    and sample allgather, the key-window allgather and the all-to-all —
    sends each peer one data message, and sends no selection probes.

    The phase adds c = 3 epochs once: the allreduce of the run count, the
    allgather of the piece metadata and the barrier closing the phase (a
    fresh, unjournaled job has no resume allgather).  The probe-driven
    selection this replaces cost 4 epochs per run plus a chain of
    synchronous probe round trips; the chunked exchange before it cost 6
    per run and ceil(slice / B) + 2 messages per run and peer.  The ranks
    run as threads over a real pipe mesh, so the posts can be counted.

    Phase 2 is the same primitive over the R·P pieces: one key-window
    allgather, plus the barrier closing the phase."""
    job = NativeJob(
        config=native_config(), n_workers=n_workers,
        spill_dir=str(tmp_path), records=records, timeout=60,
    )
    conns = [dict() for _ in range(n_workers)]
    for i in range(n_workers):
        for j in range(i + 1, n_workers):
            conns[i][j], conns[j][i] = mp.Pipe(duplex=True)
    comms = [
        _CountingPipeComm(r, n_workers, conns[r], timeout=60)
        for r in range(n_workers)
    ]
    boxes = [_Mailbox() for _ in range(n_workers)]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        list(pool.map(
            lambda r: _run_phases(r, job, comms[r], boxes[r]),
            range(n_workers),
        ))
    for comm, box in zip(comms, boxes):
        status, stats, _meta, _checksum, n_runs = box.obj
        assert status == "ok", box.obj
        assert n_runs > 2
        assert stats.collectives["run_formation"] == 3 * n_runs + 3
        for peer in comm.peers:
            assert comm.posted[("run_formation", "__a2a__", peer)] == n_runs
        assert not [
            key for key in comm.posted
            if key[0] == "run_formation"
            and key[1] in ("__xch__", "__xeof__", "__prb__", "__prr__", "__prd__")
        ]
        assert stats.counters["internal_selection_window_keys"] > 0
        assert stats.collectives["selection"] == 1 + 1
        assert stats.counters["selection_window_keys"] > 0


def test_cleanup_removes_spill_dir(tmp_path):
    spill = tmp_path / "spill"
    result = run_sort(spill, n_workers=2)
    assert os.path.isdir(spill)
    result.cleanup()
    assert not os.path.exists(spill)


def test_infeasible_merge_config_rejected(tmp_path):
    # Big blocks + tiny memory: R double-buffers can't fit.
    with pytest.raises(ConfigError):
        NativeJob(
            config=native_config(block_bytes=16 * KiB, memory_bytes=16 * KiB),
            n_workers=2,
            spill_dir=str(tmp_path),
        )


def test_job_validation():
    with pytest.raises(ConfigError):
        NativeJob(config=native_config(), n_workers=0, spill_dir="x")
    with pytest.raises(ConfigError):
        NativeJob(
            config=native_config(block_bytes=8), n_workers=1, spill_dir="x"
        )


def test_worker_failure_surfaces_as_sort_error(tmp_path, monkeypatch):
    """A crashing worker reports a traceback instead of hanging the job."""
    import multiprocessing as mp

    if "fork" not in mp.get_all_start_methods():
        pytest.skip("needs fork so children inherit the monkeypatch")
    from repro.native import phases

    def boom(ctx):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(phases, "run_formation", boom)
    job = NativeJob(
        config=native_config(), n_workers=2, spill_dir=str(tmp_path), timeout=60
    )
    with pytest.raises(NativeSortError, match="injected failure"):
        NativeSorter(job).run()


def test_generate_false_reuses_existing_input(tmp_path):
    """generate=False keeps input files from an earlier run in place."""
    first = run_sort(tmp_path, n_workers=2)
    assert first.validate().ok
    # Outputs and intermediates are gone, inputs remain; sort again on them.
    job = NativeJob(
        config=native_config(),
        n_workers=2,
        spill_dir=str(tmp_path),
        generate=False,
        timeout=120,
    )
    second = NativeSorter(job).run()
    assert second.validate().ok
    assert "generate" not in second.stats.phases
    assert [m.checksum for m in second.outputs] == [
        m.checksum for m in first.outputs
    ]


def test_cli_native_backend(tmp_path, capsys):
    from repro.__main__ import main

    code = main([
        "--backend", "native", "--nodes", "2",
        "--spill-dir", str(tmp_path),
        "--data-mib", "0.125", "--memory-mib", "0.046875",
        "--block-mib", "0.001953125",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "output valid" in out
    assert "native total" in out


def test_cli_native_json(tmp_path, capsys):
    from repro.__main__ import main

    code = main([
        "--backend", "native", "--nodes", "2",
        "--spill-dir", str(tmp_path), "--json",
        "--data-mib", "0.125", "--memory-mib", "0.046875",
        "--block-mib", "0.001953125",
    ])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["backend"] == "native"
    assert report["validation"]["ok"] is True
    assert report["config"]["n_workers"] == 2
    assert report["io_bytes"] > 0
    for phase in ("run_formation", "selection", "all_to_all", "merge"):
        assert report["phases"][phase]["wall_max"] >= 0.0
        assert "bytes" in report["phases"][phase]


def _oracle_sha(job):
    """SHA-256 of the whole input sorted by key: every output's bytes in
    rank order must hash the same (uniform keys never tie)."""
    records = generate_records(0, job.total_records, seed=job.config.seed)
    return hashlib.sha256(
        records[np.argsort(records["key"], kind="stable")].tobytes()
    ).hexdigest()


def _output_sha(result):
    digest = hashlib.sha256()
    for rank in range(result.job.n_workers):
        digest.update(result.output_records(rank).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "transport, write_behind",
    [("pipe", 0), ("tcp", 0), ("pipe", 1)],
    ids=["pipe", "tcp", "pipe-write-behind"],
)
def test_lagging_sender_never_sends_a_reused_buffer(
    tmp_path, monkeypatch, transport, write_behind
):
    """Run formation's all-to-all returns while the sender thread still
    holds views of the sorted buffer, and the next run sorts into that
    same buffer.  Hold rank 0's sender back on every part it ships: only
    the flush before the next sort keeps the next run's records out of
    the parts still queued."""
    from repro.native.comm_api import MeshComm

    cls = PipeComm
    if transport == "tcp":
        from repro.net.tcp import TcpComm as cls
    transmit = cls._transmit

    def lagging(self: MeshComm, peer, msg):
        if self.rank == 0 and msg[0] == "__a2a__":
            time.sleep(0.05)
        transmit(self, peer, msg)

    monkeypatch.setattr(cls, "_transmit", lagging)
    result = native_sort(
        native_config(), n_workers=2, spill_dir=str(tmp_path), timeout=120,
        transport=transport, pending_sends=1,
        write_behind_blocks=write_behind,
    )
    assert result.stats.n_runs >= 4
    assert result.validate().ok
    assert _output_sha(result) == _oracle_sha(result.job)


def test_samples_sparser_than_a_piece_survive_the_next_run(
    tmp_path, monkeypatch
):
    """A piece's sample is its block-first keys (K = B), so pieces of
    as few blocks as the job allows give samples of as few keys: here
    four, the smallest at R >= 3 (a merge round stages R carry blocks
    and a fresh one in a chunk, so the gate asks for R + 1 <=
    piece_blocks).  The sample must be a copy: without write-behind the
    next run's merge gathers into the same sorted buffer, and the
    selection reads the samples only after the last run.  Equal pieces
    of uniform keys split right even from wrong samples, so the
    selection also checks every own piece's sample against its file."""
    from repro.native import phases

    exact_splits = phases.exact_splits

    def checked(comm, samples, lengths, sample_every, owner, window):
        if len(samples) > comm.n_workers:  # the selection's R·P pieces
            for j, sample in enumerate(samples):
                if owner[j] == comm.rank:
                    keys = window(j, 0, lengths[j])[::sample_every]
                    assert list(sample) == list(keys), j
        return exact_splits(comm, samples, lengths, sample_every, owner,
                            window)

    monkeypatch.setattr(phases, "exact_splits", checked)
    # 2 KiB blocks, M = 8 blocks (four-block chunks), 12 input blocks.
    result = native_sort(
        native_config(data_per_node_bytes=24 * KiB, memory_bytes=16 * KiB),
        n_workers=2, spill_dir=str(tmp_path), timeout=120,
        write_behind_blocks=0,
    )
    assert result.job.piece_blocks == 4
    assert result.stats.n_runs >= 3
    assert result.validate().ok
    assert _output_sha(result) == _oracle_sha(result.job)


def test_string_phases_read_back_no_index_they_wrote(tmp_path):
    """Run formation reads the input that generate wrote, and the
    selection the pieces run formation wrote, in the same worker
    process: the store keeps every ``.idx`` array it wrote, so neither
    phase loads a record-boundary index from disk."""
    result = native_sort(
        native_config(data_per_node_bytes=1024 * KiB, memory_bytes=512 * KiB,
                      block_bytes=16 * KiB),
        n_workers=2, spill_dir=str(tmp_path), timeout=120, records="string",
    )
    assert result.stats.n_runs >= 2
    assert result.validate().ok
    for worker in result.stats.workers:
        assert worker.bytes_read.get("run_formation:index", 0) == 0
        assert worker.bytes_read.get("selection:index", 0) == 0
        assert worker.bytes_read["selection"] > 0


def test_run_formation_faults_at_most_once_per_input_page(tmp_path):
    """The fixed buffer set: run formation's minor page faults stay below
    one per page of a rank's input.  Fresh per-run arrays cost about
    three, so a new per-run allocation of chunk size fails this."""
    result = native_sort(
        SortConfig(data_per_node_bytes=16 * 2**20, memory_bytes=2 * 2**20,
                   block_bytes=16 * KiB, seed=42),
        n_workers=2, spill_dir=str(tmp_path), timeout=120,
    )
    assert result.stats.n_runs >= 8
    pages = result.job.records_per_worker * 16 // mmap.PAGESIZE
    for worker in result.stats.to_dict()["per_worker"]:
        assert worker["minor_faults"]["run_formation"] <= pages


def test_cli_native_json_reports_minor_faults(tmp_path, capsys):
    """Every phase reports the minor page faults its slowest rank took
    (``ru_minflt`` delta), and each worker its own per phase."""
    from repro.__main__ import main

    code = main([
        "--backend", "native", "--nodes", "2",
        "--spill-dir", str(tmp_path), "--json",
        "--data-mib", "0.125", "--memory-mib", "0.046875",
        "--block-mib", "0.001953125",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    for phase in ("run_formation", "selection", "all_to_all", "merge"):
        faults = report["phases"][phase]["minor_faults"]
        assert isinstance(faults, int) and faults >= 0
        assert faults == max(
            w["minor_faults"][phase] for w in report["per_worker"]
        )


def test_cli_native_requires_spill_dir(capsys):
    from repro.__main__ import main

    assert main(["--backend", "native", "--nodes", "2"]) == 2


def test_cli_sim_json(capsys):
    from repro.__main__ import main

    code = main(["--nodes", "2", "--data-mib", "24", "--memory-mib", "8", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["backend"] == "sim"
    assert report["validation"]["ok"] is True
    assert set(report["phases"]) >= {
        "run_formation", "selection", "all_to_all", "merge"
    }
    assert report["io_bytes"] > 0
