"""Tier-1 conformance: the pruned differential matrix, every commit.

Each case runs the identical corpus input through the native backend
(real processes and files) and the simulator, asserting both reproduce
the ``np.sort`` oracle byte-identically with exact canonical balance,
matching valsort checksums and per-phase conservation.  The full
entry × sizing matrix runs nightly (``pytest -m conformance``, see
tests/test_conformance_full.py); this file must stay fast.
"""

import pytest

from repro.testing import differential

QUICK = differential.quick_specs(seed=42)


@pytest.mark.parametrize(
    "spec", QUICK, ids=[s.to_token() for s in QUICK]
)
def test_quick_matrix_case(spec, tmp_path):
    for result in differential.run_case(spec, workdir=str(tmp_path / "spill")):
        assert result.ok, (
            f"[{result.backend}] {spec.to_token()} diverged:\n  "
            + "\n  ".join(result.divergences)
            + f"\nreplay: {spec.replay_command()}"
        )


# Pipelined twins of a quick-matrix slice: read-ahead + write-behind on,
# same oracle byte-comparison — the pipeline must be bitwise-invisible.
# (The full pipelined matrix runs nightly via `conformance --pipelined`.)
PIPE_QUICK = differential.pipelined_variants(QUICK[:3])


@pytest.mark.parametrize(
    "spec", PIPE_QUICK, ids=[s.to_token() for s in PIPE_QUICK]
)
def test_quick_matrix_pipelined_twin(spec, tmp_path):
    assert spec.pipelined and spec.backends == ("native",)
    for result in differential.run_case(spec, workdir=str(tmp_path / "spill")):
        assert result.ok, (
            f"[{result.backend}] {spec.to_token()} diverged:\n  "
            + "\n  ".join(result.divergences)
            + f"\nreplay: {spec.replay_command()}"
        )


def test_pipelined_output_matches_synchronous(tmp_path):
    spec = differential.CaseSpec(
        "uniform", "base", n_workers=2, seed=7, backends=("native",)
    )
    (sync,) = differential.run_case(spec, workdir=str(tmp_path / "a"))
    (pipe,) = differential.run_case(
        differential.pipelined_variants([spec])[0],
        workdir=str(tmp_path / "b"),
    )
    # Both byte-checked against the same oracle (so transitively
    # byte-identical to each other) and checksum-equal directly.
    assert sync.ok, sync.divergences
    assert pipe.ok, pipe.divergences
    assert sync.checksum == pipe.checksum


def test_pipelined_token_round_trips():
    spec = differential.CaseSpec(
        "uniform", "base", n_workers=2, seed=5,
        backends=("native",), pipelined=True,
    )
    token = spec.to_token()
    assert token.endswith(":pipe")
    assert differential.CaseSpec.from_token(token) == spec


# String twins of a quick-matrix slice: the same corpus keys mapped
# through an order-preserving u64-to-string embedding, sorted as
# variable-length records against an independent decoded sorted()
# oracle.  The twins cycle through the string families, so tier-1
# exercises the synthetic hex map AND the real-workload URL / log-line
# corpora.  (Every matrix case gets a string twin nightly via
# `conformance --strings`.)
STR_QUICK = differential.string_variants(QUICK[:3])


def test_string_twins_cover_every_family():
    assert [s.string_family for s in STR_QUICK] == ["hex", "url", "log"]


@pytest.mark.parametrize(
    "spec", STR_QUICK, ids=[s.to_token() for s in STR_QUICK]
)
def test_quick_matrix_string_twin(spec, tmp_path):
    assert spec.records == "string" and spec.backends == ("native",)
    for result in differential.run_case(spec, workdir=str(tmp_path / "spill")):
        assert result.ok, (
            f"[{result.backend}] {spec.to_token()} diverged:\n  "
            + "\n  ".join(result.divergences)
            + f"\nreplay: {spec.replay_command()}"
        )


# Pipelined string twins: the string path through Prefetcher and
# WriteBehind (read-ahead of varlen extents, deferred slab writes and
# appends), against the same decoded sorted() oracle.
PIPE_STR_QUICK = differential.string_variants(
    differential.pipelined_variants(QUICK[:3])
)


@pytest.mark.parametrize(
    "spec", PIPE_STR_QUICK, ids=[s.to_token() for s in PIPE_STR_QUICK]
)
def test_quick_matrix_pipelined_string_twin(spec, tmp_path):
    assert spec.records == "string" and spec.pipelined
    for result in differential.run_case(spec, workdir=str(tmp_path / "spill")):
        assert result.ok, (
            f"[{result.backend}] {spec.to_token()} diverged:\n  "
            + "\n  ".join(result.divergences)
            + f"\nreplay: {spec.replay_command()}"
        )


def test_string_token_round_trips():
    spec = differential.CaseSpec(
        "uniform", "base", n_workers=2, seed=5,
        backends=("native",), records="string",
    )
    token = spec.to_token()
    assert token.endswith(":str")
    assert differential.CaseSpec.from_token(token) == spec


def test_string_family_token_round_trips():
    for family in ("url", "log"):
        spec = differential.CaseSpec(
            "uniform", "base", n_workers=2, seed=5,
            backends=("native",), records="string", string_family=family,
        )
        token = spec.to_token()
        assert token.endswith(f":str-{family}")
        assert differential.CaseSpec.from_token(token) == spec
    with pytest.raises(ValueError, match="unknown string family"):
        differential.CaseSpec.from_token(
            "uniform:base:p2:s5:rand:sampled:native:str-csv"
        )
    with pytest.raises(ValueError, match='requires records="string"'):
        differential.CaseSpec("uniform", "base", string_family="url")


def test_string_divergence_is_actually_detected(tmp_path, monkeypatch):
    """The string harness must not vacuously pass either: corrupt one
    output key behind the backend's back and the case must diverge."""
    from repro.native.driver import NativeSortResult

    real_records = NativeSortResult.output_records

    def corrupted(self, rank):
        from repro.native.records import VarlenBatch

        batch = real_records(self, rank)
        if rank == 0 and len(batch):
            keys = batch.keys()
            keys[0] = keys[0] + b"z"
            return VarlenBatch.build(keys, batch.payloads())
        return batch

    monkeypatch.setattr(NativeSortResult, "output_records", corrupted)
    spec = differential.CaseSpec(
        "uniform", "base", n_workers=2, seed=11,
        backends=("native",), records="string",
    )
    (result,) = differential.run_case(spec, workdir=str(tmp_path / "s"))
    assert not result.ok


def test_quick_matrix_is_tier1_sized():
    # The matrix the CLI and this file share: <= 8 corpus pairs, plus
    # fig6 (no-randomization) variants of the flagged entries only.
    from repro.testing import corpus

    assert len(corpus.quick_matrix()) <= 8
    assert len(QUICK) <= 12


def test_backends_agree_on_checksum(tmp_path):
    spec = differential.CaseSpec("gensort", "base", n_workers=2, seed=7)
    native, sim = differential.run_case(spec, workdir=str(tmp_path / "s"))
    assert native.ok and sim.ok
    assert native.checksum == sim.checksum


def test_single_worker_degenerate_case(tmp_path):
    spec = differential.CaseSpec("dup_all", "single_run", n_workers=1, seed=3)
    for result in differential.run_case(spec, workdir=str(tmp_path / "s")):
        assert result.ok, result.divergences


def test_conformance_cli_quick_exits_zero(capsys):
    from repro.__main__ import main

    assert main(["conformance", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "0 divergences" in out


def test_conformance_cli_replay_round_trips(capsys):
    from repro.__main__ import main

    token = "uniform:n64b8m96:p2:s5:rand:sampled"
    assert main(["conformance", "--replay", token]) == 0


def test_divergence_is_actually_detected(tmp_path, monkeypatch):
    """The harness must not vacuously pass: corrupt one output record
    behind the native backend's back and the case must diverge."""
    import numpy as np

    from repro.native.driver import NativeSortResult

    real_keys = NativeSortResult.output_keys

    def corrupted(self):
        out = real_keys(self)
        out[0] = out[0].copy()
        if len(out[0]):
            out[0][0] += np.uint64(1)
        return out

    monkeypatch.setattr(NativeSortResult, "output_keys", corrupted)
    spec = differential.CaseSpec(
        "uniform", "base", n_workers=2, seed=11, backends=("native",)
    )
    (result,) = differential.run_case(spec, workdir=str(tmp_path / "s"))
    assert not result.ok
    assert any("diverges from np.sort oracle" in d for d in result.divergences)
