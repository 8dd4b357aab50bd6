"""The algorithm registry and its job-validation gates.

The bake-off registry (:mod:`repro.native.algos`) is the seam between
job specs and phase implementations: these tests pin its resolution
rules — unknown names and unsupported (algo, records) pairs fail
loudly with ConfigError, every registered backend exposes the full
five-phase strategy — and the :class:`~repro.native.job.NativeJob`
gates that keep unsupported feature combinations away from the
non-canonical backends.
"""

import pytest

from repro.core.config import ConfigError, SortConfig
from repro.native import ALGORITHMS, NativeJob
from repro.native.algos import Algorithm, resolve_algorithm
from repro.native.records import RECORD_BYTES
from repro.testing.chaos import ChaosSpec


def _job(tmp_path, **overrides):
    base = dict(
        config=SortConfig(
            data_per_node_bytes=512 * RECORD_BYTES,
            memory_bytes=384 * RECORD_BYTES,
            block_bytes=32 * RECORD_BYTES,
            block_elems=32,
            seed=1,
        ),
        n_workers=2,
        spill_dir=str(tmp_path),
    )
    base.update(overrides)
    return NativeJob(**base)


# ------------------------------------------------------------ the registry


def test_registry_names_are_the_public_tuple():
    assert ALGORITHMS == ("canonical", "striped")


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_every_backend_resolves_with_full_phase_strategy(algo):
    alg = resolve_algorithm(algo, "fixed16")
    assert isinstance(alg, Algorithm)
    assert alg.name == algo and alg.records == "fixed16"
    fns = alg.phase_fns
    assert len(fns) == 5 and all(callable(fn) for fn in fns)


def test_unknown_algorithm_name_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown algorithm 'quicksort'"):
        resolve_algorithm("quicksort")


@pytest.mark.parametrize("algo", ["striped"])
def test_string_model_only_runs_canonical(algo):
    with pytest.raises(ConfigError, match="does not support records='string'"):
        resolve_algorithm(algo, "string")
    assert resolve_algorithm("canonical", "string").records == "string"


def test_backends_share_the_canonical_generate_phase():
    # All fixed16 backends sort the identical generated input: phase 0
    # is shared, so differences can only come from the sort itself.
    gens = {resolve_algorithm(a, "fixed16").generate_input for a in ALGORITHMS}
    assert len(gens) == 1


def test_wire_profiles_diverge_where_the_paper_says():
    # Striped pays communication in both passes (its own conservation
    # profile); canonical keeps its exact N*16 wire accounting.
    assert resolve_algorithm("striped").wire_profile == "striped"
    assert resolve_algorithm("canonical").wire_profile == "canonical"


# ----------------------------------------------------- NativeJob gating


def test_job_defaults_to_canonical(tmp_path):
    job = _job(tmp_path)
    assert job.algo == "canonical"
    assert job.describe()["algo"] == "canonical"


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_job_accepts_every_registered_backend(tmp_path, algo):
    assert _job(tmp_path, algo=algo).describe()["algo"] == algo


def test_job_rejects_unknown_backend(tmp_path):
    with pytest.raises(ConfigError, match="unknown algorithm 'timsort'"):
        _job(tmp_path, algo="timsort")


@pytest.mark.parametrize("algo", ["striped"])
def test_noncanonical_gates(tmp_path, algo):
    with pytest.raises(ConfigError, match="only supports records='fixed16'"):
        _job(tmp_path, algo=algo, records="string")
    with pytest.raises(ConfigError, match="checkpoint/resume"):
        _job(tmp_path, algo=algo, checkpoint=True)
    with pytest.raises(ConfigError, match="pipelined I/O"):
        _job(tmp_path, algo=algo, prefetch_blocks=3, write_behind_blocks=2)
    with pytest.raises(ConfigError, match="chaos injection"):
        _job(tmp_path, algo=algo, chaos=ChaosSpec(rank=0, kill_at="before:merge"))


def test_canonical_still_composes_with_gated_features(tmp_path):
    # The gates above must not have tightened the default backend.
    job = _job(
        tmp_path, algo="canonical",
        checkpoint=True, prefetch_blocks=3, write_behind_blocks=2,
    )
    assert job.checkpointing and job.pipelined
