"""The native algorithm map and its job-validation gates.

:data:`repro.native.algos.PHASE_MODULES` is the seam between job specs
and phase implementations: these tests pin that every backend name
maps to a module with the full five-phase interface — and the
:class:`~repro.native.job.NativeJob` gates that keep striped, on
purpose, a fixed16-only, synchronous, unjournaled baseline.
"""

import pytest

from repro.core.config import ConfigError, SortConfig
from repro.native import ALGORITHMS, NativeJob, phases
from repro.native.algos import PHASE_MODULES
from repro.native.records import RECORD_BYTES
from repro.testing.chaos import ChaosSpec

PHASE_FNS = ("generate_input", "run_formation", "selection", "all_to_all",
             "merge")


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


# ------------------------------------------------------------ the map


def test_registry_names_are_the_public_tuple():
    assert ALGORITHMS == ("canonical", "striped")
    assert tuple(PHASE_MODULES) == ALGORITHMS


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_every_backend_resolves_with_full_phase_strategy(algo):
    module = PHASE_MODULES[algo]
    assert all(callable(getattr(module, name)) for name in PHASE_FNS)


def test_unknown_algorithm_name_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="unknown algorithm 'quicksort'"):
        _job(tmp_path, algo="quicksort")


@pytest.mark.parametrize("algo", ["striped"])
def test_string_model_only_runs_canonical(tmp_path, algo):
    with pytest.raises(ConfigError, match="only supports records='fixed16'"):
        _job(tmp_path, algo=algo, records="string")
    assert _job(tmp_path, algo="canonical", records="string").varlen


def test_backends_share_the_canonical_generate_phase():
    # Both backends sort the identical generated input: phase 0 is
    # shared, so differences can only come from the sort itself.
    gens = {PHASE_MODULES[a].generate_input for a in ALGORITHMS}
    assert gens == {phases.generate_input}


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
    # Chaos is not gated: the store's write gate and the worker's kill
    # points serve every backend.
    spec = ChaosSpec(rank=0, kill_at="before:merge")
    assert _job(tmp_path, algo=algo, chaos=spec).chaos is spec


def test_canonical_still_composes_with_gated_features(tmp_path):
    # The gates above must not have tightened the default backend.
    job = _job(
        tmp_path, algo="canonical",
        checkpoint=True, prefetch_blocks=3, write_behind_blocks=2,
    )
    assert job.checkpointing and job.pipelined
