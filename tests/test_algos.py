"""The native backend's one algorithm and its ``NativeJob.algo`` pin.

The native backend runs CANONICALMERGESORT only; ``NativeJob.algo``
stays so that callers naming it keep working, and accepts nothing
else.  The paper's Section III baseline, mergesort with global
striping, runs in the simulator (``--backend sim --algorithm striped``,
``tests/test_cross_algorithm.py``).
"""

import pytest

from repro.core.config import ConfigError, SortConfig
from repro.native import NativeJob
from repro.native.records import RECORD_BYTES


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


def test_unknown_algorithm_name_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="unknown algorithm 'quicksort'"):
        _job(tmp_path, algo="quicksort")


def test_job_defaults_to_canonical(tmp_path):
    job = _job(tmp_path)
    assert job.algo == "canonical"
    assert job.describe()["algo"] == "canonical"


def test_job_rejects_unknown_backend(tmp_path):
    with pytest.raises(ConfigError, match="unknown algorithm 'timsort'"):
        _job(tmp_path, algo="timsort")


def test_striped_points_to_the_simulator(tmp_path):
    with pytest.raises(ConfigError, match="--backend sim --algorithm striped"):
        _job(tmp_path, algo="striped")


def test_canonical_still_composes_with_gated_features(tmp_path):
    # Checkpointing, pipelined I/O and string records all run the one
    # native algorithm.
    job = _job(
        tmp_path, algo="canonical",
        checkpoint=True, prefetch_blocks=3, write_behind_blocks=2,
    )
    assert job.checkpointing and job.pipelined
    assert _job(tmp_path, algo="canonical", records="string").varlen


@pytest.mark.parametrize("argv", [
    ["--algo", "striped"],
    ["--backend", "native", "--algo", "striped"],
    ["submit", "--connect", "127.0.0.1:1", "--algo", "striped"],
    ["conformance", "--algo", "striped"],
    ["--nodes", "2", "--data", "1"],
    ["jobs", "--connect", "127.0.0.1:1", "--stat"],
], ids=["main", "native", "submit", "conformance", "data-prefix", "jobs"])
def test_abbreviated_flags_are_unknown(argv, capsys):
    """No parser takes a prefix of a long flag: ``--algo striped`` is not
    ``--algorithm striped`` (the ``--algo`` flag itself is gone), and a
    shortened flag is an error, not a guess."""
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
