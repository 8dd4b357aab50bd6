"""Tests for the command-line sorter and the timeline rendering."""

import pytest

from repro.__main__ import build_parser, main
from tests.helpers import run_small_sort


# -------------------------------------------------------------------- CLI


def _cli(*argv):
    return main(list(argv))


def test_cli_default_run(capsys):
    assert _cli("--nodes", "2", "--data-mib", "24", "--memory-mib", "8") == 0
    out = capsys.readouterr().out
    assert "output valid" in out
    assert "run_formation" in out


def test_cli_worstcase_no_randomize(capsys):
    assert _cli(
        "--nodes", "2", "--workload", "worstcase", "--no-randomize",
        "--data-mib", "24", "--memory-mib", "8",
    ) == 0
    assert "output valid" in capsys.readouterr().out


def test_cli_timeline_flag(capsys):
    assert _cli(
        "--nodes", "2", "--data-mib", "24", "--memory-mib", "8", "--timeline"
    ) == 0
    out = capsys.readouterr().out
    assert "timeline over" in out
    assert "PE  0 |" in out


@pytest.mark.parametrize("algorithm", ["striped", "nowsort", "samplesort"])
def test_cli_other_algorithms(algorithm, capsys):
    assert _cli(
        "--algorithm", algorithm, "--nodes", "2",
        "--data-mib", "24", "--memory-mib", "8",
    ) == 0
    assert "output valid" in capsys.readouterr().out


def test_cli_skip_validation(capsys):
    assert _cli(
        "--nodes", "2", "--data-mib", "24", "--memory-mib", "8",
        "--skip-validation",
    ) == 0
    assert "output valid" not in capsys.readouterr().out


def test_cli_selection_strategy(capsys):
    assert _cli(
        "--nodes", "2", "--data-mib", "24", "--memory-mib", "8",
        "--selection", "bisect",
    ) == 0


def test_cli_infeasible_sim_config_is_a_config_error(capsys):
    # Default 96 MiB of data over 8 MiB of memory: R = 12 runs exceed the
    # 8 memory blocks per node.  The sim path reports it like the native
    # path does (exit 2, one line), not as a traceback.
    assert _cli("--nodes", "2", "--memory-mib", "8") == 2
    assert "config error:" in capsys.readouterr().err


def test_cli_parser_rejects_unknown_algorithm():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--algorithm", "bogosort"])


# --------------------------------------------------------------- timeline


def test_timeline_has_one_row_per_pe():
    _cl, _cfg, _em, _b, result = run_small_sort("random", n_nodes=3)
    text = result.stats.timeline(width=40)
    rows = [line for line in text.splitlines() if line.startswith("PE")]
    assert len(rows) == 3
    for row in rows:
        body = row.split("|")[1]
        assert len(body) == 40


def test_timeline_phases_in_order():
    _cl, _cfg, _em, _b, result = run_small_sort("random", n_nodes=2)
    text = result.stats.timeline(width=60)
    row = next(line for line in text.splitlines() if line.startswith("PE  0"))
    body = row.split("|")[1]
    # run_formation before selection before all_to_all before merge
    assert body.index("r") < body.index("s") < body.index("a") < body.index("m")


def test_timeline_intervals_recorded():
    _cl, _cfg, _em, _b, result = run_small_sort("random", n_nodes=2)
    phases_seen = {(rank, phase) for rank, phase, _s, _e in result.stats.intervals}
    for rank in range(2):
        for phase in ("run_formation", "selection", "all_to_all", "merge"):
            assert (rank, phase) in phases_seen


def test_timeline_empty_stats():
    from repro.core.stats import SortStats
    from tests.helpers import small_config

    stats = SortStats(small_config(), 1)
    assert "no phase intervals" in stats.timeline()


def test_cli_utilization_flag(capsys):
    assert _cli(
        "--nodes", "2", "--data-mib", "24", "--memory-mib", "8",
        "--utilization",
    ) == 0
    out = capsys.readouterr().out
    assert "disk utilization over" in out
    assert "n0.d0" in out
