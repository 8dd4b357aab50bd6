"""``tools/compare.py``'s summary of paired benchmark runs, on canned numbers."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "compare.py")
_spec = importlib.util.spec_from_file_location("compare_tool", _PATH)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

SPECS = [
    {"name": "sort_mb_s", "better": "higher"},
    {"name": "peak_rss_mib", "better": "lower"},
]


def _pair(base_mb_s, change_mb_s, rss=(40.0, 40.0), io=(4.04, 4.04)):
    return {
        side: {"sort_mb_s": mb_s, "peak_rss_mib": r,
               "io_bytes_per_input_byte": i, "wire_bytes_per_input_byte": 0.01}
        for side, mb_s, r, i in (("base", base_mb_s, rss[0], io[0]),
                                 ("change", change_mb_s, rss[1], io[1]))
    }


def test_sign_test_p_is_two_sided_and_ignores_ties():
    assert compare.sign_test_p(10, 0) == pytest.approx(2 / 1024)
    assert compare.sign_test_p(0, 10) == pytest.approx(2 / 1024)
    assert compare.sign_test_p(9, 1) == pytest.approx(2 * 11 / 1024)
    assert compare.sign_test_p(5, 5) == 1.0
    assert compare.sign_test_p(0, 0) == 1.0


def test_summary_counts_wins_by_each_metrics_direction():
    base = [100, 110, 120, 130, 140, 150, 160, 170, 180, 190]
    pairs = [_pair(b, b * 1.2, rss=(40.0, 40.5)) for b in base]
    pairs[3] = _pair(130, 120, rss=(40.0, 39.0))       # one loss, one RSS win
    pairs[4] = _pair(140, 140, rss=(40.0, 40.0))       # a tie for both
    speed, rss = compare.summarize(pairs, SPECS)

    assert (speed["wins"], speed["pairs"]) == (8, 10)
    assert speed["p"] == pytest.approx(compare.sign_test_p(8, 1))
    # change: 120 132 144 120 140 180 192 204 216 228, median (144 + 180) / 2
    assert speed["ratio"] == pytest.approx(162 / 145)
    assert speed["base"] == "145 [117.5, 172.5]"
    # Lower is better for the resident set: the change won where it was lower.
    assert rss["wins"] == 1 and rss["p"] == pytest.approx(
        compare.sign_test_p(1, 8)
    )


def test_exact_counters_must_agree_in_every_pair():
    pairs = [_pair(1, 2), _pair(1, 2)]
    assert compare.exact_in_every_pair(pairs)
    pairs.append(_pair(1, 2, io=(4.04, 4.05)))
    assert not compare.exact_in_every_pair(pairs)


def test_table_is_one_markdown_row_per_metric():
    pairs = [_pair(100, 120), _pair(110, 121)]
    text = compare.format_table(
        "uniform-2x64m", "HEAD~1", compare.summarize(pairs, SPECS),
        compare.exact_in_every_pair(pairs), "1–2",
    )
    rows = [line for line in text.splitlines() if line.startswith("| `")]
    assert [row.split("|")[1].strip() for row in rows] == [
        "`sort_mb_s`", "`peak_rss_mib`"
    ]
    assert rows[0].endswith("| 2/2 | 1.148 | 0.5 |")       # 120.5 / 105
    assert "I/O and wire ratios identical in every pair: True" in text
