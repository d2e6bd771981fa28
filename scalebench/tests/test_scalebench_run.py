"""Result assembly of :mod:`scalebench.run` on hand-made rounds."""

import pytest

from scalebench.run import (
    END_TO_END,
    compare_sets,
    filtered_seconds,
    result_object,
    round_count,
)


def _round(wall, cpu=None):
    return {"segments": {"wall": wall, "cpu": cpu or wall}}


def test_filtered_seconds_takes_each_segment_from_its_fastest_round():
    rounds = [_round([1.0, 5.0, 1.0]), _round([4.0, 2.0, 1.5]),
              _round([1.2, 2.5, 0.9])]
    assert filtered_seconds(rounds, "wall") == pytest.approx(1.0 + 2.0 + 0.9)
    # One round: nothing to filter, the measured time.
    assert filtered_seconds(rounds[:1], "wall") == pytest.approx(7.0)


def test_filtered_seconds_falls_back_when_the_cuts_differ():
    rounds = [_round([1.0, 2.0]), _round([0.5, 0.5, 0.5])]
    assert filtered_seconds(rounds, "wall") == pytest.approx(1.5)


def test_round_count_depends_on_seconds_only():
    class Sized:
        nominal_round_s = 4.5

    assert round_count(Sized, 20) == 4
    assert round_count(Sized, 60) == 13
    assert round_count(Sized, 1) == 2  # never fewer than two


def _run(wall, digest="abc", events=100):
    metrics = {name: 1.0 for name, *_rest in END_TO_END}
    metrics["wall_s"] = wall
    return {"metrics": metrics, "sim_digest": digest,
            "counts": {"events": events}, "detail": {},
            "checks": [("a", True), ("b", True)]}


def test_result_object_has_exactly_the_contract_keys():
    units = {name: unit for name, unit, *_rest in END_TO_END}
    result = result_object(_run(2.0), units)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 2
    assert set(result["metrics"]) == set(units)
    assert result["metrics"]["wall_s"] == {"value": 2.0, "unit": "s"}
    failing = _run(2.0)
    failing["checks"].append(("c", False))
    assert result_object(failing, units)["failed"] == 1
    assert result_object(failing, units)["correct"] is False


def test_repeat_check_allows_noise_inside_the_bound_only(capsys):
    bound = dict((name, bound) for name, _u, _b, bound in END_TO_END)["wall_s"]
    assert compare_sets(_run(2.0), _run(2.0 * (1 + bound) - 0.01), "w") == []
    assert compare_sets(_run(2.0), _run(1.0), "w") == []  # better is fine
    problems = compare_sets(_run(2.0), _run(2.0 * (1 + bound) + 0.01), "w")
    assert len(problems) == 1 and "wall_s" in problems[0]
    capsys.readouterr()


def test_repeat_check_wants_digests_and_counts_exactly_equal(capsys):
    assert compare_sets(_run(2.0), _run(2.0, digest="xyz"), "w")
    assert compare_sets(_run(2.0), _run(2.0, events=101), "w")
    capsys.readouterr()
