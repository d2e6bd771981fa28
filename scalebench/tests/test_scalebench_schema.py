"""``BENCHMARK.json`` stays inside the contract and in step with the code."""

import copy
import json
from pathlib import Path

import pytest

from scalebench.layers import PER_LAYER
from scalebench.run import END_TO_END
from scalebench.schema import validate

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_committed_file_is_valid(spec):
    assert validate(spec) == []
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_committed_file_matches_the_code(spec):
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == PER_LAYER
    assert spec["paths"] == ["scalebench"]


def test_workloads_match_the_registry(spec):
    from scalebench.workloads import WORKLOADS

    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]


def _broken(spec, mutate):
    changed = copy.deepcopy(spec)
    mutate(changed)
    return validate(changed)


@pytest.mark.parametrize("name", ["", "-lead", "has space", "x" * 65, "a/b"])
def test_bad_names_are_refused(spec, name):
    assert _broken(spec, lambda s: s["per_layer"][0].update(name=name))
    assert _broken(spec, lambda s: s["workloads"][0].update(name=name))


def test_name_alphabet_is_letters_digits_underscore_dot_dash(spec):
    assert not _broken(spec, lambda s: s["per_layer"][0].update(
        name="A9_.-z"))


def test_count_limits(spec):
    extra = {"name": "w", "why": "x"}
    assert _broken(spec, lambda s: s.update(workloads=[
        dict(extra, name=f"w{i}") for i in range(9)]))
    assert _broken(spec, lambda s: s.update(workloads=[extra]))
    metric = {"unit": "s", "better": "lower"}
    assert _broken(spec, lambda s: s.update(end_to_end=[
        dict(metric, name=f"e{i}", bound=0.1) for i in range(17)]))
    assert _broken(spec, lambda s: s.update(per_layer=[
        dict(metric, name=f"p{i}") for i in range(129)]))
    assert not _broken(spec, lambda s: s.update(per_layer=[
        dict(metric, name=f"p{i}") for i in range(128)]))


def test_other_limits(spec):
    assert _broken(spec, lambda s: s["end_to_end"][0].update(bound=0.26))
    assert _broken(spec, lambda s: s["end_to_end"][0].update(unit="per second"))
    assert _broken(spec, lambda s: s["end_to_end"][0].update(better="more"))
    assert _broken(spec, lambda s: s["workloads"][0].update(why="x" * 201))
    assert _broken(spec, lambda s: s["workloads"][0].update(why="two\nlines"))
    assert _broken(spec, lambda s: s.update(run_seconds=61))
    assert _broken(spec, lambda s: s.update(run_seconds=2.5))
    assert _broken(spec, lambda s: s.update(command=["/usr/bin/python3"]))
    assert _broken(spec, lambda s: s.update(command=["python3", "../x.py"]))
    assert _broken(spec, lambda s: s.update(paths=["/abs"]))
    assert _broken(spec, lambda s: s.update(extra_key=1))
    assert _broken(spec, lambda s: s["per_layer"][1].update(
        name=s["per_layer"][0]["name"]))
    assert _broken(spec, lambda s: s.update(end_to_end=[
        m for m in s["end_to_end"] if m["name"] != "setup_s"]))
