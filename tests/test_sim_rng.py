"""Tests for deterministic stream-split randomness."""

import pytest

from repro.sim import SplittableRng, derive_seed


def test_derive_seed_is_stable_and_name_sensitive():
    assert derive_seed(42, "a") == derive_seed(42, "a")
    assert derive_seed(42, "a") != derive_seed(42, "b")
    assert derive_seed(42, "a") != derive_seed(43, "a")


def test_streams_are_reproducible():
    rng1 = SplittableRng(7)
    rng2 = SplittableRng(7)
    seq1 = [rng1.random("s") for __ in range(10)]
    seq2 = [rng2.random("s") for __ in range(10)]
    assert seq1 == seq2


def test_streams_are_independent():
    # Draws from one stream must not perturb another: interleave draws on
    # rng1 and check stream "a" still matches a clean run.
    rng1 = SplittableRng(7)
    rng2 = SplittableRng(7)
    seq_interleaved = []
    for __ in range(10):
        seq_interleaved.append(rng1.random("a"))
        rng1.random("b")  # extra consumer
    seq_clean = [rng2.random("a") for __ in range(10)]
    assert seq_interleaved == seq_clean


def test_choice_and_sample_respect_bounds():
    rng = SplittableRng(1)
    items = ["x", "y", "z"]
    for __ in range(20):
        assert rng.choice("c", items) in items
    sample = rng.sample("s", items, 2)
    assert len(sample) == 2
    assert set(sample) <= set(items)
    # Oversized k is clamped.
    assert sorted(rng.sample("s", items, 10)) == sorted(items)


def test_shuffled_returns_new_list():
    rng = SplittableRng(1)
    items = list(range(50))
    shuffled = rng.shuffled("sh", items)
    assert shuffled != items          # astronomically unlikely to be equal
    assert sorted(shuffled) == items
    assert items == list(range(50))   # input untouched


def test_uniform_and_randint_ranges():
    rng = SplittableRng(1)
    for __ in range(100):
        value = rng.uniform("u", 2.0, 3.0)
        assert 2.0 <= value <= 3.0
        integer = rng.randint("i", 5, 9)
        assert 5 <= integer <= 9


def test_iter_jitter_stays_in_band():
    rng = SplittableRng(1)
    jitter = rng.iter_jitter("j", base=1.0, spread=0.1)
    for __ in range(50):
        value = next(jitter)
        assert 0.9 <= value <= 1.1


def test_gauss_and_expovariate_smoke():
    rng = SplittableRng(1)
    values = [rng.gauss("g", 0.0, 1.0) for __ in range(200)]
    assert abs(sum(values) / len(values)) < 0.3
    exp_values = [rng.expovariate("e", 2.0) for __ in range(200)]
    assert all(v >= 0 for v in exp_values)


def test_uniform_once_draws_what_uniform_draws_and_keeps_no_stream():
    kept = SplittableRng(7)
    once = SplittableRng(7)
    for name in ("stagger:node-000", "fd-stagger:node-001"):
        assert [once.uniform_once(name, 0.0, 1.5) for __ in range(3)] == [
            kept.uniform(name, 0.0, 1.5) for __ in range(3)]
    assert once._streams == {}
    assert once._drawn == {"stagger:node-000": 3, "fd-stagger:node-001": 3}


def test_a_name_is_drawn_one_way_only():
    rng = SplittableRng(7)
    rng.uniform_once("once", 0.0, 1.0)
    rng.random("kept")
    with pytest.raises(ValueError, match="'once'"):
        rng.stream("once")
    with pytest.raises(ValueError, match="'kept'"):
        rng.uniform_once("kept", 0.0, 1.0)
