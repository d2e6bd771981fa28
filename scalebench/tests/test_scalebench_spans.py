"""Span arithmetic and wrapper hygiene of :mod:`scalebench.spans`."""

import pytest

from scalebench.spans import Tracer


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


class Layers:
    """A stand-in program: an outer call, an inner call, a recursion."""

    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.tick(1.0)
        self.inner()
        self.inner()
        self.clock.tick(0.5)
        return "done"

    def inner(self):
        self.clock.tick(2.0)

    def countdown(self, n):
        self.clock.tick(1.0)
        if n:
            self.countdown(n - 1)

    def steps(self, n):
        total = 0
        for i in range(n):
            self.clock.tick(1.0)
            total += yield i
        return total


@pytest.fixture
def traced():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    yield tracer, Layers(clock), clock
    assert tracer.uninstall() == 0


def test_self_time_excludes_child_spans(traced):
    tracer, program, _clock = traced
    tracer.wrap(Layers, "outer", "outer")
    tracer.wrap(Layers, "inner", "inner")
    assert program.outer() == "done"
    assert tracer.calls("outer") == 1 and tracer.calls("inner") == 2
    assert tracer.self_s("outer") == pytest.approx(1.5)
    assert tracer.self_s("inner") == pytest.approx(4.0)


def test_recursive_spans_do_not_double_count(traced):
    tracer, program, clock = traced
    tracer.wrap(Layers, "countdown", "countdown")
    with tracer.span("root"):
        program.countdown(3)
        clock.tick(0.25)
    assert tracer.calls("countdown") == 4
    assert tracer.self_s("countdown") == pytest.approx(4.0)
    assert tracer.self_s("root") == pytest.approx(0.25)
    # Self times under a root always add up to the root's duration.
    assert tracer.self_s("root", "countdown") == pytest.approx(4.25)


def test_span_records_name_their_parent(traced):
    tracer, program, _clock = traced
    tracer.wrap(Layers, "outer", "outer")
    tracer.wrap(Layers, "inner", "inner")
    program.outer()
    by_name = {}
    for span_id, parent, name, start, end in tracer.spans:
        by_name.setdefault(name, []).append((span_id, parent, start, end))
    (outer_id, outer_parent, start, end), = by_name["outer"]
    assert outer_parent == 0 and (start, end) == (0.0, 5.5)
    assert [parent for _id, parent, _s, _e in by_name["inner"]] == [outer_id] * 2


def test_span_cap_bounds_records_but_not_totals():
    clock = FakeClock()
    tracer = Tracer(clock=clock, span_cap=3)
    program = Layers(clock)
    tracer.wrap(Layers, "inner", "inner")
    for _ in range(10):
        program.inner()
    assert len(tracer.spans) == 3
    assert tracer.calls("inner") == 10
    assert tracer.self_s("inner") == pytest.approx(20.0)
    assert tracer.uninstall() == 0


def test_generator_steps_are_spans_and_protocol_is_forwarded(traced):
    tracer, program, clock = traced
    tracer.wrap(Layers, "steps", "steps", generator=True)
    gen = program.steps(3)
    assert next(gen) == 0
    clock.tick(10.0)  # time between resumptions belongs to the caller
    assert gen.send(5) == 1
    assert gen.send(7) == 2
    with pytest.raises(StopIteration) as stop:
        gen.send(1)
    assert stop.value.value == 13
    assert tracer.calls("steps") == 1
    assert tracer.self_s("steps") == pytest.approx(3.0)


def test_closing_a_wrapped_generator_closes_the_original(traced):
    tracer, _program, _clock = traced
    closed = []

    class Resource:
        def hold(self):
            try:
                yield 1
                yield 2
            finally:
                closed.append(True)

    tracer.wrap(Resource, "hold", "hold", generator=True)
    gen = Resource().hold()
    assert next(gen) == 1
    gen.close()
    assert closed == [True]


def test_hooks_see_arguments_and_result(traced):
    tracer, program, _clock = traced
    seen = []
    tracer.wrap(Layers, "outer", "outer",
                before=lambda args: "token",
                after=lambda token, args, result: seen.append(
                    (token, args[0] is program, result)))
    program.outer()
    assert seen == [("token", True, "done")]


def test_sampled_wrapper_counts_every_call_and_estimates_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer._clock_cost = 0.0
    program = Layers(clock)
    tracer.wrap(Layers, "inner", "inner", sample_every=4)
    with tracer.span("root"):
        for _ in range(4000):
            program.inner()
    assert tracer.calls("inner") == 4000
    # 2 s per call; the estimate is unbiased, the gaps are pseudo-random.
    assert tracer.self_s("inner") == pytest.approx(8000.0, rel=0.1)
    # Whatever the estimate is, the caller is charged exactly that much.
    assert tracer.self_s("root", "inner") == pytest.approx(8000.0)
    assert tracer.uninstall() == 0


def test_install_and_uninstall_restore_identity():
    tracer = Tracer()
    originals = {name: vars(Layers)[name] for name in ("outer", "inner")}
    tracer.wrap(Layers, "outer", "outer")
    tracer.wrap(Layers, "inner", "a")
    tracer.wrap(Layers, "inner", "b")  # stacked on the first wrapper
    assert vars(Layers)["outer"] is not originals["outer"]
    assert vars(Layers)["outer"].__wrapped__ is originals["outer"]
    assert tracer.uninstall() == 0
    for name, original in originals.items():
        assert vars(Layers)[name] is original


def test_uninstall_reports_a_wrapper_someone_else_replaced():
    tracer = Tracer()
    original = vars(Layers)["inner"]
    tracer.wrap(Layers, "inner", "inner")
    Layers.inner = lambda self: None
    assert tracer.uninstall() == 1
    assert vars(Layers)["inner"] is original


def test_wrap_implementations_reaches_overriding_subclasses(traced):
    tracer, _program, clock = traced

    class Special(Layers):
        def inner(self):
            self.clock.tick(3.0)

    class Plain(Layers):
        pass

    assert tracer.wrap_implementations(Layers, "inner", "inner") == 2
    Special(clock).inner()
    Plain(clock).inner()
    assert tracer.calls("inner") == 2
    assert tracer.self_s("inner") == pytest.approx(5.0)


def test_wrap_function_rebinds_every_namespace(traced):
    import types

    tracer, _program, _clock = traced

    def helper():
        return 42

    first, second = types.ModuleType("sb_first"), types.ModuleType("sb_second")
    first.helper = second.alias = helper
    import sys
    sys.modules["sb_first"], sys.modules["sb_second"] = first, second
    try:
        assert tracer.wrap_function(helper, "helper") == 2
        assert first.helper() == 42 and second.alias() == 42
        assert tracer.calls("helper") == 2
        assert tracer.uninstall() == 0
        assert first.helper is helper and second.alias is helper
    finally:
        del sys.modules["sb_first"], sys.modules["sb_second"]


def test_jsonl_dump_has_spans_then_summaries(tmp_path, traced):
    import json

    tracer, program, _clock = traced
    tracer.wrap(Layers, "outer", "outer")
    tracer.wrap(Layers, "inner", "inner")
    program.outer()
    path = tmp_path / "spans.jsonl"
    tracer.dump_jsonl(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    spans = [line for line in lines if "id" in line]
    summaries = {line["summary"]: line for line in lines if "summary" in line}
    assert len(spans) == 3 and min(s["start"] for s in spans) == 0.0
    assert summaries["inner"]["calls"] == 2
    assert summaries["outer"]["self_s"] == pytest.approx(1.5)
