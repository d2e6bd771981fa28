"""Tests for the offending-function finder (program analysis)."""

import textwrap

import pytest

import repro.cassandra.legacy_calc as legacy_calc
from repro.analysis import Program
from repro.annotations import (
    AnnotationRegistry,
    pil_safe,
    pil_unsafe,
    scale_dependent,
)
from repro.core.finder import find_offending


def make_registry(*names):
    registry = AnnotationRegistry()
    scale_dependent(*names, registry=registry)
    return registry


def report_for(registry, source):
    """The report of a one-module program built from ``source``."""
    program = Program.from_sources({"m": textwrap.dedent(source)}, registry)
    return program.modules["m"].report


def analyze(source, *scale_names):
    return report_for(make_registry(*scale_names), source)


# -- basic loop detection ------------------------------------------------------------


def test_loop_over_annotated_structure_detected():
    report = analyze(
        """
        def f(ring):
            total = 0
            for node in ring:
                total += 1
            return total
        """,
        "ring",
    )
    analysis = report.functions["f"]
    assert analysis.local_depth == 1
    assert analysis.category == "serialized-linear"


def test_unannotated_loop_not_flagged():
    report = analyze(
        """
        def f(items):
            for x in items:
                pass
            return 0
        """,
        "ring",
    )
    assert report.functions["f"].local_depth == 0


def test_nested_loops_counted():
    report = analyze(
        """
        def f(ring):
            out = []
            for a in ring:
                for b in ring:
                    out.append((a, b))
            return out
        """,
        "ring",
    )
    analysis = report.functions["f"]
    assert analysis.local_depth == 2
    assert analysis.offending
    assert analysis.complexity == "O(N^2)"


def test_taint_through_assignment():
    report = analyze(
        """
        def f(ring):
            items = sorted(ring)
            copy = list(items)
            for x in copy:
                pass
            return 1
        """,
        "ring",
    )
    assert report.functions["f"].local_depth == 1


def test_scalar_builtins_launder_taint():
    report = analyze(
        """
        def f(ring):
            n = len(ring)
            for i in range(3):
                pass
            return n
        """,
        "ring",
    )
    assert report.functions["f"].local_depth == 0


def test_range_len_of_tainted_is_scale_loop():
    report = analyze(
        """
        def f(ring):
            for i in range(len(ring)):
                pass
            return 0
        """,
        "ring",
    )
    # range(len(ring)) iterates a cluster-sized index space.
    assert report.functions["f"].local_depth == 1


def test_element_subscript_launders_slice_keeps_taint():
    report = analyze(
        """
        def f(ring):
            head = ring[0]
            tail = ring[1:]
            for x in tail:
                pass
            for y in head:
                pass
            return 0
        """,
        "ring",
    )
    # Only the slice-derived loop is scale-dependent.
    assert report.functions["f"].local_depth == 1
    assert len(report.functions["f"].scale_loops) == 1


def test_comprehension_counts_as_scale_loop():
    report = analyze(
        """
        def f(ring):
            return [x for x in ring]
        """,
        "ring",
    )
    assert report.functions["f"].local_depth == 1


def test_while_loop_over_tainted_condition():
    report = analyze(
        """
        def f(ring):
            while ring:
                ring = ring[1:]
            return 0
        """,
        "ring",
    )
    assert report.functions["f"].local_depth == 1


# -- cross-function analysis -----------------------------------------------------------


def test_cross_function_nest_depth():
    report = analyze(
        """
        def inner(items):
            for x in items:
                pass
            return 1

        def outer(ring):
            for a in ring:
                inner(ring)
            return 2
        """,
        "ring",
    )
    # outer: loop(1) + call to inner whose param is tainted (depth 1) = 2.
    assert report.functions["outer"].effective_depth == 2
    assert report.functions["outer"].offending
    assert report.functions["inner"].effective_depth == 1


def test_taint_propagates_through_parameters():
    report = analyze(
        """
        def helper(stuff):
            for x in stuff:
                pass
            return 0

        def entry(ring):
            renamed = ring
            return helper(renamed)
        """,
        "ring",
    )
    assert report.functions["helper"].effective_depth == 1
    assert report.functions["entry"].effective_depth == 1


def test_taint_reaches_a_nest_twelve_calls_deep():
    """Each fixpoint round moves taint one call hop, so the rounds run
    until nothing changes rather than for a fixed count."""
    hops = "".join(f"def hop{i}(x):\n    return hop{i + 1}(x)\n\n"
                   for i in range(12))
    source = (
        "def entry(ring):\n    return hop0(ring)\n\n" + hops
        + "def hop12(x):\n"
          "    total = 0\n"
          "    for a in x:\n"
          "        for b in x:\n"
          "            total += 1\n"
          "    return total\n"
    )
    report = report_for(axis_registry(ring="T"), source)
    assert report.functions["hop12"].complexity == "O(T^2)"
    assert report.functions["entry"].complexity == "O(T^2)"
    assert report.functions["entry"].offending


def test_local_taint_reaches_a_loop_seven_assignments_back():
    """Taint assigned later in a body reaches an earlier loop one
    assignment per pass, so the passes run until nothing changes."""
    copies = "".join(f"    x{i} = x{i + 1}\n" for i in range(1, 7))
    source = (
        "def f(ring):\n"
        "    total = 0\n"
        "    for a in x1:\n"
        "        for b in x1:\n"
        "            total += 1\n"
        + copies
        + "    x7 = ring\n"
          "    return total\n"
    )
    assert report_for(axis_registry(ring="T"), source).functions[
        "f"].complexity == "O(T^2)"


def test_recursion_does_not_hang():
    report = analyze(
        """
        def f(ring):
            for x in ring:
                f(ring)
            return 0
        """,
        "ring",
    )
    assert report.functions["f"].effective_depth >= 1


def test_guard_conditions_recorded():
    report = analyze(
        """
        def f(ring, fresh):
            if fresh:
                for x in ring:
                    pass
            return 0
        """,
        "ring",
    )
    loops = report.functions["f"].scale_loops
    assert loops[0].guards == ("fresh",)
    assert report.functions["f"].guard_conditions() == ["fresh"]


def test_else_branch_guard_negated():
    report = analyze(
        """
        def f(ring, fresh):
            if fresh:
                pass
            else:
                for x in ring:
                    pass
            return 0
        """,
        "ring",
    )
    assert report.functions["f"].scale_loops[0].guards == ("not (fresh)",)


# -- side effects and PIL safety ----------------------------------------------------------


def test_pure_function_is_pil_safe():
    report = analyze(
        """
        def f(ring):
            out = []
            for a in ring:
                for b in ring:
                    out.append((a, b))
            return out
        """,
        "ring",
    )
    assert report.functions["f"].pil_safe()


@pytest.mark.parametrize("stmt,kind", [
    ("print(x)", "io"),
    ("open('f')", "io"),
    ("sock.send(x)", "network"),
    ("lock.acquire()", "lock"),
    ("time.sleep(1)", "blocking"),
    ("random.choice(ring)", "nondeterminism"),
])
def test_side_effects_veto_pil_safety(stmt, kind):
    report = analyze(
        f"""
        def f(ring, sock, lock, time, random):
            for x in ring:
                {stmt}
            return 1
        """,
        "ring",
    )
    analysis = report.functions["f"]
    assert kind in analysis.transitive_effect_kinds
    assert not analysis.pil_safe()


def test_side_effects_propagate_through_calls():
    report = analyze(
        """
        def leaf(x):
            print(x)
            return x

        def entry(ring):
            for a in ring:
                leaf(a)
            return 0
        """,
        "ring",
    )
    assert not report.functions["entry"].pil_safe()
    assert "io" in report.functions["entry"].transitive_effect_kinds


def test_self_state_write_vetoes():
    report = analyze(
        """
        class C:
            def f(self, ring):
                for x in ring:
                    self.cache = x
                return 1
        """,
        "ring",
    )
    assert not report.functions["C.f"].pil_safe()


def test_param_mutation_is_warning_not_veto():
    report = analyze(
        """
        def f(ring, out):
            for x in ring:
                out[x] = 1
            return out
        """,
        "ring",
    )
    analysis = report.functions["f"]
    assert analysis.param_mutations
    assert analysis.pil_safe()   # warning only


def test_no_return_value_is_not_memoizable():
    report = analyze(
        """
        def f(ring):
            for x in ring:
                pass
        """,
        "ring",
    )
    assert not report.functions["f"].pil_safe()


def test_global_write_vetoes():
    report = analyze(
        """
        TOTAL = 0
        def f(ring):
            global TOTAL
            for x in ring:
                TOTAL += 1
            return TOTAL
        """,
        "ring",
    )
    assert not report.functions["f"].pil_safe()


def test_registry_overrides_beat_analysis():
    registry = make_registry("ring")
    source = """
def probe(ring):
    for x in ring:
        print(x)
    return 1
"""
    report = report_for(registry, source)
    assert not report.functions["probe"].pil_safe(registry)
    registry.add_pil_safe("probe")    # developer asserts the print is benign
    assert report.functions["probe"].pil_safe(registry)
    registry.add_pil_unsafe("probe")  # developer vetoes
    assert not report.functions["probe"].pil_safe(registry)


def test_pil_safe_decorator_registers_qualname():
    registry = AnnotationRegistry()

    def probe():
        return 1

    pil_safe(probe, registry=registry)
    assert registry.pil_safety_override(probe.__qualname__) is True
    pil_unsafe(probe, registry=registry)
    assert registry.pil_safety_override(probe.__qualname__) is False


# -- whole-corpus results (the paper's step (b) on our substrate) ---------------------------


class TestLegacyCorpus:
    @pytest.fixture(scope="class")
    def report(self):
        return find_offending(legacy_calc)

    def test_entry_point_is_offending_via_callees(self, report):
        entry = report.functions["calculate_pending_ranges_legacy"]
        assert entry.local_depth == 0          # no loops of its own...
        assert entry.effective_depth >= 2      # ...but superlinear via calls
        assert entry.offending
        assert entry.pil_safe()

    def test_fresh_bootstrap_path_is_branch_guarded(self, report):
        entry = report.functions["calculate_pending_ranges_legacy"]
        fresh_calls = [c for c in entry.calls
                       if c.callee == "_fresh_ring_construction"]
        assert fresh_calls
        assert any("_is_fresh_bootstrap" in g for g in fresh_calls[0].guards)

    def test_offenders_found(self, report):
        names = {f.qualname for f in report.offenders()}
        assert "_incremental_update" in names
        assert "_fresh_ring_construction" in names

    def test_linear_helpers_categorized(self, report):
        linear = {f.qualname for f in report.serialized_linear()}
        assert "_natural_endpoints_scan" in linear
        assert "_successor_scan" in linear

    def test_all_offenders_are_pil_candidates(self, report):
        # The whole corpus is pure computation: every offender is PIL-safe.
        assert report.pil_candidates() == report.offenders()

    def test_category_counts_partition_functions(self, report):
        counts = report.category_counts()
        assert sum(counts.values()) == len(report.functions)

    def test_functions_are_keyed_by_qualname(self, report):
        assert all(key == analysis.qualname
                   for key, analysis in report.functions.items())
        with pytest.raises(KeyError):
            report.functions["nonexistent"]


def test_finder_refuses_gossiper_message_handling():
    """Self-application sanity: pointed at the real Gossiper, the analysis
    refuses to PIL-replace the message handlers (they send network replies
    and mutate node state), exactly the verdict the rule demands."""
    import repro.cassandra.gossip as gossip_module

    report = find_offending(gossip_module,
                            make_registry("endpoint_state_map"))
    handler = report.functions["Gossiper._handle_syn"]
    assert "network" in handler.transitive_effect_kinds
    assert not handler.pil_safe(make_registry("endpoint_state_map"))
    apply_state = report.functions["Gossiper._apply_state"]
    assert not apply_state.pil_safe(make_registry("endpoint_state_map"))


# -- named scale axes (closed-form labels) -------------------------------------------


def axis_registry(**vars_by_name):
    registry = AnnotationRegistry()
    for name, var in vars_by_name.items():
        scale_dependent(name, var=var, registry=registry)
    return registry


class TestNamedAxes:
    def test_distinct_axes_yield_distinct_labels(self):
        # An O(N·NP) nest (nodes x vnodes) must not collapse to O(N^2).
        registry = axis_registry(nodes="N", vnodes="NP")
        report = report_for(
            registry, """
            def f(nodes, vnodes):
                total = 0
                for n in nodes:
                    for v in vnodes:
                        total += 1
                return total
            """
        )
        assert report.functions["f"].complexity == "O(N·NP)"

    def test_same_axis_twice_squares(self):
        registry = axis_registry(ring="T")
        report = report_for(
            registry, """
            def f(ring):
                total = 0
                for a in ring:
                    for b in ring:
                        total += 1
                return total
            """
        )
        assert report.functions["f"].complexity == "O(T^2)"

    def test_unnamed_axes_keep_depth_fallback(self):
        report = analyze(
            """
            def f(ring):
                total = 0
                for a in ring:
                    for b in ring:
                        total += 1
                return total
            """,
            "ring",
        )
        assert report.functions["f"].complexity == "O(N^2)"

    def test_scale_loops_carry_axis_vars(self):
        registry = axis_registry(ring="T")
        report = report_for(
            registry, """
            def f(ring):
                for a in ring:
                    pass
                return 0
            """
        )
        loops = report.functions["f"].scale_loops
        assert [loop.axes for loop in loops] == [("T",)]

    def test_mixed_structure_level_sums_axes(self):
        # One loop over a structure tainted by two axes: the level's factor
        # is the sum M+T, not a product.
        registry = axis_registry(ring="T", changes="M")
        report = report_for(
            registry, """
            def f(ring, changes):
                merged = list(ring) + list(changes)
                total = 0
                for item in merged:
                    total += 1
                return total
            """
        )
        assert report.functions["f"].complexity == "O((M+T))"


# -- PIL-safety tightening: generators and implicit None -----------------------------


class TestPilSafetyVerdicts:
    def test_generator_unsafe_even_with_override(self):
        registry = make_registry("ring")
        report = report_for(
            registry, """
            def gen(ring):
                for a in ring:
                    yield a
            """
        )
        analysis = report.functions["gen"]
        assert analysis.is_generator
        assert not analysis.pil_safe(registry)
        # The veto is absolute: a developer assertion cannot lift it.
        registry.add_pil_safe(analysis.qualname)
        assert not analysis.pil_safe(registry)

    def test_implicit_none_return_is_unsafe(self):
        registry = make_registry("ring")
        report = report_for(
            registry, """
            def walk(ring):
                total = 0
                for a in ring:
                    total += 1
            """
        )
        analysis = report.functions["walk"]
        assert not analysis.returns_value
        assert not analysis.pil_safe(registry)

    def test_bare_return_is_unsafe(self):
        registry = make_registry("ring")
        report = report_for(
            registry, """
            def walk(ring):
                for a in ring:
                    if a is None:
                        return
                return
            """
        )
        analysis = report.functions["walk"]
        assert not analysis.returns_value

    def test_real_return_is_safe(self):
        registry = make_registry("ring")
        report = report_for(
            registry, """
            def walk(ring):
                total = 0
                for a in ring:
                    total += 1
                return total
            """
        )
        analysis = report.functions["walk"]
        assert analysis.returns_value
        assert analysis.pil_safe(registry)
