import pytest

import spans as sp


def forest():
    """root(0..10) -> a(1..4) -> leaf(2..3); root -> a(5..9); other root(20..21)."""
    return [
        sp.Span("root", 0.0, 10.0, None, 1),
        sp.Span("a", 1.0, 4.0, 0, 1),
        sp.Span("leaf", 2.0, 3.0, 1, 1),
        sp.Span("a", 5.0, 9.0, 0, 1),
        sp.Span("root", 20.0, 21.0, None, 2),
    ]


def test_self_time_is_duration_minus_direct_children():
    totals = sp.span_totals(forest())
    assert totals["root"].calls == 2
    assert totals["root"].total_s == pytest.approx(11.0)
    assert totals["root"].self_s == pytest.approx(10.0 - 3.0 - 4.0 + 1.0)
    assert totals["a"].self_s == pytest.approx(3.0 - 1.0 + 4.0)
    assert totals["a"].leaf_calls == 1  # the second ``a`` opened no child
    assert totals["leaf"].self_s == pytest.approx(1.0)
    # self times partition the traced time
    assert sum(t.self_s for t in totals.values()) == pytest.approx(11.0)


class Op:
    def apply(self, v):
        return self.apply_hopping(v) + 1

    def apply_hopping(self, v):
        return v * 2


class Level:
    def __init__(self, index, op):
        self.index, self.op, self.transfer, self.smoother = index, op, None, None


class Hierarchy:
    def __init__(self, levels):
        self.levels = levels


def test_wrapping_records_nested_spans_and_uninstall_restores():
    op = Op()
    recorder = sp.SpanRecorder()
    installed = sp.install(recorder, hierarchy=Hierarchy([Level(0, op)]))
    assert op.apply(1) == 3
    names = [s.name for s in recorder.spans]
    assert names == ["dirac.L0.apply", "dirac.L0.hop"]
    assert recorder.spans[1].parent == 0
    installed.uninstall()
    assert "apply" not in vars(op)
    op.apply(1)
    assert len(recorder.spans) == 2


def test_missing_targets_degrade_to_untraced():
    """A refactor that drops a public method must not break the trace."""
    recorder = sp.SpanRecorder()
    installed = sp.install(recorder, hierarchy=Hierarchy([Level(0, Op())]))
    # Op has no apply_multi / apply_diag / apply_diag_inv
    assert installed.untraced == [
        "dirac.L0.apply_multi", "dirac.L0.diag", "dirac.L0.diag_inv"
    ]
    installed.uninstall()

    class Solver:  # no ``solve``, no ``preconditioner``
        pass

    installed = sp.install(recorder, solver=Solver())
    assert installed.untraced == ["solvers.outer_gcr", "mg.kcycle"]


def test_class_level_wrap_names_span_by_instance_level():
    class Cycle:
        def __init__(self, level):
            self.level = level

        def apply(self, r):
            return r if self.level else Cycle(1).apply(r)

    class Solver:
        preconditioner = Cycle(0)

        def solve(self, b, tol=None):
            return self.preconditioner.apply(b)

    recorder = sp.SpanRecorder()
    solver = Solver()
    installed = sp.install(recorder, solver=solver)
    solver.solve(1)
    assert [s.name for s in recorder.spans] == [
        "solvers.outer_gcr", "mg.kcycle.L0", "mg.kcycle.L1"
    ]
    assert [s.parent for s in recorder.spans] == [None, 0, 1]
    installed.uninstall()
    assert not hasattr(Cycle.apply, "__wrapped__")
