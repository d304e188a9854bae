"""A rung resumes only from a checkpoint of its own program, and races
its deadline from the call-graph discovery on.

Two programs share one checkpoint directory, as ``analyze --isolate
--checkpoint-dir D`` over several files does.  They differ in one call
argument, so their relation schemas and domain sizes are equal and only
the facts tell their checkpoints apart.
"""

import pytest

from repro.analysis import ContextSensitiveAnalysis, ThreadEscapeAnalysis
from repro.analysis import escape as escape_module
from repro.callgraph import cha_call_graph
from repro.ir.facts import extract_facts
from repro.ir.frontend import parse_program
from repro.runtime import (
    ResourceBudget,
    SolverTimeout,
    budget as budget_module,
    faults,
    save_checkpoint,
)

SOURCE = """
class Helper {{
    field f : Object;
    method keep(x : Object) {{
        this.f = x;
    }}
}}
class Main {{
    static method main() {{
        h = new Helper;
        a = new Object;
        h.keep({arg});
    }}
}}
"""


def _facts(arg):
    return extract_facts(
        parse_program(SOURCE.format(arg=arg), include_library=False)
    )


def _stratum_hits(facts):
    """Stratum arrivals of the call-graph discovery and of a whole rung."""
    try:
        faults.arm("exception@solver.stratum#999999999")
        ContextSensitiveAnalysis(facts=facts)._obtain_call_graph()
        discovery = faults._SITES["solver.stratum"].hits
        faults.arm("exception@solver.stratum#999999999")
        ContextSensitiveAnalysis(facts=facts).run_rung("full")
        total = faults._SITES["solver.stratum"].hits
    finally:
        faults.disarm()
    return discovery, total


def _fault_full_rung(facts, checkpoint_dir):
    """A ``full`` rung that faults in its last stratum and checkpoints."""
    discovery, total = _stratum_hits(facts)
    assert total - discovery > 2
    faults.arm(f"exception@solver.stratum#{total - 1}")
    try:
        with pytest.raises(faults.FaultError):
            ContextSensitiveAnalysis(
                facts=facts, checkpoint_dir=str(checkpoint_dir)
            ).run_rung("full")
    finally:
        faults.disarm()
    return checkpoint_dir / "context_sensitive.ckpt"


def test_rung_ignores_another_programs_checkpoint(tmp_path):
    first, second = _facts("a"), _facts("h")
    assert first.sizes == second.sizes
    assert _fault_full_rung(first, tmp_path).exists()

    fresh = ContextSensitiveAnalysis(facts=second).run_rung("full")
    result = ContextSensitiveAnalysis(
        facts=second, checkpoint_dir=str(tmp_path)
    ).run_rung("full")
    assert result.resumed is False
    # Resuming the other program's checkpoint answered "new Object".
    assert [h.split(":")[-1] for h in result.points_to("Helper.keep", "x")] \
        == ["new Helper"]
    assert set(result._points_to_tuples()) == set(fresh._points_to_tuples())


@pytest.mark.parametrize("stale", ["no digest", "not a checkpoint"])
def test_rung_ignores_a_checkpoint_it_cannot_identify(tmp_path, stale):
    facts = _facts("a")
    fresh = ContextSensitiveAnalysis(facts=facts).run_rung("full")
    path = tmp_path / "context_sensitive.ckpt"
    if stale == "no digest":
        save_checkpoint(fresh.solver, path)
    else:
        path.write_text("garbage\n")
    result = ContextSensitiveAnalysis(
        facts=facts, checkpoint_dir=str(tmp_path)
    ).run_rung("full")
    assert result.resumed is False
    assert set(result._points_to_tuples()) == set(fresh._points_to_tuples())
    assert path.exists()


def test_rung_resumes_from_its_own_checkpoint(tmp_path):
    facts = _facts("a")
    _fault_full_rung(facts, tmp_path)
    fresh = ContextSensitiveAnalysis(facts=facts).run_rung("full")
    result = ContextSensitiveAnalysis(
        facts=facts, checkpoint_dir=str(tmp_path)
    ).run_rung("full")
    assert result.resumed is True
    assert set(result._points_to_tuples()) == set(fresh._points_to_tuples())
    assert not (tmp_path / "context_sensitive.ckpt").exists()


def test_rung_loads_the_checkpoint_it_checked(tmp_path, monkeypatch):
    """Another program's checkpoint replaces the file after the rung
    checked it and before it loads: the rung loads what it checked."""
    first, second = _facts("a"), _facts("h")
    other = _fault_full_rung(first, tmp_path / "first")
    own = _fault_full_rung(second, tmp_path / "second")
    build = ContextSensitiveAnalysis._build_solver

    def swap_then_build(self, *args, **kwargs):
        own.write_bytes(other.read_bytes())
        return build(self, *args, **kwargs)

    monkeypatch.setattr(
        ContextSensitiveAnalysis, "_build_solver", swap_then_build
    )
    result = ContextSensitiveAnalysis(
        facts=second, checkpoint_dir=str(tmp_path / "second")
    ).run_rung("full")
    monkeypatch.undo()
    fresh = ContextSensitiveAnalysis(facts=second).run_rung("full")
    assert result.resumed is True
    assert set(result._points_to_tuples()) == set(fresh._points_to_tuples())


class _SteppingClock:
    """Stands in for the budget module's ``time``: every reading of the
    clock advances it by one second."""

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        self.now += 1.0
        return self.now


@pytest.mark.parametrize("call", ["run", "ladder", "run_rung"])
def test_rung_saves_after_its_deadline_only_for_a_supervisor(
    tmp_path, monkeypatch, call
):
    """In-process runs answer within their deadline, so a timed-out rung
    saves no checkpoint there; a supervised rung still saves one."""
    facts = _facts("a")
    analysis = ContextSensitiveAnalysis(
        facts=facts,
        call_graph=cha_call_graph(facts),
        budget=ResourceBudget(timeout=1.5),
        degrade=call == "ladder",
        checkpoint_dir=str(tmp_path),
    )
    monkeypatch.setattr(budget_module, "time", _SteppingClock())
    with pytest.raises(SolverTimeout):
        if call == "run_rung":
            analysis.run_rung("full")
        else:
            analysis.run()
    assert (tmp_path / "context_sensitive.ckpt").exists() is (
        call == "run_rung"
    )


def _unreachable(*args, **kwargs):
    raise AssertionError("the solve after discovery was reached")


@pytest.mark.parametrize("call", ["run", "run_rung"])
def test_call_graph_discovery_runs_under_the_deadline(monkeypatch, call):
    """Algorithm 3's discovery races the analysis's deadline, so a timeout
    fires before the cloned solver is built."""
    analysis = ContextSensitiveAnalysis(
        facts=_facts("a"), budget=ResourceBudget(timeout=1.5), degrade=False
    )
    monkeypatch.setattr(ContextSensitiveAnalysis, "_build_solver", _unreachable)
    monkeypatch.setattr(budget_module, "time", _SteppingClock())
    with pytest.raises(SolverTimeout):
        if call == "run_rung":
            analysis.run_rung("full")
        else:
            analysis.run()


def test_escape_discovery_runs_under_the_deadline(monkeypatch):
    """The same for Algorithm 7: the timeout fires in discovery, before
    the escape solver is built."""
    analysis = ThreadEscapeAnalysis(
        facts=_facts("a"), budget=ResourceBudget(timeout=1.5)
    )
    monkeypatch.setattr(escape_module, "make_solver", _unreachable)
    monkeypatch.setattr(budget_module, "time", _SteppingClock())
    with pytest.raises(SolverTimeout):
        analysis.run()
