"""Ladder soundness on generated programs under drawn node budgets.

Whatever rung of the degradation ladder answers, the answer must be the
full one (``full``, ``resume``) or contain it once contexts are projected
out (``truncated``, ``context_insensitive``).
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.analysis import ContextSensitiveAnalysis
from repro.bench.generator import WorkloadParams, generate_program
from repro.ir import extract_facts
from repro.runtime import ResourceBudget

# A few small programs, solved ungoverned once per session.
PROGRAMS = [
    WorkloadParams(seed=1, layers=3, use_library=False),
    WorkloadParams(seed=2, layers=4, recursion_cliques=2, use_library=False),
    WorkloadParams(seed=3, layers=4, threads=2, shared_chain=2,
                   use_library=False),
]


def _relations(result):
    return {
        name: set(rel.tuples()) for name, rel in result.solver.relations.items()
    }


@lru_cache(maxsize=None)
def _reference(index):
    """(facts, every relation of the full answer, projected points-to,
    ungoverned peak nodes)."""
    facts = extract_facts(generate_program(PROGRAMS[index]))
    full = ContextSensitiveAnalysis(facts=facts).run()
    return (facts, _relations(full), set(full._points_to_tuples()),
            full.peak_nodes)


@given(
    index=st.integers(0, len(PROGRAMS) - 1),
    scale=st.floats(0.2, 6.0),
    cap=st.sampled_from([1, 2, 64]),
)
@settings(max_examples=15, deadline=None)
def test_every_rung_answer_is_sound(index, scale, cap):
    facts, relations, projected, peak = _reference(index)
    result = ContextSensitiveAnalysis(
        facts=facts,
        truncate_cap=cap,
        budget=ResourceBudget(timeout=300, node_budget=int(scale * peak)),
    ).run()
    mode = result.degradation.final_mode
    if mode in ("full", "resume"):
        assert _relations(result) == relations
    else:
        assert mode in ("truncated", "context_insensitive")
        assert set(result._points_to_tuples()) >= projected


@given(
    index=st.integers(0, len(PROGRAMS) - 1),
    mode=st.sampled_from(["truncated", "context_insensitive"]),
    cap=st.sampled_from([1, 2, 64]),
)
@settings(max_examples=10, deadline=None)
def test_run_rung_degraded_answers_contain_full(index, mode, cap):
    facts, _, projected, _ = _reference(index)
    result = ContextSensitiveAnalysis(facts=facts, truncate_cap=cap).run_rung(
        mode
    )
    assert result.degraded is True
    assert set(result._points_to_tuples()) >= projected
