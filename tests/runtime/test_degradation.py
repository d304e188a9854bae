"""The degradation ladder: soundness, reporting, and the kill-switch demo."""

import json
import time

import pytest

from repro.analysis import ContextInsensitiveAnalysis, ContextSensitiveAnalysis
from repro.bench.corpus import CORPUS, corpus_program
from repro.runtime import NodeBudgetExceeded, ReproError, ResourceBudget

SMALL = "freetts"
# The largest corpus entry — the paper-scale stress case for the demo.
LARGEST = max(
    CORPUS, key=lambda e: e.params.layers * e.params.width * e.params.fanout
).name


@pytest.fixture(scope="module")
def small_program():
    return corpus_program(SMALL)


@pytest.fixture(scope="module")
def small_reference(small_program):
    """Ungoverned context-sensitive fixpoint on the small entry."""
    result = ContextSensitiveAnalysis(program=small_program).run()
    return set(result._points_to_tuples())


class TestGovernedRuns:
    def test_generous_budget_not_degraded(self, small_program, small_reference):
        result = ContextSensitiveAnalysis(
            program=small_program, budget=ResourceBudget(timeout=300)
        ).run()
        assert result.degraded is False
        assert result.degradation.final_mode == "full"
        assert [a.outcome for a in result.degradation.attempts] == ["ok"]
        assert set(result._points_to_tuples()) == small_reference

    def test_tiny_node_budget_degrades_to_ci(
        self, small_program, small_reference
    ):
        result = ContextSensitiveAnalysis(
            program=small_program,
            budget=ResourceBudget(timeout=300, node_budget=2000),
        ).run()
        assert result.degraded is True
        report = result.degradation
        assert report.final_mode == "context_insensitive"
        modes = [a.mode for a in report.attempts]
        assert modes == ["full", "resume", "truncated", "context_insensitive"]
        assert [a.outcome for a in report.attempts[:-1]] == ["node_budget"] * 3
        assert report.attempts[-1].outcome == "ok"
        # Sound: the degraded answer over-approximates the full one.
        assert set(result._points_to_tuples()) >= small_reference

    def test_degraded_ci_equals_plain_ci(self, small_program):
        governed = ContextSensitiveAnalysis(
            program=small_program,
            budget=ResourceBudget(timeout=300, node_budget=2000),
        ).run()
        assert governed.degradation.final_mode == "context_insensitive"
        plain = ContextInsensitiveAnalysis(program=small_program).run()
        assert set(governed._points_to_tuples()) == set(
            plain._points_to_tuples()
        )

    def test_degrade_false_raises_with_context(self, small_program):
        with pytest.raises(NodeBudgetExceeded) as exc:
            ContextSensitiveAnalysis(
                program=small_program,
                budget=ResourceBudget(node_budget=2000),
                degrade=False,
            ).run()
        err = exc.value
        assert err.completed_strata is not None
        assert err.stratum  # names the interrupted predicates
        assert err.stats is not None

    def test_checkpoint_dir_receives_checkpoint(
        self, small_program, tmp_path
    ):
        result = ContextSensitiveAnalysis(
            program=small_program,
            budget=ResourceBudget(timeout=300, node_budget=2000),
            checkpoint_dir=str(tmp_path),
        ).run()
        assert result.degraded
        ckpt = tmp_path / "context_sensitive.ckpt"
        assert ckpt.exists()
        assert ckpt.read_text().startswith("# repro-checkpoint 2")

    def test_corrupt_checkpoint_solves_fresh(
        self, small_program, small_reference, tmp_path
    ):
        """A checkpoint whose meta names this program but whose payload
        is corrupt names no program: an ungoverned run solves fresh and
        leaves the file for the next fault to overwrite."""
        ContextSensitiveAnalysis(
            program=small_program,
            budget=ResourceBudget(timeout=300, node_budget=2000),
            checkpoint_dir=str(tmp_path),
        ).run()
        ckpt = tmp_path / "context_sensitive.ckpt"
        lines = ckpt.read_text().splitlines(keepends=True)
        index = next(i for i, line in enumerate(lines)
                     if line.startswith("node "))
        fields = lines[index].split()
        fields[-1] = str(int(fields[-1]) ^ 1)
        lines[index] = " ".join(fields) + "\n"
        ckpt.write_text("".join(lines))
        result = ContextSensitiveAnalysis(
            program=small_program, checkpoint_dir=str(tmp_path)
        ).run()
        assert result.resumed is False
        assert set(result._points_to_tuples()) == small_reference
        assert ckpt.exists()

    def test_report_is_machine_readable(self, small_program):
        result = ContextSensitiveAnalysis(
            program=small_program,
            budget=ResourceBudget(timeout=300, node_budget=2000),
        ).run()
        payload = json.dumps(result.degradation.to_dict())
        parsed = json.loads(payload)
        assert parsed["degraded"] is True
        assert parsed["final_mode"] == "context_insensitive"
        assert {a["mode"] for a in parsed["attempts"]} >= {
            "full",
            "context_insensitive",
        }
        for attempt in parsed["attempts"]:
            assert set(attempt) == {
                "mode",
                "outcome",
                "seconds",
                "peak_nodes",
                "detail",
            }


class TestKillSwitchDemo:
    """Acceptance: the largest corpus entry under a tiny node budget
    terminates within the deadline with a sound degraded answer."""

    def test_kill_switch_on_largest_entry(self):
        program = corpus_program(LARGEST)
        deadline = 300.0
        result = ContextSensitiveAnalysis(
            program=program,
            budget=ResourceBudget(timeout=deadline, node_budget=5000),
        ).run()
        assert result.seconds < deadline
        assert result.degraded is True
        report = result.degradation
        assert report.final_mode == "context_insensitive"
        assert all(
            a.outcome in ("node_budget", "timeout") for a in report.attempts[:-1]
        )
        ci = ContextInsensitiveAnalysis(program=program).run()
        assert set(result._points_to_tuples()) == set(ci._points_to_tuples())


class TestLadderMiddleRungs:
    def test_resume_after_reorder_reaches_full_fixpoint(
        self, small_program, small_reference
    ):
        """A budget the first attempt just misses exercises the resume
        rung; whatever rung finishes, the answer must be sound."""
        analysis = ContextSensitiveAnalysis(
            program=small_program,
            budget=ResourceBudget(timeout=300, node_budget=45000),
        )
        # Rung 2 gets the same node budget in a fresh arena that holds
        # only the checkpointed relations.  Either way the final answer
        # must be sound and the attempts list coherent.
        result = analysis.run()
        report = result.degradation
        assert report is not None
        assert report.attempts[0].mode == "full"
        if report.final_mode in ("full", "resume", "truncated"):
            assert set(result._points_to_tuples()) == small_reference
        else:
            assert set(result._points_to_tuples()) >= small_reference

    def test_resume_attempt_times_the_whole_rung(
        self, small_program, monkeypatch
    ):
        """The resume rung's clock starts before its checkpoint is saved,
        so a slow save shows in the attempt's seconds."""
        from repro.analysis import context_sensitive

        save_checkpoint = context_sensitive.save_checkpoint

        def slow_save(*args, **kwargs):
            time.sleep(0.2)
            return save_checkpoint(*args, **kwargs)

        monkeypatch.setattr(context_sensitive, "save_checkpoint", slow_save)
        result = ContextSensitiveAnalysis(
            program=small_program,
            budget=ResourceBudget(timeout=300, node_budget=2000),
        ).run()
        attempts = {a.mode: a for a in result.degradation.attempts}
        assert attempts["resume"].seconds >= 0.2

    def test_context_insensitive_attempt_times_the_discovery(
        self, small_program, monkeypatch
    ):
        """The call-graph discovery runs before the first rung, and the
        last rung reuses its result, so that attempt carries its time."""
        run = ContextInsensitiveAnalysis.run

        def slow_run(self):
            time.sleep(0.2)
            return run(self)

        monkeypatch.setattr(ContextInsensitiveAnalysis, "run", slow_run)
        result = ContextSensitiveAnalysis(
            program=small_program,
            budget=ResourceBudget(timeout=300, node_budget=2000),
        ).run()
        last = result.degradation.attempts[-1]
        assert last.mode == "context_insensitive"
        assert last.seconds >= 0.2

    def test_deadline_skips_resume(self, small_program):
        """An expired deadline goes straight to the terminal rung — no
        checkpoint/resume detour that cannot finish anyway."""
        result = None
        try:
            result = ContextSensitiveAnalysis(
                program=small_program,
                budget=ResourceBudget(timeout=0.0),
            ).run()
        except ReproError:
            # Acceptable: even the context-insensitive fallback needs a
            # sliver of wall-clock; a zero deadline may legitimately fail.
            return
        assert result.degraded is True
        assert "resume" not in [a.mode for a in result.degradation.attempts]
