"""Diagnostic shape, serialization, and the unified guard exception."""

import pickle

from repro.analysis import (
    AnalysisError,
    Diagnostic,
    PlanMismatchError,
    Severity,
)


class TestDiagnostic:
    def test_format_is_one_line(self):
        diag = Diagnostic(
            Severity.ERROR, "plan", "gse[size=4]/d=5", "op 3", "bad mask"
        )
        assert diag.format() == (
            "error [plan] gse[size=4]/d=5 op 3: bad mask"
        )
        assert "\n" not in diag.format()

    def test_format_without_location(self):
        diag = Diagnostic.warning("circuit", "sq", "", "unused qubit")
        assert diag.format() == "warning [circuit] sq: unused qubit"

    def test_json_round_trip(self):
        diag = Diagnostic.error("dag", "im[size=8]", "op 0", "cycle")
        revived = Diagnostic.from_jsonable(diag.to_jsonable())
        assert revived == diag
        assert diag.to_jsonable()["pass"] == "dag"

    def test_severity_ordering(self):
        assert Severity.ERROR.rank > Severity.WARNING.rank > Severity.INFO.rank


class TestAnalysisError:
    def test_carries_diagnostics_and_lists_them(self):
        diags = [
            Diagnostic.error("plan", "x", "op 1", "first"),
            Diagnostic.error("plan", "x", "op 2", "second"),
        ]
        error = AnalysisError(diags)
        assert error.diagnostics == tuple(diags)
        assert "first" in str(error) and "second" in str(error)


class TestPlanMismatchError:
    def test_is_a_value_error_with_plain_message(self):
        error = PlanMismatchError(
            "plan was compiled for distance=5", artifact="plan for 'gse'"
        )
        assert isinstance(error, ValueError)
        assert isinstance(error, AnalysisError)
        assert str(error) == "plan was compiled for distance=5"

    def test_carries_a_runtime_guard_diagnostic(self):
        error = PlanMismatchError("mutated", artifact="plan for 'sq'")
        (diag,) = error.diagnostics
        assert diag.severity is Severity.ERROR
        assert diag.pass_name == "runtime-guard"
        assert diag.artifact == "plan for 'sq'"

    def test_picklable(self):
        # Sweep workers send exceptions across process boundaries.
        error = PlanMismatchError("boom", artifact="a", location="op 1")
        revived = pickle.loads(pickle.dumps(error))
        assert isinstance(revived, PlanMismatchError)
        assert str(revived) == "boom"
