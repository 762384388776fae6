"""End-to-end tests for the froblab command line: golden outputs, the
report schema, exit codes, determinism, and error envelopes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import froblab
from froblab import groebner
from froblab.cli import main
from froblab.groebner import GroebnerBasis

FIXTURES = Path(froblab.__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report.schema.json").read_text()
)

DET = str(FIXTURES / "determinantal_f3.ring")
CUSP = str(FIXTURES / "cusp_f5.ring")
REG2 = str(FIXTURES / "regular_f2.ring")

GOLDEN_CASES = [
    (["dim", DET], "dim_determinantal.json", 0),
    (["minors", DET], "minors_determinantal.json", 0),
    (["gb", CUSP], "gb_cusp.json", 0),
    (["membership", DET, "--poly", "x1*x4"], "membership_determinantal.json", 0),
    (["fpure", CUSP], "fpure_cusp.json", 0),
    (["fclosure", CUSP], "fclosure_cusp.json", 2),
    (["cover-check", REG2], "cover_check_regular_f2.json", 0),
    (["pipeline", DET], "pipeline_determinantal.json", 0),
]


# (Groebner runs, GroebnerBasis.normal_form calls) of each golden command
GOLDEN_WORK = {
    "dim": (1, 0),
    "minors": (0, 0),
    "gb": (1, 0),
    "membership": (1, 1),
    "fpure": (0, 0),
    "fclosure": (4, 5),
    "cover-check": (4, 8),
    "pipeline": (10, 86),
}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


@pytest.mark.parametrize("argv,golden,expected_code", GOLDEN_CASES)
def test_golden_outputs(capsys, argv, golden, expected_code):
    code, out = run_cli(capsys, argv)
    assert code == expected_code
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_golden_commands_make_their_pinned_runs_and_normal_forms(capsys, monkeypatch):
    """Each golden command makes the Groebner runs and normal forms of
    GOLDEN_WORK.  The p = 2 check of cover-check reports its three
    memberships without a run or a normal form, the cover context reads
    each coefficient generator's constant term without a normal form (one
    generator on cover-check, three on pipeline), and fclosure's colon on
    the cusp adds no cofactor, so no normal form tests its generators.
    pipeline's criterion and closure probe decide their two depths each
    modulo a basis already built, with one more normal form per depth, that
    of the tail's power, and build no target: 10 runs, where the targets'
    own bases made 14.  A socle takes a normal form only of a product x_v*m
    that is neither a standard monomial nor, on a homogeneous ideal, above
    the top standard degree: fclosure's socle takes 3 (was 4), cover-check's
    socle lift 0 (was 2), and pipeline's socle lift and probe 5 (was 14), so
    cover-check makes 8 normal forms (was 10) and pipeline 86 (was 95).
    fclosure's witness y at e = 1 is one at every depth above, so no
    membership at e = 2 is asked: 4 runs and 5 normal forms, where the
    monotonicity probe that asked it made 5 and 6."""
    counts = [0, 0]
    run, normal_form = groebner._buchberger, GroebnerBasis.normal_form

    def recorded_run(*args, **kwargs):
        counts[0] += 1
        return run(*args, **kwargs)

    def recorded_normal_form(*args, **kwargs):
        counts[1] += 1
        return normal_form(*args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger", recorded_run)
    monkeypatch.setattr(GroebnerBasis, "normal_form", recorded_normal_form)
    work = {}
    for argv, _, expected_code in GOLDEN_CASES:
        counts[:] = [0, 0]
        assert run_cli(capsys, argv)[0] == expected_code
        work[argv[0]] = tuple(counts)
    assert work == GOLDEN_WORK


@pytest.mark.parametrize("argv,golden,expected_code", GOLDEN_CASES)
def test_golden_envelopes_match_schema(argv, golden, expected_code):
    envelope = json.loads((GOLDEN / golden).read_text(encoding="utf-8"))
    jsonschema.validate(envelope, SCHEMA)


def test_error_envelopes_match_schema(capsys):
    for argv in (
        ["dim", str(FIXTURES / "no_such_file.ring")],
        ["cover-check", CUSP],
        ["membership", DET, "--poly", "x1 +"],
    ):
        code, out = run_cli(capsys, argv)
        assert code == 1
        envelope = json.loads(out)
        jsonschema.validate(envelope, SCHEMA)
        assert envelope["result"] is None
        assert envelope["error"]["message"]


def test_missing_file_reports_io_error(capsys):
    code, out = run_cli(capsys, ["dim", str(FIXTURES / "no_such_file.ring")])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "IOError"


def test_spec_error_carries_the_line(capsys, tmp_path):
    bad = tmp_path / "bad.ring"
    bad.write_text("p = 4\nvars = x\n", encoding="utf-8")
    code, out = run_cli(capsys, ["dim", str(bad)])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["code"] == "SpecFileError"
    assert err["line"] == 1


def test_a_runaway_power_in_a_spec_file_ends_with_budget_exceeded(capsys, tmp_path):
    """Expanding (x + y + z)^1000 over F_32003 would take hours: the parser
    charges each product of the power against its budget before forming
    it, and stops with BudgetExceeded well inside two seconds."""
    spec = tmp_path / "runaway.ring"
    spec.write_text("p = 32003\nvars = x, y, z\nrelations = (x + y + z)^1000\n", encoding="utf-8")
    start = time.perf_counter()
    code, out = run_cli(capsys, ["gb", str(spec)])
    assert time.perf_counter() - start < 2
    assert code == 1
    assert json.loads(out)["error"]["code"] == "BudgetExceeded"


def test_cover_command_requires_the_coefficient_ideal(capsys):
    code, out = run_cli(capsys, ["cover-check", CUSP])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "MissingField"


def test_cover_check_reports_the_failed_hypothesis(capsys, tmp_path):
    """x is a zerodivisor on k[x,y]/(xy): the error code names that
    hypothesis, as socle_lift raises it."""
    spec = tmp_path / "zerodivisor.ring"
    spec.write_text(
        "p = 3\nvars = x, y\nrelations = x*y\ncanonical_ideal = x\nsop = x, y\n",
        encoding="utf-8",
    )
    code, out = run_cli(capsys, ["cover-check", str(spec)])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "NotNZD"


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command", DET])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["membership", DET])  # missing required --poly
    assert exc.value.code == 1


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert froblab.__version__ in capsys.readouterr().out


def test_decisive_zero_twist_exits_two(capsys):
    code, out = run_cli(capsys, ["cover-check", DET, "--f", "0"])
    assert code == 2
    envelope = json.loads(out)
    assert envelope["result"]["verdict"] == "DECISIVE_NOT_F_INJECTIVE"
    assert envelope["result"]["witness_e"] == 1
    jsonschema.validate(envelope, SCHEMA)


def test_pipeline_output_is_byte_identical_across_runs(capsys):
    _, first = run_cli(capsys, ["pipeline", DET])
    _, second = run_cli(capsys, ["pipeline", DET])
    assert first == second


def test_search_sop_is_seed_deterministic(capsys):
    argv = ["pipeline", DET, "--search-sop", "--seed", "1"]
    code, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert code == 0
    assert first == second
    envelope = json.loads(first)
    assert envelope["input"]["flags"]["search_sop"] is True
    assert len(envelope["input"]["flags"]["sop"]) == 2
    other = json.loads(run_cli(capsys, ["pipeline", DET, "--search-sop", "--seed", "2"])[1])
    assert other["input"]["flags"]["seed"] == 2


def test_timings_only_adds_the_timing_block(capsys):
    _, out = run_cli(capsys, ["pipeline", DET, "--timings"])
    envelope = json.loads(out)
    seconds = envelope.pop("timing")["seconds"]
    assert isinstance(seconds, float) and seconds >= 0
    baseline = json.loads((GOLDEN / "pipeline_determinantal.json").read_text())
    assert envelope == baseline


def test_text_mode_emits_flat_lines(capsys):
    code, out = run_cli(capsys, ["dim", DET, "--text"])
    assert code == 0
    assert "2" in out and "{" not in out
    code, out = run_cli(capsys, ["fpure", DET, "--text"])
    assert code == 0
    assert "true" in out


def test_text_mode_prints_the_error_line(capsys):
    code, out = run_cli(capsys, ["pipeline", CUSP, "--text"])
    assert code == 1
    assert out == (
        "froblab pipeline on cusp_f5.ring\n"
        "error[MissingField]: the command needs a canonical_ideal entry in the spec file\n"
    )


def test_text_mode_prints_the_assumptions_and_the_seconds(capsys):
    """cover-check in text mode prints one line per result key, nested
    values as JSON, then one per assumption of the golden envelope, then
    the seconds of --timings."""
    envelope = json.loads((GOLDEN / "cover_check_regular_f2.json").read_text(encoding="utf-8"))
    code, out = run_cli(capsys, ["cover-check", REG2, "--text", "--timings"])
    assert code == 0
    lines = out.splitlines()
    assert lines[:6] == [
        "froblab cover-check on regular_f2.ring",
        'details: {"lift": "x", "lift_in_parameter_ideal": true, "lift_multiplies_coefficient_ideal_into_JI": true, '
        '"lift_square_in_bracket_power": true, "socle_rep": "1"}',
        "e_max: null",
        "level: decisive",
        "verdict: P2_DEGENERATE",
        "witness_e: null",
    ]
    assert envelope["assumptions"] and lines[6:-1] == [f"assumption: {note}" for note in envelope["assumptions"]]
    label, seconds = lines[-1].split(": ")
    assert label == "seconds" and float(seconds) >= 0


def test_membership_ideal_override(capsys):
    argv = [
        "membership", DET,
        "--poly", "x2^2*x3^2",
        "--ideal", "x2^3, x3^3",
    ]
    code, out = run_cli(capsys, argv)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["member"] is False
    assert result["normal_form"] == "x2^2*x3^2"
    code, out = run_cli(capsys, ["membership", DET, "--poly", "x2^4", "--ideal", "x2^3, x3^3"])
    assert json.loads(out)["result"]["member"] is True


def test_emax_flag_overrides_the_file(capsys):
    _, out = run_cli(capsys, ["pipeline", DET, "--emax", "1"])
    envelope = json.loads(out)
    assert envelope["result"]["criterion"]["e_max"] == 1
    assert envelope["input"]["flags"]["e_max"] == 1


def test_negative_emax_is_rejected(capsys):
    for argv in (["fclosure", CUSP, "--emax", "-1"], ["pipeline", DET, "--emax", "-2"]):
        code, out = run_cli(capsys, argv)
        assert code == 1
        envelope = json.loads(out)
        jsonschema.validate(envelope, SCHEMA)
        assert envelope["result"] is None
        assert envelope["error"]["code"] == "InputAssumptionViolation"


def _child_env(**extra):
    """The environment for ``python -m froblab.cli`` in a child process: the
    source directory of the imported package goes first on PYTHONPATH, so
    the child runs the same code without an install."""
    source = str(Path(froblab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}


def test_module_execution_matches_in_process_output():
    proc = subprocess.run(
        [sys.executable, "-m", "froblab.cli", "dim", DET],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "dim_determinantal.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("seed", ["1", "2"])
@pytest.mark.parametrize(
    "argv,golden", [(["pipeline", DET], "pipeline_determinantal.json"), (["fpure", CUSP], "fpure_cusp.json")]
)
def test_goldens_do_not_depend_on_the_hash_seed(argv, golden, seed):
    """Polynomial hashes depend on the string hash seed through the ring's
    variable names, so a code path that iterated a set of polynomials would
    change these outputs with the seed."""
    env = _child_env(PYTHONHASHSEED=seed)
    proc = subprocess.run([sys.executable, "-m", "froblab.cli", *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / golden).read_text(encoding="utf-8")
