import io

import pytest

from eulerinv.cli import BUDGET_ENV_VAR, VERIFY_TARGETS, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_poly_invb():
    code, output = run_cli(["poly", "--kind", "invB", "--n", "4"])
    assert code == 0
    assert output == "1 17 40 17 1\n"


def test_poly_other_kinds():
    assert run_cli(["poly", "--kind", "invA", "--n", "5"])[1] == "1 6 12 6 1\n"
    assert run_cli(["poly", "--kind", "fullB", "--n", "2"])[1] == "1 6 1\n"
    assert run_cli(["poly", "--kind", "fullA", "--n", "3"])[1] == "1 4 1\n"
    code, output = run_cli(["poly", "--kind", "invB", "--n", "6", "--stat", "desCoxeter"])
    assert code == 0 and output == "1 43 331 634 331 43 1\n"


def test_gamma_command():
    assert run_cli(["gamma", "--kind", "invB", "--n", "6"])[1] == "1 37 168 56\n"
    assert run_cli(["gamma", "--kind", "invB", "--n", "40"])[0] == 0
    assert run_cli(["gamma", "--kind", "invA", "--n", "3"])[1] == "1 0\n"


def test_verify_recurrence_exits_zero():
    code, output = run_cli(["verify", "recurrence", "--n-max", "9"])
    assert code == 0
    assert "all hard assertions pass" in output


def test_every_verify_target_passes_at_defaults():
    for target in sorted(VERIFY_TARGETS):
        code, _ = run_cli(["verify", target])
        assert code == 0, target


def test_counterexample_r89():
    code, output = run_cli(["counterexample", "r89"])
    assert code == 0
    assert "113789153706560010000" in output
    assert "114890217312335629500" in output
    assert "NOT log-concave" in output


def test_table_flags_print_discrepancy():
    code, output = run_cli(["table"])
    assert code == 0
    assert "632" in output and "634" in output


def test_structured_output_is_byte_identical():
    args = ["verify", "guo-zeng-lemma", "--trials", "300", "--seed", "5", "--format", "structured"]
    assert run_cli(args) == run_cli(args)
    code, output = run_cli(args)
    assert code == 0
    assert output.startswith("check=guo-zeng-lemma\tparams=")


def test_structured_poly_record():
    code, output = run_cli(["poly", "--kind", "invB", "--n", "3", "--format", "structured"])
    assert code == 0
    assert output == "check=poly\tparams=kind=invB,n=3,stat=desB\tstatus=note\tlhs=1,9,9,1\trhs=-\n"


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["poly", "--kind", "bogus", "--n", "3"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "unknown-target"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_budget_exceeded_exits_one_and_names_n(capsys):
    code, _ = run_cli(["poly", "--kind", "invB", "--n", "12", "--budget", "100"])
    assert code == 1
    assert "n=12" in capsys.readouterr().err


def test_budget_env_override(monkeypatch, capsys):
    monkeypatch.setenv(BUDGET_ENV_VAR, "100")
    code, _ = run_cli(["poly", "--kind", "invB", "--n", "12"])
    assert code == 1
    assert "n=12" in capsys.readouterr().err
    # explicit flag wins over the environment
    code, output = run_cli(["poly", "--kind", "invB", "--n", "4", "--budget", "1000"])
    assert code == 0 and output == "1 17 40 17 1\n"


def test_invalid_budget_is_usage_error():
    code, _ = run_cli(["poly", "--kind", "invB", "--n", "4", "--budget", "0"])
    assert code == 2


@pytest.mark.parametrize("value", ["0", "-5", "abc"])
def test_invalid_budget_env_is_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv(BUDGET_ENV_VAR, value)
    code, _ = run_cli(["poly", "--kind", "invB", "--n", "4"])
    assert code == 2
    assert BUDGET_ENV_VAR in capsys.readouterr().err


def test_gamma_inva_rejects_n_below_one(capsys):
    code, _ = run_cli(["gamma", "--kind", "invA", "--n", "0"])
    assert code == 2
    assert "at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "recurrence", "--n-max", "0"],
        ["verify", "proof-identity", "--n-max", "2"],
        ["verify", "conjecture-des", "--n-max", "-1"],
    ],
)
def test_verify_that_checks_nothing_is_usage_error(capsys, argv):
    code, output = run_cli(argv)
    assert code == 2 and output == ""
    assert f"verify {argv[1]} made no pass or fail check" in capsys.readouterr().err


def test_verify_with_only_note_records_is_usage_error(monkeypatch, capsys):
    from eulerinv import checks
    from eulerinv.reports import CheckRecord, Report

    notes_only = Report([CheckRecord("proof-identity", (("k", 0),), "note", "a note", "")])
    monkeypatch.setattr(checks, "verify_proof_identity", lambda n_max: notes_only)
    code, output = run_cli(["verify", "proof-identity"])
    assert code == 2 and output == ""
    assert "verify proof-identity made no pass or fail check" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--trials", "0"], ["--n-max", "0"]])
def test_guo_zeng_lemma_without_trials_is_usage_error(capsys, flags):
    code, output = run_cli(["verify", "guo-zeng-lemma", *flags])
    assert code == 2 and output == ""
    assert "guo-zeng-lemma needs trials and length_max of at least 1" in capsys.readouterr().err
