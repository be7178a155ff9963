import functools
import hashlib
import inspect
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eulerinv
from eulerinv import checks
from eulerinv.cli import _FLAG_PARAMS, BUDGET_ENV_VAR, SWEEPS, _sweep_parameters, main
from eulerinv.reports import Report

# SHA-256 of stdout at default arguments, taken before the verify registry
# replaced a per-target table of defaults; a changed byte in any record shows here.
# The plain digests of lemma31, transpose, proof-identity, guo-zeng-lemma,
# sdes-bijection, conjecture-des, table and counterexample r89 were retaken when
# plain records began to state the relation they decided and the summary line
# stopped counting notes as checks.  Those of proof-identity, guo-zeng-lemma and
# table were retaken again when a summary count of 1 took the singular noun.
DEFAULT_OUTPUT_SHA256 = {
    "verify cauchy plain": "b8bcaf5e25cd5ec5148a1c4939fdfff73935f54627b4050d6faeca329abeaebe",
    "verify cauchy structured": "c2525039bac7a26d8bfb958c609b0a46e9fdc4b83d15a7b178e4768a968f7105",
    "verify conjecture-des plain": "f48402b899fa16e4b202d5d1eae7e02262621a7e062322195f445a0252a4706f",
    "verify conjecture-des structured": "ebfdb6b63ccfa702d2e3318ad96160771f965b997f925effcebcd2815c3c9c4e",
    "verify genfun-a plain": "6ad170c27d90e07e909e54caf3adac2047f9afe7288635282ed19845737ab1a1",
    "verify genfun-a structured": "52c5f436fce471a208c09078685f3b050a0fd3edb163f89db97fbdefe93cd916",
    "verify genfun-b plain": "9c08474e6e956a525dd1f99068e104609b7cf9cf3df432fb0760e3081a2612eb",
    "verify genfun-b structured": "0317409a2283611c967d4c02d108aed9bdbca73e85c124633f69b008c7ef4219",
    "verify guo-zeng-lemma plain": "f511699e8e80d8ce517af70e1c17229d177435675e348561fc0b144684bc28c6",
    "verify guo-zeng-lemma structured": "d4879af89586980a56bea61677a54c986cc95fc30c11c8c874112616657a663e",
    "verify lemma31 plain": "1b46ea2a5dcfcf57bc887e1b1b356ad77f16a7652b24f191e871d4500be8d929",
    "verify lemma31 structured": "d7f9ef9c94a0c17698d8f804445bd695a8313298cc98cd6219c66ede68e40bdd",
    "verify proof-identity plain": "464e07b65c685a6e3940c9757da7ddfe85836ed28de8ce4d70d4bc8d9d59d54c",
    "verify proof-identity structured": "7246ae16286aaa63e48268f6a396da685034e7b2c2e0fdc4f3b4e3279f345cd6",
    "verify recurrence plain": "0cb614508fc86cb814e926d5222789302caaaed602e9060431581c1782938bd4",
    "verify recurrence structured": "d122484b9f93e410d1f62d0b054350f3565d11285649f6bf45ff30b0db93351f",
    "verify sdes-bijection plain": "690045b26f5df3d1194643d782dff86012a50510cb4f30ddd6bfd68e3e3e6ec1",
    "verify sdes-bijection structured": "8fe07e92b6fd92a13d1b9bdc33f07698a3149e1faf9a2450f0c82a2c382eab38",
    "verify signed-schur plain": "3024f903e1696e8707fc10f42ba375ff898e62d561de9f0391f7f1b0cfae1d08",
    "verify signed-schur structured": "48124b893789a149cb3ebaae0b5f5d4e5e658eca87e37805743699759b225902",
    "verify transpose plain": "a95e23f7bb95dfd61fb47838697082a3472b61db3a6f626ca6bc7c08e6b76247",
    "verify transpose structured": "16ca35f298070c26600c5bd07d58899760137fb2d8866505dd50d34a018daa3e",
    "table plain": "c0e0cb3e3b8cd5e2d8b6864380511e7a6d604b7c749623d3afa04a72067a8192",
    "table structured": "e232d40be0b1a46cdea23d862de61d21ad04e31083ff9fa578138c920eb7caf1",
    "counterexample r89 plain": "eed473442c9a1c28f1641daf10bcd5510b4562a2b9e89aea2360083204afdffb",
    "counterexample r89 structured": "73b81f4f02f97834f3097232963147e6b3c0f89b52c8b2ffaa6c3bd2c47a5400",
}

# SHA-256 of stdout of the coefficient-printing commands, taken before the
# distributions became plain coefficient tuples.  An S_n histogram with n + 1
# slots ends in a zero at n >= 1 (invA, fullA), which must not be printed.
ROW_OUTPUT_SHA256 = {
    "poly --kind invA --n 0 plain": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "poly --kind invA --n 0 structured": "50befe79fa077fb3850c4dd3f5a4ce26055e4aabd16bc9ba4916f2f39cd199a1",
    "poly --kind invA --n 1 plain": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "poly --kind invA --n 1 structured": "c5eb4e51a78adb51d66aadcae597011395074232db319832546586386f600a3f",
    "poly --kind invA --n 6 plain": "4aac0f5c745f3a0c1782e36ee5aa8df545a6799544f1a329224786c6ec1f1053",
    "poly --kind invA --n 6 structured": "83a9d0a4b627c139f82433c0068d136724a91197fb4bb618e17e163188ee679a",
    "poly --kind fullA --n 0 plain": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "poly --kind fullA --n 0 structured": "f04680bee70f2c15e37e6813e68a2e27f9116b3cefb8f082af03f76d59173d00",
    "poly --kind fullA --n 1 plain": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "poly --kind fullA --n 1 structured": "843a129deca5408554450b56a905b4d40ceddbee65ec255063f803605c0553fe",
    "poly --kind fullA --n 6 plain": "ec760944beae1cf6f5f23c1bf38198595f083cf612d6a339f0c179f09660557f",
    "poly --kind fullA --n 6 structured": "5ef2e377fa48050193b96a4b7ca77f8bf4cc9613c39be1e249909bc017488b24",
    "poly --kind invB --n 0 --stat desB plain": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "poly --kind invB --n 0 --stat desB structured": "bfc425f00d4e1ffae3bbcc4a77a985e2f8b4a3f352431120bd588ca0e2585724",
    "poly --kind invB --n 0 --stat desCoxeter plain": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "poly --kind invB --n 0 --stat desCoxeter structured": "00de5adc66bdee32e639d7c4230e50ab8966e708cad7255c0cebd1dadbab6269",
    "poly --kind invB --n 4 --stat desB plain": "4c714336d2f1d90b92dbb66da03554e643b1394913d1630a61444cfde7d7ca54",
    "poly --kind invB --n 4 --stat desB structured": "07e83ddf063fe7c94d54da2b4c761796c4aff32d739af912b9a57e6d50198303",
    "poly --kind invB --n 4 --stat desCoxeter plain": "4c714336d2f1d90b92dbb66da03554e643b1394913d1630a61444cfde7d7ca54",
    "poly --kind invB --n 4 --stat desCoxeter structured": "bb952b7014436afc1bd6edb9cd14beaf2e54cd9e0a808e5a64b06300e76bea42",
    "poly --kind fullB --n 0 --stat desB plain": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "poly --kind fullB --n 0 --stat desB structured": "7e53189c4a1211fd9df1b4df6989e45a89ea54ab1f13410fee8659cd50e782cb",
    "poly --kind fullB --n 0 --stat desCoxeter plain": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "poly --kind fullB --n 0 --stat desCoxeter structured": "f9be4515a088c6dec5d57e7840ca09033ea25c874f24f6deef83389416a732b4",
    "poly --kind fullB --n 4 --stat desB plain": "52ba44e3aacf65522bbe0433a35f3dbfcc3cbed58d393bb9771a65f74aacca2f",
    "poly --kind fullB --n 4 --stat desB structured": "9872f0fed86a2974c922ff8a267c3fcd1209e435dda12ef764e42ae187e4e7a9",
    "poly --kind fullB --n 4 --stat desCoxeter plain": "52ba44e3aacf65522bbe0433a35f3dbfcc3cbed58d393bb9771a65f74aacca2f",
    "poly --kind fullB --n 4 --stat desCoxeter structured": "824f08b31c15c20911d3e10939fe929d47dcc16636693f5c7e349970414a17b7",
    "gamma --kind invB --n 0 plain": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "gamma --kind invB --n 0 structured": "e51bf01b6b04735ad1eb43e5e6fbc9a4e96c81f2727d7ce550ca0b27c67c4f26",
    "gamma --kind invB --n 1 plain": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "gamma --kind invB --n 1 structured": "2c035a6edfac5d86323d7f6d8491c252466a822c2f5b23ef627ca6c7ddeee240",
    "gamma --kind invB --n 40 plain": "bf7dbec3aa42e462ff741df82aa0098f8b8bc9b6209b19f09a5f54eab8c6bcc8",
    "gamma --kind invB --n 40 structured": "0fa31dd54ea235eedf72901894cce67ba2cd16739ffa234d8370a6027a895e07",
    "gamma --kind invA --n 1 plain": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "gamma --kind invA --n 1 structured": "b448a1f5d98b0733a04e4f76231cde44d79996bb539ca03b2cad117d1a2b69ab",
    "gamma --kind invA --n 9 plain": "70723329d2e52d0e68101ec1ce1dcea52da0aa8cd6f0cb1d5b85308747b6b297",
    "gamma --kind invA --n 9 structured": "ba35b5e3f307f011224a409368c46fb96561f9f43468483a91043bd2150561e2",
}


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


def test_poly_and_gamma_rows_are_pinned():
    digests = {}
    for key in ROW_OUTPUT_SHA256:
        *argv, fmt = key.split()
        code, output = run_cli([*argv, "--format", fmt])
        assert code == 0, key
        digests[key] = hashlib.sha256(output.encode()).hexdigest()
    assert digests == ROW_OUTPUT_SHA256


def test_verify_recurrence_exits_zero():
    code, output = run_cli(["verify", "recurrence", "--n-max", "9"])
    assert code == 0
    assert "all hard assertions pass" in output


DEFAULT_COMMANDS = [
    *(["verify", target] for target in sorted(SWEEPS)),
    ["table"],
    ["counterexample", "r89"],
]


def test_every_verify_target_passes_at_defaults():
    digests = {}
    for argv in DEFAULT_COMMANDS:
        for fmt in ("plain", "structured"):
            code, output = run_cli([*argv, "--format", fmt])
            assert code == 0, argv
            digests[f"{' '.join(argv)} {fmt}"] = hashlib.sha256(output.encode()).hexdigest()
    assert digests == DEFAULT_OUTPUT_SHA256


def test_every_report_function_is_reached_by_a_command():
    # a public sweep that returns a Report but no command runs checks nothing a user sees
    sweeps = {
        function
        for name, function in inspect.getmembers(checks, inspect.isfunction)
        if not name.startswith("_")
        and function.__module__ == checks.__name__
        and inspect.signature(function, eval_str=True).return_annotation is Report
    }
    commands = {checks.verify_counterexample_89, checks.reference_table_report}
    assert sweeps == set(SWEEPS.values()) | commands


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "recurrence", "--m-max", "3"], "--m-max"),
        (["verify", "transpose", "--seed", "1"], "--seed"),
    ],
)
def test_verify_flag_the_sweep_does_not_take_is_usage_error(capsys, argv, flag):
    code, output = run_cli(argv)
    assert code == 2 and output == ""
    assert f"verify {argv[1]} takes no {flag}" in capsys.readouterr().err


def _forwarding(sweep):
    @functools.wraps(sweep)
    def forward(*args, **kwargs):
        return sweep(*args, **kwargs)

    return forward


def test_verify_flags_reach_a_wrapped_sweep(monkeypatch, capsys):
    # the benchmark tracer replaces every sweep with a functools.wraps wrapper
    for target, sweep in SWEEPS.items():
        names = tuple(inspect.signature(sweep).parameters)
        assert _sweep_parameters(sweep) == _sweep_parameters(_forwarding(sweep)) == names, target
    argv = ["verify", "recurrence", "--n-max", "3", "--format", "structured"]
    unwrapped = run_cli(argv)
    monkeypatch.setitem(SWEEPS, "recurrence", _forwarding(SWEEPS["recurrence"]))
    assert run_cli(argv) == unwrapped and unwrapped[0] == 0
    assert run_cli(["verify", "recurrence", "--m-max", "3"]) == (2, "")
    assert "verify recurrence takes no --m-max" in capsys.readouterr().err


def test_importing_the_cli_loads_no_heavy_module():
    # -S skips the site module, whose .pth files may import typing themselves
    heavy = ("dataclasses", "inspect", "typing", "random")
    src = str(Path(eulerinv.__file__).parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import eulerinv.cli; print(*sys.modules)"
    loaded = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    modules = loaded.stdout.split()
    assert "eulerinv.cli" in modules
    assert [name for name in heavy if name in modules] == []


@pytest.mark.parametrize(
    "target, checks",
    [
        ("sdes-bijection", ("sdes-multiset-signed", "des-multiset-unsigned")),
        ("transpose", ("transpose-signed", "transpose-unsigned")),
    ],
)
def test_n_max_sets_both_ranges(target, checks):
    code, output = run_cli(["verify", target, "--n-max", "3", "--format", "structured"])
    assert code == 0
    heads = [line.split("\t")[:2] for line in output.splitlines()]
    assert heads == [[f"check={c}", f"params=n={n}"] for c in checks for n in range(4)]


def test_n_max_sets_the_lemma_length():
    code, output = run_cli(
        ["verify", "guo-zeng-lemma", "--n-max", "3", "--trials", "50", "--format", "structured"]
    )
    assert code == 0
    assert output.startswith("check=guo-zeng-lemma\tparams=trials=50,length_max=3,seed=271828\t")


@pytest.mark.parametrize(
    "target, enumerated",
    [
        ("lemma31", "the hyperoctahedral group"),
        ("transpose", "standard Young bitableaux"),
        ("sdes-bijection", "involutions of the hyperoctahedral group"),
        ("cauchy", "standard Young tableaux of shape (2, 1)"),
        ("signed-schur", "standard Young bitableaux of shape ((1,), (1,))"),
    ],
)
def test_budget_binds_the_enumerating_sweeps(capsys, target, enumerated):
    code, output = run_cli(["verify", target, "--budget", "1"])
    assert code == 1 and output == ""
    # the per-shape walks first yield two objects at these sizes
    n = {"cauchy": 3, "signed-schur": 2}.get(target, 1)
    assert f"enumerating {enumerated} for n={n}" in capsys.readouterr().err


def test_verify_help_says_what_each_flag_sets(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--help"])
    assert excinfo.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for flag, names in _FLAG_PARAMS.items():
        metavar = flag[2:].replace("-", "_").upper()
        assert f"{flag} {metavar} sets the sweep's {' / '.join(names)}" in text
    assert "binds every enumeration" in text


def _plain_relation(line: str, fields: dict[str, str]) -> str:
    """The relation a plain line states between the lhs and rhs of its structured twin."""
    status, lhs, rhs = fields["status"], fields["lhs"], fields["rhs"]
    body = line.split(": note: " if status == "note" else f": {status} (", 1)[1]
    body = body if status == "note" else body.removesuffix(")")
    assert body.startswith(lhs + " ") and body.endswith(" " + rhs), (line, fields)
    return body[len(lhs) + 1 : len(body) - len(rhs) - 1]


def test_plain_records_state_the_relation_they_decided():
    wrong = []
    for argv in DEFAULT_COMMANDS:
        # the plain output ends with its summary line, which has no structured twin
        plain = run_cli(argv)[1].splitlines()[:-1]
        structured = run_cli([*argv, "--format", "structured"])[1].splitlines()
        assert len(plain) == len(structured), argv
        for line, record in zip(plain, structured):
            fields = dict(field.split("=", 1) for field in record.split("\t"))
            relation = _plain_relation(line, fields)
            if fields["status"] != "note" and fields["lhs"] == fields["rhs"]:
                expected = "=="
            elif fields["check"] == "r89-strict-inequality":
                expected = "<"
            else:
                # a note, or a check whose two texts describe rather than quantify
                expected = "|"
            if relation != expected:
                wrong.append(line)
    assert wrong == []


def test_counterexample_r89():
    code, output = run_cli(["counterexample", "r89"])
    assert code == 0
    lines = output.splitlines()
    assert "r89-strict-inequality: pass (113789153706560010000 < 114890217312335629500)" in lines
    assert lines[-1] == "13 checks: all hard assertions pass"


def test_table_flags_print_discrepancy():
    code, output = run_cli(["table"])
    assert code == 0
    assert "632" in output and "634" in output


@pytest.mark.parametrize(
    "argv, summary",
    [
        (["table"], "31 checks, 1 note: all hard assertions pass"),
        (["verify", "conjecture-des"], "6 checks, 2 notes: all hard assertions pass"),
        (["verify", "guo-zeng-lemma"], "1 check: all hard assertions pass"),
    ],
)
def test_plain_summary_counts_checks_and_notes_apart(argv, summary):
    code, output = run_cli(argv)
    assert code == 0 and output.splitlines()[-1] == summary


def test_plain_summary_counts_failures(monkeypatch):
    failing = Report()
    failing.compare("demo", (), 1, 2)
    failing.less("demo", (), 2, 1)
    failing.note("demo", (), "a", "b")
    monkeypatch.setitem(SWEEPS, "recurrence", lambda: failing)
    code, output = run_cli(["verify", "recurrence"])
    assert code == 1
    assert output.splitlines() == [
        "demo: fail (1 != 2)",
        "demo: fail (2 >= 1)",
        "demo: note: a | b",
        "2 checks, 1 note: 2 FAILED",
    ]


def test_closed_stdout_exits_one_without_a_traceback(tmp_path):
    # 721,532 bytes of records: far more than a pipe holds, so the writer
    # is still writing when the reader closes after the first line
    argv = ["verify", "genfun-b", "--n-max", "6", "--k-max", "2000"]
    env = {**os.environ, "PYTHONPATH": str(Path(eulerinv.__file__).parent.parent)}
    with open(tmp_path / "stderr", "w+b") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "eulerinv.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=env,
        )
        assert proc.stdout.readline() == b"genfun-b n=0 k=0: pass (1 == 1)\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        stderr.seek(0)
        assert stderr.read() == b""


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


def test_invalid_budget_is_usage_error(capsys):
    code, _ = run_cli(["poly", "--kind", "invB", "--n", "4", "--budget", "0"])
    assert code == 2
    assert "--budget" in capsys.readouterr().err


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
    from eulerinv.reports import CheckRecord, Report

    notes_only = Report([CheckRecord("proof-identity", (("k", 0),), "note", "a note", "")])
    monkeypatch.setitem(SWEEPS, "proof-identity", lambda: notes_only)
    code, output = run_cli(["verify", "proof-identity"])
    assert code == 2 and output == ""
    assert "verify proof-identity made no pass or fail check" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--trials", "0"], ["--n-max", "0"]])
def test_guo_zeng_lemma_without_trials_is_usage_error(capsys, flags):
    code, output = run_cli(["verify", "guo-zeng-lemma", *flags])
    assert code == 2 and output == ""
    name = {"--trials": "trials", "--n-max": "length_max"}[flags[0]]
    assert f"{name} must be an integer of at least 1, got 0" in capsys.readouterr().err


def test_guo_zeng_lemma_with_negative_seed_is_usage_error(capsys):
    code, output = run_cli(["verify", "guo-zeng-lemma", "--seed", "-5"])
    assert code == 2 and output == ""
    assert "seed must be a nonnegative integer, got -5" in capsys.readouterr().err
