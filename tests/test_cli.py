import argparse
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import re
import resource
import shlex
import subprocess
import sys
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tsmult
from tsmult import cli, oracles, spectral, weights
from tsmult.cli import main, parse
from tsmult.errors import GermParseError, OracleMismatch
from tsmult.filtration import jumpset_of, usual_jumpset
from tsmult.germs import Germ, diagonal_microlocal_chain

from bruteforce import bf_graded_basis, bf_irrationality_basis


def _schema(name):
    text = resources.files("tsmult.schemas").joinpath(f"{name}.json").read_text()
    return json.loads(text)


def _validate(payload, schema_name):
    jsonschema.validate(payload, _schema(schema_name))


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---- parser ----

def test_parse_pair():
    assert parse("z1^2 + z2^3") == Germ((2, 3), ("z1", "z2"))


def test_parse_keeps_term_order():
    assert parse("x^3+y^4+z^5") == Germ((3, 4, 5), ("x", "y", "z"))
    assert parse("z^5+x^3") == Germ((5, 3), ("z", "x"))


def test_parse_ts_operator_and_coefficients():
    germ = parse("2*z1^2 (+) 1/3*z2^3")
    assert germ == Germ((2, 3), ("z1", "z2"), (F(2), F(1, 3)))


def test_to_germ():
    germ = parse("2*z1^2 + z2^3")
    assert germ.exponents == (2, 3)
    assert germ.var_names == ("z1", "z2")
    assert germ.coefficients == (F(2), F(1))


def test_parse_errors_with_position():
    with pytest.raises(GermParseError) as err:
        parse("z^2 + z^3")
    assert "repeated variable" in str(err.value)
    assert err.value.pos == 6
    with pytest.raises(GermParseError) as err:
        parse("z^1 + w^3")
    assert err.value.pos == 2
    with pytest.raises(GermParseError):
        parse("z^2 +")
    with pytest.raises(GermParseError):
        parse("z^2 @ w^3")
    with pytest.raises(GermParseError):
        parse("z1^2 z2^3")
    with pytest.raises(GermParseError):
        parse("0*z^2")
    with pytest.raises(GermParseError):
        parse("")
    # a number is decimal digits (Unicode Nd): `²` is not one, `٣` is
    for text, pos in [("x^²", 2), ("y²2/30*x-z1", 1)]:
        with pytest.raises(GermParseError) as err:
            parse(text)
        assert str(err.value) == f"unexpected character '²' (at position {pos})"
        assert err.value.pos == pos
    assert parse("x^٣") == Germ((3,), ("x",))


def test_round_trip():
    for text in ["z1^2 + z2^3", "x^3 + y^3 + z^3", "2*a^2 + 1/3*b^5"]:
        germ = parse(text)
        assert str(germ) == text
        assert parse(str(germ)) == germ


# ---- commands ----

def test_cmd_lct(capsys):
    code, out, _ = _run(capsys, ["lct", "z1^2 + z2^3"])
    assert code == 0 and out.strip() == "5/6"


def test_cmd_lct_json(capsys):
    code, out, _ = _run(capsys, ["lct", "--json", "z1^2 + z2^3"])
    payload = json.loads(out)
    assert payload == {"lct": "5/6"}
    _validate(payload, "lct")


def test_cmd_ideal_golden(capsys):
    code, out, _ = _run(capsys, ["ideal", "--alpha", "5/6", "z1^2 + z2^3"])
    assert code == 0 and out.strip() == "gens [[1,0],[0,1]]"


def test_cmd_ideal_periodic(capsys):
    code, out, _ = _run(capsys, ["ideal", "--alpha", "7/6", "z1^2 + z2^3"])
    assert code == 0 and out.strip() == "power 1 gens [[0,0]]"


def test_cmd_ideal_json(capsys):
    code, out, _ = _run(capsys, ["ideal", "--alpha", "5/6", "--json",
                                 "z1^2 + z2^3"])
    payload = json.loads(out)
    assert payload["power"] == 0
    assert payload["ideal"]["gens"] == [[0, 1], [1, 0]]
    _validate(payload, "scaled_ideal")


def test_cmd_ideal_one_var(capsys):
    code, out, _ = _run(capsys, ["ideal", "--alpha", "2/3", "z^3"])
    assert code == 0 and out.strip() == "gens [[2]]"


def test_cmd_jc(capsys):
    code, out, _ = _run(capsys, ["jc", "z1^2 + z2^3"])
    assert code == 0
    assert out.split() == ["5/6", "1", "11/6"]


@pytest.mark.parametrize("d,top", [(1, 13), (2, 10), (3, 7), (4, 5)])
def test_jc_spectrum_route_matches_weight_model(d, top):
    # jc reads its jumps below 1 off the spectrum; the weight model's
    # microlocal levels are the independent route to the same lines
    windows = (F(1, 7), F(5, 6), F(1), F(3, 2), F(2), F(7, 3))
    for ms in itertools.product(range(2, top), repeat=d):
        germ = "+".join(f"x{j}^{m}" for j, m in enumerate(ms))
        micro = jumpset_of(diagonal_microlocal_chain(Germ(ms), window=F(1)))
        for window in windows:
            args = argparse.Namespace(germ=germ, window=window, json=False)
            want = [str(v) for v in usual_jumpset(micro, window).values]
            assert cli.cmd_jc(args) == (0, want), (ms, window)


def test_cmd_jc_json_schema(capsys):
    code, out, _ = _run(capsys, ["jc", "--json", "--window", "3",
                                 "z1^2 + z2^3"])
    payload = json.loads(out)
    assert payload["values"] == ["5/6", "1", "11/6", "2", "17/6"]
    _validate(payload, "jump_set")


def test_cmd_spectrum(capsys):
    code, out, _ = _run(capsys, ["spectrum", "x^2+y^3+z^5"])
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 8
    assert lines[0] == "31/30 1"


def test_cmd_spectrum_json(capsys):
    code, out, _ = _run(capsys, ["spectrum", "--json", "z1^2 + z2^3"])
    payload = json.loads(out)
    assert payload["entries"] == [{"value": "5/6", "mult": 1},
                                  {"value": "7/6", "mult": 1}]
    _validate(payload, "spectrum")


def test_cmd_eigen(capsys):
    code, out, _ = _run(capsys, ["eigen", "z1^2 + z2^3"])
    assert code == 0 and out.split("\n")[:2] == ["-5/6 1", "-1/6 1"]
    code, out, _ = _run(capsys, ["eigen", "--json", "z1^2 + z2^3"])
    _validate(json.loads(out), "eigen_table")


def test_cmd_graded(capsys):
    code, out, _ = _run(capsys, ["graded", "--alpha", "5/6", "z1^2 + z2^3"])
    assert code == 0
    assert out.strip().splitlines() == ["dim 1", "exps [[0,0]]"]
    code, out, _ = _run(capsys, ["graded", "--alpha", "5/6", "--json",
                                 "z1^2 + z2^3"])
    _validate(json.loads(out), "graded_piece")


def test_cmd_irrationality(capsys):
    code, out, _ = _run(capsys, ["irrationality", "x^3 + y^3 + z^3"])
    assert code == 0
    assert out.strip().splitlines() == ["dim 1", "exps [[0,0,0]]"]
    code, out, _ = _run(capsys, ["irrationality", "--json", "x^3 + y^3 + z^3"])
    _validate(json.loads(out), "irrationality")


def _sorted_basis_output(exps, as_json, **head):
    """A basis printed as the exponent tuples sorted in reverse, the way the
    CLI printed one before it printed the model's lex-sorted rows reversed."""
    exps = [list(e) for e in sorted(exps, reverse=True)]
    if as_json:
        return json.dumps({**head, "dim": len(exps), "exponents": exps}, indent=2) + "\n"
    lines = [f"dim {len(exps)}"]
    if exps:
        lines.append(f"exps {json.dumps(exps, separators=(',', ':'))}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("text, ms, alphas", [
    ("x^7+y^8+z^9", (7, 8, 9), ("1/3", "1", "83/42", "751/252", "503/168")),
    ("a^3+b^3+c^3+d^3", (3, 3, 3, 3), ("1", "5/3", "2", "8/3")),
    ("x^5+y^5+z^6", (5, 5, 6), ("1", "5/2", "8/3", "89/30"))])
def test_basis_output_is_the_reverse_sorted_basis(capsys, text, ms, alphas, as_json):
    # germs outside the recorded digests, at empty levels and at their
    # largest graded pieces below 3: the rows printed reversed are the
    # box-scanned basis sorted in reverse
    flag = ["--json"] if as_json else []
    code, out, _ = _run(capsys, ["irrationality", *flag, text])
    assert code == 0 and out == _sorted_basis_output(bf_irrationality_basis(ms), as_json)
    for alpha in map(F, alphas):
        code, out, _ = _run(capsys, ["graded", "--window", "3", "--alpha", str(alpha),
                                     *flag, text])
        want = _sorted_basis_output(bf_graded_basis(ms, alpha), as_json, alpha=str(alpha))
        assert code == 0 and out == want, (text, alpha)


# ---- error handling and exit codes ----

def test_exit_code_parse_error(capsys):
    code, _, err = _run(capsys, ["lct", "z^2 + z^3"])
    assert code == 2
    assert "repeated variable" in err


def test_exit_code_window_error(capsys):
    code, _, err = _run(capsys, ["graded", "--alpha", "9/2", "z1^2 + z2^3"])
    assert code == 2
    assert "window" in err


def test_exit_code_domain_error(capsys):
    code, _, err = _run(capsys, ["irrationality", "z^5"])
    assert code == 2


@pytest.mark.parametrize("argv, size", [
    (["irrationality", "x^200+y^205+z^209"], "at least 37443422 atoms"),
    (["ideal", "--alpha", "1/2", "x^25000+y^25000"], "at least 2812125018 atoms"),
    (["spectrum", "x^40000+y^40001"], "39999 x 40000 = 1599960000 term pairs"),
    (["eigen", "x^40000+y^40001"], "39999 x 40000 = 1599960000 term pairs"),
    (["spectrum", "x^6000000"], "5999999 distinct values"),
    (["eigen", "x^6000000"], "5999999 distinct values"),
    (["jc", "--window", "10000000", "x^2+y^3"], "19999999 values"),
])
def test_exit_code_oversized_input_refused(capsys, argv, size):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and size in err
    assert "Traceback" not in err and "GiB" in err


def test_values_are_charged_only_where_they_are_read(capsys, monkeypatch):
    # the spectrum of x^20+y^21+z^22 has 6180 distinct values; jc reads
    # only their int64 keys below 1, so it answers under a limit that the
    # spectrum command, which prints every value, is refused by
    monkeypatch.setattr(weights, "MAX_TABLE_BYTES", 1_000_000)
    code, out, err = _run(capsys, ["jc", "x^20+y^21+z^22"])
    assert code == 0 and err == ""
    assert out.splitlines()[:3] == ["661/4620", "871/4620", "881/4620"]
    code, out, err = _run(capsys, ["spectrum", "x^20+y^21+z^22"])
    assert code == 2 and out == ""
    assert "6180 distinct values" in err


@pytest.mark.parametrize("argv", [
    ["jc", "a^1291+b^1297+c^1301+d^1303+e^1307+f^1319"],
    ["irrationality", "a^1291+b^1297+c^1301+d^1303+e^1307+f^1319"],
    ["graded", "--alpha", "1/2", "a^1291+b^1297+c^1301+d^1303+e^1307+f^1319"],
    ["ideal", "--alpha", "1/2", "a^1291+b^1297+c^1301+d^1303+e^1307+f^1319"],
])
def test_exit_code_int64_overflow_refused(capsys, argv):
    # jc reads the spectrum, the other commands build a weight model
    code, out, err = _run(capsys, argv)
    table = "spectrum" if argv[0] == "jc" else "weight model"
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {table} of (1291, ")
    assert err.endswith("overflow 64-bit integers\n")


# flags each germ command takes besides --json
_GERM_COMMANDS = {"lct": (), "jc": ("window",), "ideal": ("alpha",),
                  "graded": ("alpha", "window"), "spectrum": (), "eigen": (),
                  "irrationality": ()}
# no decimal digits, so an exponent stays in 2..12
_STRAY = (" ", "\t", "@", "(", ")", "-", ".", "^", "*", "/", "+", "(+)", "x", "é", "²")


@st.composite
def _germ_texts(draw):
    """Up to four terms of the grammar; one draw in two is spoiled by a
    repeated name, a bad coefficient or stray tokens and characters."""
    names = draw(st.lists(st.sampled_from(["x", "y", "z", "w", "z1", "_a"]),
                          min_size=1, max_size=4, unique=True))
    coeffs = [draw(st.sampled_from(["", "2*", "1/3*"])) for _ in names]
    spoil = draw(st.integers(0, 5))
    if spoil == 3:
        names[-1] = names[0]
    if spoil == 4:
        coeffs[-1] = draw(st.sampled_from(["0*", "3/0*", "2/*", "2"]))
    text = ""
    for j, (coeff, name) in enumerate(zip(coeffs, names)):
        if j:
            text += draw(st.sampled_from(["+", " + ", "(+)", " (+) "]))
        text += f"{coeff}{name}^{draw(st.integers(2, 12))}"
    for _ in range(draw(st.integers(1, 2)) if spoil == 5 else 0):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_STRAY)) + text[at:]
    return text


# flag values: small rationals, and a few that are not rationals at all
_flag_values = st.sampled_from(["-1", "-1/2", "0", "1/6", "1/2", "5/6", "1", "7/6", "3/2",
                                "2", "5/2", "3", "1/0", "abc", ""])


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(_GERM_COMMANDS)), text=_germ_texts(),
       alpha=_flag_values, window=_flag_values, as_json=st.booleans())
def test_germ_grammar_contract(capsys, command, text, alpha, window, as_json):
    # every germ command ends in exit 0 with nothing on stderr, or in exit 2
    # with one `error: ` line, never in a traceback
    flags = _GERM_COMMANDS[command]
    argv = [command, *([f"--alpha={alpha}"] if "alpha" in flags else []),
            *([f"--window={window}"] if "window" in flags else []),
            *(["--json"] if as_json else []), "--", text]
    code, _, err = _run(capsys, argv)
    assert code in (0, 2), (argv, err)
    if code == 0:
        assert err == "", argv
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["ideal", "--alpha", "1/0", "x^2+y^3"],
    ["ideal", "--alpha", "-1/2", "x^2+y^3"],
    [],
    ["lct"],
    ["nope", "x^2+y^3"],
    ["lct", "--nope", "x^2+y^3"],
    ["verify", "--suite", "nope"],
], ids=lambda argv: " ".join(argv) or "no command")
def test_argparse_rejection_is_one_line(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "usage:" not in err


def test_help_goes_to_stdout(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lct", "--help"])
    out = capsys.readouterr()
    assert exc.value.code == 0 and out.err == ""
    assert out.out.startswith("usage: tsmult lct ")


def test_cli_matches_recorded_digests(capsys):
    # exit codes and stdout digests recorded for the benchmark's CLI catalogue
    recorded = Path(__file__).resolve().parents[1] / "bench" / "cli_expected.json"
    expected = json.loads(recorded.read_text())
    assert expected
    for key, want in expected.items():
        code = main(json.loads(key))
        out = capsys.readouterr().out.encode()
        assert code == want["exit"], key
        assert hashlib.sha256(out).hexdigest() == want["stdout_sha256"], key


def _readme_examples():
    """(argv, expected lines) of every `$ tsmult ...` line in the README's
    fenced blocks; the expected lines run to the next `$` line or the end
    of the block."""
    examples, block = [], None
    readme = Path(__file__).resolve().parents[1] / "README.md"
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            block = [] if block is None else None
        elif block is not None and line.startswith("$ tsmult "):
            block = []
            examples.append((shlex.split(line)[2:], block))
        elif block is not None:
            block.append(line)
    return [pytest.param(argv, "\n".join(lines).rstrip("\n"), id=" ".join(argv))
            for argv, lines in examples]


@pytest.mark.parametrize("argv, expected", _readme_examples())
def test_readme_examples(capsys, argv, expected):
    # stdout matches the lines under the command, a `...` line standing for
    # any lines; a refusal's `error:` line is compared with stderr
    code, out, err = _run(capsys, argv)
    if expected.startswith("error: "):
        assert (code, out, err) == (2, "", expected + "\n")
        return
    pattern = "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n"
                      for line in expected.split("\n"))
    assert (code, err) == (0, "")
    assert re.fullmatch(pattern, out), out


def _child_env():
    src = str(Path(tsmult.__file__).resolve().parents[1])
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not old else f"{src}{os.pathsep}{old}")


def test_irrationality_reads_large_basis_off_the_model():
    # C(80, 3) exponents with sum (nu_j + 1) <= 80; enumerating a box of
    # candidate monomials would need several GiB, so run under a 1 GiB cap
    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "tsmult", "irrationality", "x^80+y^80+z^80"],
        capture_output=True, text=True, env=_child_env(), timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "dim 82160"
    assert "Traceback" not in proc.stderr


_CHILD_COMMANDS = """
import contextlib, io, json, sys
from tsmult.cli import main
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    print(json.dumps([code, len(out.getvalue()), err.getvalue()]))
"""


def test_thousand_power_germ_under_memory_cap():
    # the seven germ commands on one oversized germ, in one child under a
    # 1 GiB cap: the spectral commands, jc among them, answer; the
    # weight-model ones refuse
    germ, limit = "x^1000+y^1000+z^1000+w^1000", 1 << 30
    argvs = [[command, *(["--alpha=1/2"] if "alpha" in flags else []), germ]
             for command, flags in _GERM_COMMANDS.items()]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_COMMANDS, json.dumps(argvs)],
        capture_output=True, text=True, env=_child_env(), timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    results = dict(zip((argv[0] for argv in argvs), map(json.loads, proc.stdout.splitlines())))
    assert results.keys() == _GERM_COMMANDS.keys()
    for command, (code, out_chars, err) in results.items():
        if command in ("lct", "spectrum", "eigen", "jc"):
            assert code == 0 and out_chars > 0 and err == "", (command, err)
        else:
            assert code == 2 and out_chars == 0, (command, err)
            assert err.startswith("error: weight model of (1000, 1000, 1000, 1000) ")
            assert err.count("\n") == 1 and "Traceback" not in err


# Germs whose builds outgrow a 1 GiB address space although each table passes
# admission: a 2-variable, four 3-variable and a 4-variable band edge
_MEMORY_BAND = [
    ["ideal", "--alpha=1/2", "x^140+y^141+z^142"],
    ["ideal", "--alpha=1/2", "x^180+y^181+z^182"],
    ["graded", "--alpha=1", "x^100+y^101+z^102"],
    ["graded", "--alpha=1", "x^120+y^121+z^122"],
    ["irrationality", "x^140+y^141+z^142"],
    ["irrationality", "x^180+y^181+z^182"],
    ["ideal", "--alpha=1/2", "x^2000+y^2001"],
    ["irrationality", "x^50+y^51+z^52+w^53"],
]


def test_memory_band_under_cap_exits_in_one_line():
    # each command answers or ends in one `error:` line, never a traceback;
    # a model build is admitted at its peak, so it is refused before it
    # runs out of memory
    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_COMMANDS, json.dumps(_MEMORY_BAND)],
        capture_output=True, text=True, env=_child_env(), timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(_MEMORY_BAND)
    for argv, (code, out_chars, err) in zip(_MEMORY_BAND, results):
        assert code in (0, 2), (argv, code, err)
        assert "Traceback" not in err and err.count("\n") <= 1, (argv, err)
        if code == 2:
            assert out_chars == 0 and err.startswith("error: "), (argv, err)
            assert not err.startswith("error: out of memory"), (argv, err)


def test_pair_sums_refused_before_allocating_under_cap():
    # each pair sum is admitted at its measured peak, so these end in a
    # refusal, not in numpy's out-of-memory error part way through
    germ, limit = "x^330+y^331+z^332", 1 << 30
    argvs = [["spectrum", germ], ["eigen", germ], ["jc", germ]]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_COMMANDS, json.dumps(argvs)],
        capture_output=True, text=True, env=_child_env(), timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(argvs)
    for argv, (code, out_chars, err) in zip(argvs, results):
        assert (code, out_chars, err.count("\n")) == (2, 0, 1), (argv, err)
        assert "108570 x 331 = 35936670 term pairs" in err, (argv, err)
        if argv[0] != "eigen":
            assert err.startswith("error: spectrum of (330, 331, 332): "), (argv, err)


def test_weight_table_refused_before_allocating_under_cap():
    # a one-variable table is admitted at the two int64 arrays its build
    # holds; a model of two or more variables is refused before its first
    # table when its atom lower bound, (cap - alpha~)^d * mu / d!, would not
    # fit at 8 * (d + 4) bytes an atom.  So these end in a refusal, not in
    # numpy's out-of-memory error
    limit = 1 << 30
    expected = {
        "x^40000000": "weight table of z^40000000 below 3 has 119999997 entries: "
                      "1919999952 bytes ",
        "x^40000000+y^2": "weight model of (40000000, 2) below 3 has at least 124999994 atoms: "
                          "5999999712 bytes ",
        "x^17000000+y^17000000": "weight model of (17000000, 17000000) below 3 has at least "
                                 "1300499745000018 atoms: 62423987760000864 bytes ",
        "x^12000000+y^2": "weight model of (12000000, 2) below 3 has at least 37499994 atoms: "
                          "1799999712 bytes ",
        "x^2000+y^2000+z^9000000": "weight model of (2000, 2000, 9000000) below 3 has at least "
                                   "161676220465475 atoms: 9053868346066600 bytes ",
        "x^1800+y^1800+z^9000000": "weight model of (1800, 1800, 9000000) below 3 has at least "
                                   "130928627287712 atoms: 7332003128111872 bytes ",
    }
    argvs = [["ideal", "--alpha", "1/2", germ] for germ in expected]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_COMMANDS, json.dumps(argvs)],
        capture_output=True, text=True, env=_child_env(), timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(argvs)
    for argv, (code, out_chars, err) in zip(argvs, results):
        assert (code, out_chars, err.count("\n")) == (2, 0, 1), (argv, err)
        assert err.startswith("error: " + expected[argv[-1]]), (argv, err)


def test_admitted_pair_sum_fits_under_cap():
    # 89700 x 301 = 26999700 pairs pass admission at 33 B a pair, and the
    # pair sum does fit in 1 GiB: the command gets past it to the charge
    # on reading the values
    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_COMMANDS, json.dumps([["spectrum", "x^300+y^301+z^302"]])],
        capture_output=True, text=True, env=_child_env(), timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout) == [
        2, 0, "error: spectrum of 20294700 distinct values as Python objects: 4058940000 bytes "
              "(~3.8 GiB) is above the 1073741824-byte table limit\n"]


def test_memory_error_without_message_is_one_line(capsys, monkeypatch):
    # Python's own MemoryError may carry no message; the line still ends cleanly
    def exhausted(germ):
        raise MemoryError()

    monkeypatch.setattr(spectral, "spectrum_of", exhausted)
    assert _run(capsys, ["spectrum", "x^2+y^3"]) == (2, "", "error: out of memory\n")


def test_closed_stdout_exits_quietly():
    # about 1 MB of spectrum lines overflows the pipe buffer, so the child
    # is still writing when the reader closes its end after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "tsmult", "spectrum", "x^40+y^41+z^42"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first == b"2521/34440 1\n"
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_window_flag(capsys):
    code, out, _ = _run(capsys, ["jc", "--window", "3", "z1^2 + z2^3"])
    assert code == 0
    assert out.split() == ["5/6", "1", "11/6", "2", "17/6"]


@pytest.mark.parametrize("argv", [
    ["jc", "--window", "0", "x^2+y^3"],
    ["jc", "--window", "-1", "x^2+y^3"],
    ["graded", "--window", "0", "--alpha", "1/2", "x^2+y^3"],
], ids=["jc --window 0", "jc --window -1", "graded --window 0"])
def test_window_validation(capsys, argv):
    assert _run(capsys, argv) == (2, "", "error: window must be positive\n")


def test_empty_output_writes_nothing(capsys):
    assert _run(capsys, ["jc", "--window", "1/1000000", "x^2+y^3"]) == (0, "", "")


def test_text_only_stdout():
    # a stdout with no binary layer, such as io.StringIO, takes the text as is
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["spectrum", "z1^2 + z2^3"]) == 0
    assert out.getvalue() == "5/6 1\n7/6 1\n"


# ---- verify ----

def test_verify_convolution_suite(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "convolution"])
    assert code == 0
    assert "convolution: 25/25 passed" in out


def test_verify_json_report(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "spectral", "--json"])
    assert code == 0
    payload = json.loads(out)
    _validate(payload, "verify_report")
    assert payload["ok"] is True
    suite = payload["suites"][0]
    assert suite["suite"] == "spectral"
    assert suite["passed"] == suite["total"] == 84
    # the schema requires elapsed_s on the suite and on each case; the
    # suite's time covers its cases' (each rounded to the microsecond)
    assert sum(c["elapsed_s"] for c in suite["cases"]) <= suite["elapsed_s"] + 84e-6


def test_verify_reports_a_failing_case_and_exits_3(capsys, monkeypatch):
    # one failing case per suite: its line names it with its detail, the
    # summary counts it out, and the exit code is 3, in text and in JSON
    def summation_path(m1, m2, alpha):
        if (m1, m2, alpha) == (2, 3, F(1, 2)):
            raise OracleMismatch("paths disagree")

    checked = spectral.consistency_check

    def consistency_check(germ):
        report = checked(germ)
        return dataclasses.replace(report, symmetric=False) if germ.exponents == (2, 3) else report

    paired = weights._pair

    def pair(a, b, *args):
        # drop the last atom of x^2 (+) y^3, in the production fold and in
        # the convolution alike, so only an independent oracle sees it
        model = paired(a, b, *args)
        if (a.dim, b.dim, a.denom // int(a.weight[0]), b.denom // int(b.weight[0])) == (1, 1, 2, 3):
            model = weights.WeightModel(model.dim, model.denom, model.cap, model.exps[:-1],
                                        model.weight[:-1], model.drop[:-1])
        return model

    monkeypatch.setattr(oracles, "summation_path", summation_path)
    monkeypatch.setattr(spectral, "consistency_check", consistency_check)
    monkeypatch.setattr(weights, "_pair", pair)
    for suite, case, total in (("summation", "summation (2,3) alpha 1/2", 180),
                               ("convolution", "convolution (2,3)", 25),
                               ("spectral", "spectral [2, 3]", 84)):
        code, out, _ = _run(capsys, ["verify", "--suite", suite])
        lines = out.splitlines()
        assert code == 3 and lines[-1] == f"{suite}: {total - 1}/{total} passed"
        failed = [line for line in lines if line.startswith("FAIL ")]
        assert len(failed) == 1 and failed[0].startswith(f"FAIL {case} (")
        detail = failed[0][len(f"FAIL {case} ("):-1]
        if suite == "summation":
            assert detail == "paths disagree"
        elif suite == "convolution":
            assert detail == "convolved chain differs from the box enumeration"
        else:
            assert json.loads(detail)["symmetric"] is False
        code, out, _ = _run(capsys, ["verify", "--suite", suite, "--json"])
        payload = json.loads(out)
        _validate(payload, "verify_report")
        assert code == 3 and payload["ok"] is False
        entry = payload["suites"][0]
        assert (entry["ok"], entry["passed"], entry["total"]) == (False, total - 1, total)
        assert [c["detail"] for c in entry["cases"] if not c["ok"]] == [detail]


def test_montecarlo_evidence_schema():
    from tsmult.germs import Germ
    from tsmult.oracles import MonteCarloConfig, monte_carlo_integrable
    evidence = monte_carlo_integrable(Germ((2, 3)), (0, 0), F(7, 10),
                                      MonteCarloConfig(shells=4, samples=500))
    _validate(evidence, "mc_evidence")


def test_chain_and_alpha_one_schemas():
    from tsmult.convolution import alpha_one_sequence_check
    from tsmult.filtration import v_to_j
    from tsmult.germs import Germ, diagonal_microlocal_chain
    chain = diagonal_microlocal_chain(Germ((2, 3)))
    _validate(chain.to_json(), "jump_chain")
    _validate(v_to_j(chain).to_json(), "jump_chain")
    report = alpha_one_sequence_check(Germ((2,), var_names=("x",)),
                                      Germ((3,), var_names=("y",)))
    _validate(report.to_json(), "alpha_one_report")
