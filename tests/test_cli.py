"""Command line driver: reports, exit codes, JSON and text rendering."""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gradedcones import cli
from gradedcones.cli import COMMANDS, SHARED_OPTIONS, build_parser, main, parse_plain

ROOT = Path(__file__).resolve().parent.parent

EXAMPLE = """\
ring y1 y2 y3 y4 ;
grading [[1,2],[1,0],[0,1],[2,3]] ;
ideal F = y1^2 y2 y3 + y1 y4 + y2 y3^2 y4 ;
point P = (1, 1, 1, -1/2) ;
"""

CHECK_REPORT = """\
command: check
status: ok
result:
  grading:
    positive: true
    omega: [1, 1]
    dots: [3, 1, 1, 5]
  ideals:
    - name: F
      homogeneous: true
      generators:
        - text: y1^2*y2*y3 + y1*y4 + y2*y3^2*y4
          degree: [3, 5]
"""


@pytest.fixture
def run(capsys, monkeypatch, tmp_path):
    def go(argv, doc=None, env=None):
        if doc is not None:
            path = tmp_path / "input.gc"
            path.write_text(doc)
            argv = argv + ["--file", str(path)]
        for key, value in (env or {}).items():
            monkeypatch.setenv(key, value)
        code = main(argv)
        captured = capsys.readouterr()
        assert captured.err.startswith("elapsed:")
        return code, captured.out

    return go


def test_check_text_golden(run):
    code, out = run(["check"], doc=EXAMPLE)
    assert code == 0
    assert out == CHECK_REPORT


def test_reads_stdin_by_default(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(EXAMPLE))
    code = main(["check"])
    out = capsys.readouterr().out
    assert code == 0 and out == CHECK_REPORT


def test_output_is_deterministic(run):
    _, first = run(["singular"], doc=EXAMPLE)
    _, second = run(["singular"], doc=EXAMPLE)
    assert first == second


def test_json_round_trip(run):
    for argv in (["check"], ["smooth"], ["orbit-dim", "--point", "P"], ["dim"]):
        code, out = run(argv + ["--json"], doc=EXAMPLE)
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "ok"
        assert json.dumps(report, indent=2, sort_keys=True) + "\n" == out


def test_decompose(run):
    doc = "ring x y ;\ngrading [[1],[2]] ;\nideal A = x^2 + y, x ;\n"
    code, out = run(["decompose", "--json"], doc=doc)
    assert code == 0
    gens = json.loads(out)["result"]["generators"]
    assert gens[0]["components"] == [{"degree": [2], "text": "x^2 + y"}]
    assert gens[1]["components"] == [{"degree": [1], "text": "x"}]


def test_embed(run):
    doc = "ring x y z ;\ngrading [[2],[1],[3]] ;\nideal A = x + y^2, z + y^3 ;\n"
    code, out = run(["embed", "--json"], doc=doc)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["kept"] == ["y"]
    assert result["eliminated"] == ["x", "z"]
    assert result["embedded_generators"] == []
    assert result["substitution"] == [
        {"variable": "x", "value": "-y^2"},
        {"variable": "z", "value": "-y^3"},
    ]


def test_smooth_and_dim(run):
    code, out = run(["smooth", "--json"], doc=EXAMPLE)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["smooth"] is False and result["cone_dimension"] == 3
    code, out = run(["dim", "--json"], doc=EXAMPLE)
    assert json.loads(out)["result"]["dimension"] == 3


def test_singular_locus_of_the_zero_ideal(run):
    # codimension 0: the locus ideal is the unit ideal, exactly
    doc = "ring x y ;\ngrading [[1],[2]] ;\nideal F = ;\n"
    code, out = run(["singular", "--json"], doc=doc)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["codimension"] == 0
    assert result["empty"] is True and result["exact"] is True
    assert result["generators"] == ["1"]


def test_gb_orders(run):
    doc = "ring x y ;\nideal J = x^2, x y ;\n"
    code, out = run(["gb", "--order", "lex", "--json"], doc=doc)
    assert code == 0
    assert json.loads(out)["result"]["basis"] == ["x^2", "x*y"]
    # weighted order needs a grading to induce it
    code, out = run(["gb", "--order", "weighted", "--json"], doc=doc)
    assert code == 1
    doc2 = "ring x y ;\ngrading [[1],[1]] ;\nideal J = x^2 - x y ;\n"
    code, out = run(["gb", "--order", "weighted", "--json"], doc=doc2)
    assert code == 0


def test_orbit_commands(run):
    code, out = run(["orbit-dim", "--point", "P", "--json"], doc=EXAMPLE)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["dimension"] == 2 and result["support"] == ["y1", "y2", "y3", "y4"]

    code, out = run(["orbit-closure", "--point", "P", "--json"], doc=EXAMPLE)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["generators"] == ["y1 - y2*y3^2", "y2^2*y3^3 + 2*y4"]

    code, out = run(["stratum-mu", "--mu", "1", "--json"], doc=EXAMPLE)
    assert json.loads(out)["result"]["components"] == [["y1"], ["y2"], ["y3"], ["y4"]]

    code, out = run(["cross-section", "--vars", "y2,y3", "--json"], doc=EXAMPLE)
    result = json.loads(out)["result"]
    assert result["index"] == 1 and result["unique"] is True

    code, out = run(["one-dim-orbit", "--json"], doc=EXAMPLE)
    result = json.loads(out)["result"]
    assert result["point"] == "(1, 0, 0, 0)" and result["dimension"] == 1

    code, out = run(["curve", "--point", "P", "--json"], doc=EXAMPLE)
    result = json.loads(out)["result"]
    assert result["exponents"] == [3, 1, 1, 5]
    assert result["at_zero"] == "(0, 0, 0, 0)"
    assert result["stays_on_cone"] is True


def test_orbit_closure_of_a_point_with_independent_support_columns(run):
    # the lattice of the support columns is zero, so there are no binomials
    # and every Groebner run gets an empty generator list
    doc = "ring a b ;\ngrading [[1,0],[0,1]] ;\npoint P = (1, 2) ;\n"
    code, out = run(["orbit-closure", "--point", "P", "--json"], doc=doc)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["generators"] == [] and result["dimension"] == 2


def test_stratum_text_golden(run):
    doc = "ring x y ;\nideal J = x^2, x y ;\n"
    code, out = run(["stratum", "--order", "lex"], doc=doc)
    assert code == 0
    assert "generators: [C1 + C2^2]" in out
    assert "eliminated: [C1]" in out
    assert "embedded_ring: [C2]" in out
    lines = out.splitlines()
    assert lines[0] == "command: stratum"
    assert "      tail: y^2" in lines


def test_stratum_full_mode_rejection(run):
    doc = "ring x y ;\nideal J = x ;\n"
    code, out = run(["stratum", "--order", "lex", "--mode", "full", "--json"], doc=doc)
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "rejected"
    assert "infinitely many tails" in report["diagnostics"]["message"]


def test_rejection_carries_component_degrees(run):
    doc = "ring x ;\ngrading [[1]] ;\nideal A = x + 1 ;\n"
    code, out = run(["check", "--json"], doc=doc)
    assert code == 1
    d = json.loads(out)["diagnostics"]
    assert d["error"] == "NotHomogeneousError"
    assert d["component_degrees"] == [[0], [1]]


def test_rejection_carries_certificate(run):
    doc = "ring u v ;\ngrading [[1],[-1]] ;\nideal A = u v ;\n"
    code, out = run(["check", "--json"], doc=doc)
    assert code == 1
    d = json.loads(out)["diagnostics"]
    assert d["error"] == "NonPositiveGradingError"
    assert d["message"] == "the grading admits no positive weight vector"
    assert d["certificate"] == [1, 1]


def test_orbit_closure_rejects_a_non_positive_grading(run):
    doc = "ring u v ;\ngrading [[1],[-1]] ;\npoint P = (1, 2) ;\n"
    code, out = run(["orbit-closure", "--point", "P", "--json"], doc=doc)
    assert code == 1
    d = json.loads(out)["diagnostics"]
    assert d["error"] == "NonPositiveGradingError"
    assert d["message"] == "grading admits a nonconstant monomial of degree zero"
    assert d["certificate"] == [1, 1]


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (
            ["embed", "--keep", "z"],
            "ring x y z ;\ngrading [[1],[1],[1]] ;\nideal I = x - y , x y - z^2 ;\n",
            "does not span",
        ),
        (["stratum-mu", "--mu", "-1"], "ring x y ;\ngrading [[1],[1]] ;\n", "nonnegative"),
        (
            ["stratum-mu", "--mu", "1"],
            "ring " + " ".join(f"x{i}" for i in range(21)) + " ;\n"
            "grading [" + ",".join("[1]" for _ in range(21)) + "] ;\n",
            "20 variables",
        ),
        (
            ["one-dim-orbit"],
            "ring " + " ".join(f"y{i}" for i in range(21)) + " ;\n"
            "grading [" + ",".join("[1]" for _ in range(21)) + "] ;\n"
            "ideal F = y0^2 - y1 y2 ;\n",
            "subset enumeration is limited to 20 variables",
        ),
        # an empty name is a name, not a request for the sole declaration
        (["gb", "--ideal", ""], EXAMPLE, "ideal '' is not declared"),
        (["orbit-dim", "--point", ""], EXAMPLE, "point '' is not declared"),
        (["curve", "--ideal", ""], EXAMPLE, "ideal '' is not declared"),
        (["embed", "--keep", ""], EXAMPLE, "unknown variable ''"),
    ],
    ids=[
        "embed-keep-short-of-span",
        "stratum-mu-negative",
        "stratum-mu-21-variables",
        "one-dim-orbit-21-variables",
        "empty-ideal-name",
        "empty-point-name",
        "curve-empty-ideal-name",
        "embed-keep-nothing",
    ],
)
def test_invalid_arguments_are_rejections(run, argv, doc, message):
    code, out = run(argv + ["--json"], doc=doc)
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "rejected"
    assert message in report["diagnostics"]["message"]


@pytest.mark.parametrize(
    "argv, target",
    [(["one-dim-orbit"], "find_one_dim_orbit"), (["embed"], "minimal_embedding")],
    ids=["one-dim-orbit", "embed"],
)
def test_an_exception_that_is_not_a_refusal_escapes_main(run, monkeypatch, argv, target):
    # the library raises a Rejection where it refuses input; any other
    # exception under a command is a bug, not a report with exit code 1
    def fail(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, target, fail)
    with pytest.raises(ValueError, match="^boom$"):
        run(argv, doc=EXAMPLE)


def test_parse_error_exit_two(run):
    code, out = run(["check", "--json"], doc="ring x\n")
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "parse-error"
    assert report["diagnostics"]["line"] == 2
    assert report["diagnostics"]["column"] == 1


@pytest.mark.parametrize(
    "doc, line, column",
    [("ring x ;\nideal I = x^\u00b2 ;\n", 2, 13), ("ring x ;\ngrading [[\u00b2]] ;\n", 2, 11)],
    ids=["superscript-exponent", "superscript-degree"],
)
def test_non_decimal_digit_is_a_parse_error(run, doc, line, column):
    code, out = run(["check", "--json"], doc=doc)
    assert code == 2
    diagnostics = json.loads(out)["diagnostics"]
    assert diagnostics["error"] == "ParseFailure"
    assert (diagnostics["line"], diagnostics["column"]) == (line, column)


def test_decimal_digits_of_any_script_read_as_integers(run):
    code, out = run(["check", "--json"], doc="ring x ;\ngrading [[\u0663]] ;\nideal I = x^\u0663 ;\n")
    assert code == 0
    ideal = json.loads(out)["result"]["ideals"][0]
    assert ideal["generators"] == [{"degree": [9], "text": "x^3"}]


def test_ideal_selection(run):
    doc = "ring x y ;\nideal A = x ;\nideal B = y ;\n"
    code, out = run(["gb", "--ideal", "B", "--json"], doc=doc)
    assert code == 0
    assert json.loads(out)["result"]["basis"] == ["y"]
    code, out = run(["gb", "--json"], doc=doc)
    assert code == 1  # two ideals, none selected
    code, out = run(["gb", "--ideal", "C", "--json"], doc=doc)
    assert code == 1


def test_pair_limit_env_var(run):
    doc = "ring x y z ;\nideal J = x^2 - y z, x y - z^2, y^2 - x z ;\n"
    code, out = run(["gb", "--json"], doc=doc, env={"GRADEDCONES_PAIR_LIMIT": "1"})
    assert code == 1
    report = json.loads(out)
    diagnostics = report["diagnostics"]
    assert diagnostics["error"] == "ResourceLimitError"
    assert diagnostics["limit"] == 1
    assert diagnostics["processed"] == 2
    assert diagnostics["pending"] == 0 and diagnostics["basis_size"] == 3
    assert diagnostics["message"] == (
        "pair limit exceeded: processed %(processed)d pairs, %(pending)d pending, "
        "basis size %(basis_size)d (limit %(limit)d)" % diagnostics
    )
    # an orbit closure's binomial pair loop, started from the LLL-reduced
    # kernel basis: document o04 of the benchmark's orbits pool
    doc = (
        "ring y1 y2 y3 y4 y5 y6 y7 y8 y9 y10 y11 y12 ;\n"
        "grading [[0,3,2],[1,1,3],[3,3,2],[1,2,2],[0,3,3],[3,2,0],[0,2,3],[2,2,0],[0,1,2],[2,2,0],[0,3,3],[2,0,2]] ;\n"
        "ideal F = y1 y12, y2 y12 ;\n"
        "point P = (0, 2, 0, 1/2, 0, -2, 1/2, 0, 0, 3, 0, -2) ;\n"
    )
    code, out = run(
        ["orbit-closure", "--point", "P", "--json"], doc=doc, env={"GRADEDCONES_PAIR_LIMIT": "3"}
    )
    assert code == 1
    diagnostics = json.loads(out)["diagnostics"]
    assert diagnostics["error"] == "ResourceLimitError"
    assert (diagnostics["processed"], diagnostics["pending"]) == (4, 2)
    assert (diagnostics["basis_size"], diagnostics["limit"]) == (5, 3)


def test_missing_declarations_are_rejections(run):
    code, out = run(["check", "--json"], doc="ring x ;\n")
    assert code == 1  # no grading
    code, out = run(["orbit-dim", "--json"], doc=EXAMPLE.replace("point P = (1, 1, 1, -1/2) ;\n", ""))
    assert code == 1  # no point


TWELVE_VARIABLES = """\
ring y1 y2 y3 y4 y5 y6 y7 y8 y9 y10 y11 y12 ;
grading [[0,3,2],[1,1,3],[3,3,2],[1,2,2],[0,3,3],[3,2,0],[0,2,3],[2,2,0],[0,1,2],[2,2,0],[0,3,3],[2,0,2]] ;
ideal F = y1 y12, y2 y12 ;
point P = (0, 2, 0, 1/2, 0, -2, 1/2, 0, 0, 3, 0, -2) ;
"""


def test_orbit_closure_in_twelve_variables_within_budget(run):
    # six saturations of a binomial ideal in 12 variables; without the
    # Gebauer-Moeller pair update this ran for more than 30 s
    start = time.perf_counter()
    code, out = run(["orbit-closure", "--point", "P", "--json"], doc=TWELVE_VARIABLES)
    elapsed = time.perf_counter() - start
    assert code == 0
    result = json.loads(out)["result"]
    assert result["dimension"] == 3
    assert result["generators"] == [
        "y1",
        "y2^8*y4^2 + 128*y7^6*y12^5",
        "y2^8*y6 - 512*y4*y7^4*y12^5",
        "3*y2^6*y4*y6 + 64*y7^4*y10*y12^4",
        "9*y2^4*y6^2 + 32*y7^2*y10^2*y12^3",
        "27*y2^2*y4^2*y6^2 - 4*y7^2*y10^3*y12^2",
        "27*y2^2*y6^3 + 16*y4*y10^3*y12^2",
        "y2^2*y10 + 24*y4^2*y12",
        "y3",
        "4*y4^3 + y6*y7^2",
        "8*y4^2*y10^4*y12 + 81*y6^4*y7^2",
        "81*y4*y6^3 - 2*y10^4*y12",
        "16*y4*y10^8*y12^2 + 6561*y6^7*y7^2",
        "y5",
        "531441*y6^10*y7^2 + 32*y10^12*y12^3",
        "y8",
        "y9",
        "y11",
    ]
    assert elapsed < 8.0, f"orbit closure blew its 8 s budget: {elapsed:.2f}s"


USAGE_CASES = (
    [[], ["-h"], ["--json"], ["bogus"]]
    + [[name, "-h"] for name in COMMANDS]
    + [["dim", "--bogus"], ["gb", "--order", "x"], ["stratum-mu"], ["check", "extra"]]
)


def _exit(call, capsys):
    with pytest.raises(SystemExit) as info:
        call()
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", USAGE_CASES, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_help_and_usage_errors_match_the_full_parser(capsys, argv):
    # main leaves help and usage errors to argparse once parse_plain
    # declines; what it prints and how it exits must be the parser's own
    expected = _exit(lambda: build_parser().parse_args(argv), capsys)
    assert _exit(lambda: main(argv), capsys) == expected


@pytest.mark.parametrize(
    "where, reason",
    [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
        ("empty", "No such file or directory"),  # not stdin: that is no --file
    ],
)
def test_a_file_that_cannot_be_opened_is_a_usage_error(capsys, tmp_path, where, reason):
    paths = {"missing": str(tmp_path / "missing.gc"), "directory": str(tmp_path), "empty": ""}
    path = paths[where]
    code, out, err = _exit(lambda: main(["gb", "--file", path]), capsys)
    # the usage line is the one argparse prints for the command's own errors
    usage = _exit(lambda: main(["gb", "--order", "x"]), capsys)[2]
    assert (code, out) == (2, "")
    assert err == usage[: usage.index("gradedcones gb: error:")] + (
        f"gradedcones gb: error: argument --file: can't open {path!r}: {reason}\n"
    )


def test_a_file_that_is_not_utf8_reads_as_stdin_does(capsys, monkeypatch, tmp_path):
    data = "ring x ;\nideal I = x".encode() + b"\xff ;\n"
    path = tmp_path / "latin.gc"
    path.write_bytes(data)
    from_file = main(["check", "--json", "--file", str(path)]), capsys.readouterr().out
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    from_stdin = main(["check", "--json"]), capsys.readouterr().out
    assert from_file == from_stdin
    assert from_file[0] == 2
    assert json.loads(from_file[1])["diagnostics"]["column"] == 12


def test_the_table_uses_only_keywords_the_reader_reads():
    known = {"default", "choices", "type", "required", "action", "help"}
    for name, command in COMMANDS.items():
        for flag, keywords in SHARED_OPTIONS + command.options:
            assert flag.startswith("--") and set(keywords) <= known, (name, flag)
            assert keywords.get("action", "store_true") == "store_true", (name, flag)


def _documented_command_lines():
    # a line that runs gradedcones, alone or after a pipe, up to a redirection or ||
    pattern = re.compile(r"^(?:.*\| )?gradedcones ([^|<\n]*)", flags=re.MULTILINE)
    for doc in (ROOT / "README.md", ROOT / "demos" / "cli_tour.sh"):
        for line in pattern.findall(doc.read_text(encoding="utf-8")):
            yield shlex.split(line)


def test_documented_command_lines_take_the_plain_path():
    lines = list(_documented_command_lines())
    assert len(lines) >= 10  # three in the README, seven in the tour
    for argv in lines:
        args = parse_plain(argv)
        assert args is not None, argv
        assert args == build_parser().parse_args(argv)


def _argparse_or_exit(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return SystemExit


def test_plain_reader_agrees_with_argparse():
    # parse_plain reads argv as argparse does or leaves it to argparse: it
    # never accepts what argparse rejects nor reads an option differently
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    every_flag = sorted({flag for c in COMMANDS.values() for flag, _ in SHARED_OPTIONS + c.options})
    odd_values = st.sampled_from(["-1", "-h", "--", "-", " 7", "\u0663", "--json"])
    odd_words = st.sampled_from([["-h"], ["--help"], ["--"], ["extra"], ["--h"]])

    def value(keywords):
        # a good value, or a bad choice, or not an integer for --mu
        if "choices" in keywords:
            return st.sampled_from(keywords["choices"] + ("lex2", "Full", ""))
        if "type" in keywords:
            return st.one_of(st.integers(0, 25).map(str), st.sampled_from(["1.5", "x", ""]))
        return st.sampled_from(["F", "P", "x,y", "doc.gc", ""])

    def spelled(flag, keywords):
        # mostly one exact flag with a good value; one time in three something odd
        exact = value(keywords).map(lambda v: [flag, v])
        if keywords.get("action") == "store_true":
            exact = st.just([flag])
        odd = st.one_of(
            odd_values.map(lambda v: [flag, v]),
            st.just([flag]),
            st.integers(1, len(flag) - 3).map(lambda n: [flag[:-n]]),
            st.one_of(value(keywords), odd_values).map(lambda v: [f"{flag}={v}"]),
            st.sampled_from(every_flag).map(lambda f: [f]),
            odd_words,
        )
        return st.integers(0, 2).flatmap(lambda k: odd if k == 0 else exact)

    def command_line(name):
        options = SHARED_OPTIONS + COMMANDS.get(name, COMMANDS["stratum"]).options
        words = st.lists(st.sampled_from(options).flatmap(lambda o: spelled(*o)), max_size=4)
        return words.map(lambda parts: [name] + [word for part in parts for word in part])

    bogus = st.sampled_from(["bogus", "", "-h", "--json", "g", "stratum_mu"])
    names = st.integers(0, 9).flatmap(lambda k: bogus if k == 0 else st.sampled_from(list(COMMANDS)))

    @hypothesis.settings(max_examples=600, derandomize=True, deadline=None, database=None)
    @hypothesis.given(names.flatmap(command_line))
    def agree(argv):
        args = parse_plain(argv)
        expected = _argparse_or_exit(argv)
        if expected is SystemExit:
            assert args is None, argv
        else:
            assert args is None or args == expected, argv

    agree()


def test_readme_lists_every_command_with_its_flags():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*?) \|", readme, flags=re.MULTILINE)
    assert [name for name, _ in rows] == list(COMMANDS)
    for name, flags in rows:
        listed = re.findall(r"`(--[a-z]+)", flags)
        assert listed == [flag for flag, _ in COMMANDS[name].options], name


def test_huge_constant_term_has_no_rational_root_within_budget():
    # trial division looped over d up to sqrt(10^33 + 1), about 3e16 steps
    doc = "ring a b ;\ngrading [[1],[1]] ;\nideal J = a^2 - 1000000000000000000000000000000001 b^2 ;\n"
    done = subprocess.run(
        [sys.executable, "-m", "gradedcones.cli", "one-dim-orbit", "--json"],
        input=doc,
        capture_output=True,
        text=True,
        timeout=5.0,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert done.returncode == 1
    diagnostics = json.loads(done.stdout)["diagnostics"]
    assert diagnostics["error"] == "NoRationalPointError"
    assert diagnostics["supports"] == [[0, 1]]
