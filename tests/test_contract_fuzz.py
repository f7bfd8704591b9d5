"""Contract fuzzer: argvs drawn from the flag table, run in process.

Every drawn request keeps the documented contract: an exit code of 0, 2, 3,
64 or 74 (1 only from verify), no traceback, an error in one stderr line
under 200 bytes, a refusal (exit 3) before any engine root, and an exit-0
output that parses in its format. An admitted request over a small cost is
skipped before its work starts, so the test stays fast.

The flag table parses only exact long flags, each followed by its value;
argparse parses the rest. So each exit-0 request is also run with every flag
written as --flag=value, and with every flag cut to its shortest unambiguous
prefix, and must print the same bytes with the same exit code.
"""

import contextlib
import csv
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import radpi.arith
import radpi.drivers
from radpi.cli import _METHODS, _SUBCOMMANDS, _fraction_arg, _parse_table, run_command

# admitted work above this many working bits x half-angle steps is skipped
_BUDGET = 1 << 18


class _Costly(BaseException):
    """Raised past run_command's handlers when an admitted cost is over the budget."""


# edges of every int flag, next to a range where its requests are admitted
_EDGES = st.sampled_from([-1, 0, 1, 23, 24, 31, 32, 63, 64, 65, 1024, 65472, 65536, 10**8])
_INT_RANGES = {"--bits": (64, 400), "--guard-bits": (32, 120), "--audited-bits": (24, 64)}
_DIGIT_RUNS = st.one_of(
    st.text("0123456789", min_size=1, max_size=6),
    st.text("0123456789", min_size=1, max_size=6),
    # leading zeros and long runs, past the 4300-digit int/str limit
    st.builds(lambda digit, n: digit * n, st.sampled_from("019"), st.integers(1, 25000)),
)
_UNDERSCORED = st.lists(_DIGIT_RUNS, min_size=1, max_size=2).map("_".join)


@st.composite
def _rationals(draw) -> str:
    """Text in the rational grammar: a sign, digits with underscores, then a
    decimal point and an exponent up to 10**8, or a denominator."""
    text = draw(st.sampled_from(["", "", "", "+", "-"])) + draw(_UNDERSCORED)
    if draw(st.integers(0, 3)) == 0:
        return f"{text}/{draw(_UNDERSCORED)}"
    if draw(st.booleans()):
        text += "." + draw(st.text("0123456789", max_size=8))
    if draw(st.integers(0, 3)) == 0:
        exponent = draw(st.one_of(st.integers(-30, 30), st.integers(-10**8, 10**8)))
        text += f"{draw(st.sampled_from('eE'))}{exponent}"
    return text


_RANGES = st.one_of(
    st.builds(lambda lo, n: f"{lo}:{lo + n}", st.integers(1, 12), st.integers(0, 6)),
    st.builds("{}:{}".format, _EDGES, _EDGES),
    st.sampled_from(["", ":", "3", "a:b", "1:", "2:1"]),
)
_M_RANGES = st.one_of(
    st.lists(st.integers(2, 10**6), min_size=1, max_size=3).map(lambda ms: ",".join(map(str, ms))),
    st.lists(_EDGES, max_size=3).map(lambda ms: ",".join(map(str, ms))),
    st.sampled_from([",", "x", "10,,100"]),
)
# a seed is --x0, or --m with --s or --d (and --sign); or none
_SEED_FORMS = (("--x0",), ("--x0",), ("--m", "--s"), ("--m", "--s", "--sign"), ("--m", "--d"),
               ("--m", "--d", "--sign"), ())
_SEED_DESTS = ("x0", "m", "s", "d", "sign")


def _values(flag: str, keywords: dict, out_dir):
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    if keywords.get("type") is int:
        lo, hi = _INT_RANGES.get(flag, (1, 40))
        return st.one_of(st.integers(lo, hi), st.integers(lo, hi), _EDGES).map(str)
    if keywords.get("type") is _fraction_arg:
        return st.integers(0, 7).flatmap(
            lambda n: _rationals() if n else st.text(" +-./_e019", max_size=8))
    if flag == "--out":  # a file, or one in a directory that does not exist
        return st.sampled_from([str(out_dir / "out.txt"), str(out_dir / "missing" / "out.txt")])
    return _RANGES if flag == "--k-range" else _M_RANGES


@st.composite
def _argvs(draw, out_dir) -> list[str]:
    """A subcommand and its exact long flags, each with a value, in any order:
    a seed in one of its forms, the method's other flags often, and any other
    flag seldom."""
    subcommand = draw(st.sampled_from(list(_SUBCOMMANDS)))
    flags = _SUBCOMMANDS[subcommand][1]
    pairs, reads = [], {"x0", "m", "s", "d", "sign"}
    if "--method" in flags:
        method = draw(st.sampled_from(flags["--method"]["choices"]))
        pairs.append(["--method", method])
        index, *reads = _METHODS[method][0]  # a table sweeps its index
        reads = {*reads, index if subcommand == "compute" else f"{index}_range"}
    seed = draw(st.sampled_from([form for form in _SEED_FORMS
                                 if all(flag[2:] in reads for flag in form)]))
    for flag, keywords in flags.items():
        dest = flag[2:].replace("-", "_")
        odds = 10 if flag in seed else 7 if dest in reads and dest not in _SEED_DESTS else 0.5
        if flag != "--method" and draw(st.integers(0, 19)) < 2 * odds:
            pairs.append([flag, draw(_values(flag, keywords, out_dir))])
    return [subcommand, *(word for pair in draw(st.permutations(pairs)) for word in pair)]


def _parses(text: str, fmt: str) -> bool:
    if fmt == "json":
        return set(json.loads(text)) == {"meta", "rows"}
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        return bool(rows) and all(len(row) == len(rows[0]) for row in rows)
    lines = text.splitlines()  # '# key = value' meta lines, then the body
    meta = [line for line in lines if line.startswith("# ")]
    return (all(" = " in line for line in meta) and lines[:len(meta)] == meta
            and len(lines) > len(meta) and all(lines[len(meta):]))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv: list[str]):
    """run_command(argv) in process: its exit code (None when an admitted cost
    is over the budget, before that work starts), its stdout and stderr, and
    the radicands of the engine roots it took."""
    roots = []
    real_admit, real_isqrt = radpi.drivers.admit_cost, radpi.arith.isqrt

    def admit(bit_steps, work=0):
        real_admit(bit_steps, work)
        if bit_steps > _BUDGET:
            raise _Costly

    def isqrt(n):
        roots.append(n)
        return real_isqrt(n)

    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(radpi.drivers, "admit_cost", admit)
        patch.setattr(radpi.arith, "isqrt", isqrt)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run_command(argv)
        except _Costly:
            code = None
    return code, stdout.getvalue(), stderr.getvalue(), roots


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_every_drawn_request_keeps_the_contract(out_dir, data):
    argv = data.draw(_argvs(out_dir), label="argv")
    code, out, err, roots = _run(argv)
    assume(code is not None)
    assert "Traceback" not in err
    assert code in (0, 2, 3, 64, 74) or (code, argv[0]) == (1, "verify"), (code, err)
    if code == 74:
        assert "--out" in argv
    if code == 3:
        assert roots == [], "refused after an engine root"
    if code not in (0, 1):
        # argparse writes its usage lines first; the error itself is the last line
        *usage, line = err.splitlines()
        assert line.startswith("radpi") and len(line.encode()) < 200, line[:300]
        assert not usage or (code == 64 and usage[0].startswith("usage: radpi")), err[:300]
    if code == 0:
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
        if "--out" in argv:
            with open(argv[argv.index("--out") + 1], encoding="utf-8") as handle:
                text = handle.read()
        else:
            text = out
        assert _parses(text, fmt), text[:300]


def _shortest_prefix(flag: str, options: list[str]) -> str:
    """The shortest prefix of ``flag`` that argparse expands to it alone: no
    other option starts with it (so none equals it), or the flag itself."""
    for n in range(3, len(flag)):
        if [option for option in options if option.startswith(flag[:n])] == [flag]:
            return flag[:n]
    return flag


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_equals_and_abbreviated_flags_print_the_same_bytes(out_dir, data):
    argv = data.draw(_argvs(out_dir), label="argv")
    out_path = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None

    def output(form):  # the exit code, stdout and the --out file's text
        if out_path is not None:
            out_path.unlink(missing_ok=True)
        code, out, _, _ = _run(form)
        written = out_path.read_text(encoding="utf-8") if out_path and out_path.exists() else None
        return code, out, written

    want = output(argv)
    assume(want[0] == 0)
    subcommand, pairs = argv[0], list(zip(argv[1::2], argv[2::2]))
    options = [*_SUBCOMMANDS[subcommand][1], "--help"]
    equals = [subcommand, *(f"{flag}={value}" for flag, value in pairs)]
    abbreviated = [subcommand, *(word for flag, value in pairs
                                 for word in (_shortest_prefix(flag, options), value))]
    assert pairs == [] or _parse_table(equals) is None  # argparse parses it
    for form in (equals, abbreviated):
        assert output(form) == want, form
