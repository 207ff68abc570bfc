"""Command-line exit codes as a property: any argv built from the documented
flags makes `main()` return 0, 1, 2 or 3 and raise nothing."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# flag values: valid ones more often than not, mixed with non-finite,
# negative, out-of-range and non-numeric tokens; --points and --grid-points
# stay at most 8 so that every valid command is cheap
_BAD = st.sampled_from(["nan", "inf", "-inf", "-1", "-0.5", "abc", "", "1e400"])
_REAL = st.one_of(
    st.floats(0.0, 3.0).map(lambda v: f"{v:.3g}"), st.floats(-1.0, 3.0).map(str), _BAD
)
_POINTS = st.one_of(
    st.integers(2, 8).map(str), st.integers(-1, 8).map(str), _BAD, st.just("2.5")
)
_DIM = st.one_of(st.integers(1, 5).map(str), st.integers(-1, 7).map(str), _BAD)
_COORDS = st.lists(_REAL, min_size=1, max_size=3).map(",".join)


def _choice(valid, invalid):
    return st.sampled_from([*valid, *valid, *invalid])


def _flags(required: dict, optional: dict):
    """The required flags and any subset of the optional ones, each with a
    drawn value, in drawn order."""

    def pair(flag, value):
        return st.tuples(st.just(flag), value)

    chosen = st.lists(
        st.one_of(*(pair(f, v) for f, v in optional.items())), max_size=len(optional)
    )
    return (
        st.tuples(st.tuples(*(pair(f, v) for f, v in required.items())), chosen)
        .flatmap(lambda parts: st.permutations([*parts[0], *parts[1]]))
        .map(lambda pairs: [token for p in pairs for token in p])
    )


_SPACE = _choice(["euclid", "hyperbolic"], ["plane"])
_KERNEL = st.tuples(
    st.just(["kernel"]),
    _flags(
        {
            "--space": _SPACE,
            "--kind": _choice(["frac", "log1", "log2", "heat"], ["wave"]),
            "--n": _DIM,
        },
        {
            "--s": _REAL,
            "--t": _REAL,
            "--r-min": _REAL,
            "--r-max": _REAL,
            "--points": _POINTS,
            "--route": _choice(["time_quadrature", "bessel_closed_form"], ["x"]),
            "--grid-points": _POINTS,
            "--length": _REAL,
        },
    ),
)
_APPLY = st.tuples(
    st.just(["apply"]),
    _flags(
        {
            "--space": _SPACE,
            "--op": _choice(["log", "frac"], ["heat"]),
            "--fn": _choice(["gaussian", "bump", "plateau", "tent"], ["nope"]),
            "--n": _DIM,
        },
        {
            "--route": _choice(["pointwise", "bochner", "multiplier"], ["x"]),
            "--s": _REAL,
            "--x": _COORDS,
            "--x-dist": _REAL,
            "--grid-points": _POINTS,
            "--length": _REAL,
        },
    ),
)
_VERIFY = st.tuples(
    st.just(["verify", "--suite", "specfun"]),
    st.lists(st.sampled_from(["--suite", "specfun", "bogus"]), max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(command=st.one_of(_KERNEL, _APPLY, _VERIFY), with_out=st.booleans())
# drawn argvs that once escaped main(), pinned here since hypothesis's example
# database is a local cache: a subnormal sinh|x| sinh r in the sphere mean
# overflowed a division, the Bessel closed form and the time-quadrature frac
# table overflowed at tiny radii, and so did the heat kernel's t^(-q_j) at a
# subnormal t; at t = 1e-250 the H^2 heat table fits and the H^4 one does not;
# the even-n transform route once returned wrong K1 values near the axis,
# and overflowed in b = r^2/4 far out
@example(
    command=(["apply"], "--space hyperbolic --op log --fn bump --n 2 --x-dist 2.23e-311".split()),
    with_out=False,
)
@example(
    command=(
        ["kernel"],
        "--space hyperbolic --kind frac --route bessel_closed_form --n 3 --s 0.5 "
        "--r-min 1e-300 --r-max 1 --points 2".split(),
    ),
    with_out=False,
)
@example(
    command=(
        ["kernel"],
        "--space hyperbolic --kind frac --n 3 --s 0.5 --r-min 1e-100 --r-max 1 --points 3".split(),
    ),
    with_out=False,
)
@example(
    command=(["kernel"], "--space hyperbolic --kind heat --n 2 --t 4.94e-324".split()),
    with_out=False,
)
@example(
    command=(
        ["kernel"],
        "--space hyperbolic --kind heat --n 2 --t 1e-250 --r-min 1e-130 --r-max 1e-125 "
        "--points 3".split(),
    ),
    with_out=False,
)
@example(
    command=(
        ["kernel"],
        "--space hyperbolic --kind heat --n 4 --t 1e-250 --r-min 1e-130 --r-max 1e-125 "
        "--points 3".split(),
    ),
    with_out=False,
)
@example(
    command=(
        ["kernel"],
        "--space hyperbolic --kind log1 --route bessel_closed_form --n 2 --r-min 1e-300".split(),
    ),
    with_out=False,
)
@example(
    command=(
        ["kernel"],
        "--space hyperbolic --kind frac --s 0.5 --route bessel_closed_form --n 4 "
        "--r-min 1e-300".split(),
    ),
    with_out=False,
)
@example(
    command=(
        ["kernel"],
        "--space hyperbolic --kind log2 --route bessel_closed_form --n 2 --r-max 1e300".split(),
    ),
    with_out=False,
)
@example(
    command=(
        ["kernel"],
        "--space hyperbolic --kind frac --s 0.5 --route bessel_closed_form --n 4 "
        "--r-max 1e300".split(),
    ),
    with_out=False,
)
def test_documented_exit_codes(tmp_path_factory, command, with_out):
    # kernel and apply always write to --out, verify sometimes to --json-out
    from loglap import cli

    head, flags = command
    argv = head + flags
    if head[0] != "verify":
        argv += ["--out", str(tmp_path_factory.mktemp("cli") / "out.csv")]
    elif with_out:
        argv += ["--json-out", str(tmp_path_factory.mktemp("cli") / "out.json")]
    rc = cli.main(argv)
    event(f"{head[0]} exit {rc}")
    assert rc in (0, 1, 2, 3)
