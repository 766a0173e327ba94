"""A seeded sweep of the CLI over its stated domain.

Each example builds a ladder [t_lo, t_lo + width], with t_lo log-uniform on
[1.2e3, 1e8 - 60], and runs a plan at T inside the ladder's range or
outside it, with nu in [-1/2, 100], (alpha, beta) in [-0.99, 5]^2 and a
drawn max_n, through `cli.main` in process.  Every example must end in a
documented outcome:

- the build exits 0, or 70 with a message naming why its tolerance is out
  of reach;
- the run exits 0, 2 with only asymptotic FAIL lines, or 64 with a message
  naming the bound its input leaves, and 64 whenever a T lies outside
  [phi_lo, phi_hi - 1], where no ladder member's window fits;
- every exactness row (E1_2, E1_3_*, the sanity rows) of a written report
  has |lhs - rhs| <= its own quadrature_error;
- no exception escapes `cli.main`;
- on a built ladder, `invert` at each drawn T inside [phi_lo, phi_hi], at
  the first checkpoint value at or above the first T and at that value's
  two neighbouring doubles returns the double a bisection over the panel's
  doubles returns (`oracles.invert_by_bisection`) and keeps its contract:
  |phi_1(t) - y| <= 1e-10, or the neighbours of t bracket y.  Near 1e8,
  where phi_1 rises by ~1e-8 per double, nearly every inverse takes the
  bracket.

Tier-1 runs 20 derandomized examples of every plan family at max_n <= 8.
`--hypothesis-profile domain-sweep` (registered in conftest.py) runs 200,
each of a drawn set of families at max_n up to the smallest of their caps.
The explicit examples are an input the sweep once failed on, a ladder
near 1e8, whose inverses take the bracket, a refused build and a T below
the built range.
"""

import contextlib
import io
import json
import math
import re

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from zladder import LadderTable, ZEvaluator, cli
from zladder.cli import PLAN_EQUATIONS
from zladder.verify import FAMILIES, LADDER_MEMBERS, is_sanity

import oracles

SWEEP = settings.get_current_profile_name() == "domain-sweep"

# the largest max_n each ladder family takes; baseline takes min(max_n, 8)
CAPS = {family: min(LADDER_MEMBERS[eq][3] for eq in members)
        for family, (members, *_) in FAMILIES.items()}

BUILD_REFUSALS = re.compile(
    r"numeric error: (build tolerance \S+ unattainable: certified error \S+ "
    r"\(roundoff-noise bound\)|panel refinement exhausted)")
RUN_REFUSALS = re.compile(
    r"error: (E\S+ requires 1 <= max_n <= \d+"
    r"|E\S+ at nu = .* lies past bessel_j's domain x <= 200"
    r"|plan T = \S+ outside ladder range: need phi_lo <= T and T \+ [12] <= phi_hi, "
    r"have \[\S+, \S+\])")
ASYMPTOTIC_FAIL = re.compile(r"FAIL (E2_\d+ \{.*\}: \|ratio-1\| = |ratio-error trend )")


def _cli(*argv):
    """cli.main's exit code, stdout and stderr for the given arguments."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@st.composite
def plans(draw):
    t_lo = min(10.0 ** draw(st.floats(math.log10(1.2e3), 8.0)), 1e8 - 60.0)
    width = draw(st.floats(10.0, 60.0))
    tol = draw(st.sampled_from([1e-8, 1e-7, 1e-6]))
    if SWEEP:
        equations = draw(st.lists(st.sampled_from(PLAN_EQUATIONS), min_size=1, unique=True))
        cap = min((CAPS[f] for f in equations if f in CAPS), default=8)
    else:
        equations, cap = list(PLAN_EQUATIONS), 8
    return dict(
        t_lo=t_lo, t_hi=t_lo + width, tol=tol, equations=equations,
        # T = phi_lo + where (phi_hi - 2 - phi_lo), outside the range too
        where=draw(st.lists(st.floats(0.0, 1.0) | st.floats(-1.0, 2.0), min_size=1, max_size=2)),
        nu=draw(st.floats(-0.5, 100.0)), alpha=draw(st.floats(-0.99, 5.0)),
        beta=draw(st.floats(-0.99, 5.0)), max_n=draw(st.integers(1, cap)))


def _check_inverse(table, y):
    """invert(y) returns the bisection oracle's double and keeps its contract."""
    t = table.invert(y)
    assert t.hex() == oracles.invert_by_bisection(table, y).hex(), y
    assert oracles.meets_inverse_contract(table, y), y
    event(f"invert {'within 1e-10' if abs(table.eval(t) - y) <= 1e-10 else 'brackets y'}")


@settings(max_examples=200 if SWEEP else 20, derandomize=True, database=None, deadline=None)
@given(plan=plans())
# T = phi_lo, whose left end piece rises only 0.0096: when both ends took
# the power of the smaller exponent, the degree-16 E2_5 sanity row was off
# by 7.2e-5 against an estimate of 1.1e-9 (exit 1)
@example(plan=dict(t_lo=10000.0, t_hi=10026.62974124444, tol=1e-8, equations=["sanity"],
                   where=[0.0], nu=0.0, alpha=-0.9899999999999999, beta=4.257270149839974,
                   max_n=16))
# near 1e8 phi_1 rises by ~1e-8 from one double to the next: nearly every
# inverse misses 1e-10 and is taken from the bracket its walk stops at
@example(plan=dict(t_lo=99999940.0, t_hi=99999950.0, tol=1e-6, equations=list(PLAN_EQUATIONS),
                   where=[0.5], nu=0.0, alpha=0.0, beta=0.0, max_n=1))
# a refused build and a T below the built range: hypothesis seeds the
# derandomized draws from this test's source, so an edit to it re-draws
# them, and they need not hold either
@example(plan=dict(t_lo=5e7, t_hi=5e7 + 10.0, tol=1e-8, equations=list(PLAN_EQUATIONS),
                   where=[0.5], nu=0.0, alpha=0.0, beta=0.0, max_n=1))
@example(plan=dict(t_lo=1200.0, t_hi=1210.0, tol=1e-8, equations=list(PLAN_EQUATIONS),
                   where=[-0.5], nu=0.0, alpha=0.0, beta=0.0, max_n=1))
def test_every_outcome_is_documented(tmp_path_factory, plan):
    root = tmp_path_factory.mktemp("domain")
    ladder = ["--t-lo", plan["t_lo"], "--t-hi", plan["t_hi"], "--tol", plan["tol"],
              "--cache", root / "ladder.npz"]
    code, out, err = _cli("ladder", "build", *ladder)
    event(f"build exit {code}")
    assert code in (0, 70), err
    if code == 70:
        assert BUILD_REFUSALS.match(err), err
        return
    built = json.loads(out)
    # where in [0, 1] keeps T + U <= phi_hi for every member: U is at most 2
    lo, hi = built["phi_lo"], built["phi_hi"]
    T = sorted({lo + w * (hi - 2.0 - lo) for w in plan["where"]})
    table = LadderTable.load(root / "ladder.npz", ZEvaluator())
    at = table.phi.item(min(int(table.phi.searchsorted(T[0])), len(table.phi) - 1))
    for y in T + [math.nextafter(at, -math.inf), at, math.nextafter(at, math.inf)]:
        if lo <= y <= hi:
            _check_inverse(table, y)
    outside = T[0] < lo or T[-1] + 1.0 > hi
    event(f"T outside [phi_lo, phi_hi - 1]: {outside}")
    report = root / "plan.jsonl"
    code, _, err = _cli("run", *ladder, "--equations", *plan["equations"], "--T", *T,
                        "--nu", plan["nu"], "--alpha", plan["alpha"], "--beta", plan["beta"],
                        "--max-n", plan["max_n"], "--out", report)
    event(f"run exit {code}")
    assert code in (0, 2, 64), err
    assert code == 64 or not outside or plan["equations"] == ["baseline"], err
    if code == 64:
        assert RUN_REFUSALS.match(err), err
        return
    fails = [line for line in err.splitlines() if line.startswith("FAIL ")]
    assert (code == 2) == bool(fails), err
    assert all(ASYMPTOTIC_FAIL.match(line) for line in fails), err
    rows = [json.loads(line) for line in report.read_text().splitlines()]
    exact = [r for r in rows if r["equation_id"].startswith(("E1_2", "E1_3_"))
             or is_sanity(r["params"])]
    for r in exact:
        assert abs(r["lhs"] - r["rhs"]) <= r["quadrature_error"], r
