"""A seeded sweep of the CLI over its stated domain.

Each example builds a ladder [t_lo, t_lo + width], with t_lo log-uniform on
[1.2e3, 1e8 - 60], and runs a plan at T inside the ladder's range, with
nu in [-1/2, 100], (alpha, beta) in [-0.99, 5]^2 and a drawn max_n, through
`cli.main` in process.  Every example must end in a documented outcome:

- the build exits 0, or 70 with a message naming why its tolerance is out
  of reach;
- the run exits 0, 2 with only asymptotic FAIL lines, or 64 with a message
  naming the bound its input leaves;
- every exactness row (E1_2, E1_3_*, the sanity rows) of a written report
  has |lhs - rhs| <= its own quadrature_error;
- no exception escapes `cli.main`.

Tier-1 runs 20 derandomized examples of every plan family at max_n <= 8.
`--hypothesis-profile domain-sweep` (registered in conftest.py) runs 200,
each of a drawn set of families at max_n up to the smallest of their caps.
"""

import contextlib
import io
import json
import math
import re

from hypothesis import event, given, settings
from hypothesis import strategies as st

from zladder import cli
from zladder.config import PLAN_EQUATIONS
from zladder.verify import FAMILIES, LADDER_MEMBERS, is_sanity

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
    r"|plan T = .* outside ladder range)")
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
        where=draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2)),
        nu=draw(st.floats(-0.5, 100.0)), alpha=draw(st.floats(-0.99, 5.0)),
        beta=draw(st.floats(-0.99, 5.0)), max_n=draw(st.integers(1, cap)))


@settings(max_examples=200 if SWEEP else 20, derandomize=True, database=None, deadline=None)
@given(plan=plans())
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
    # T + U <= phi_hi for every member: U is at most 2
    lo, span = built["phi_lo"], built["phi_hi"] - 2.0 - built["phi_lo"]
    T = sorted({lo + w * span for w in plan["where"]})
    report = root / "plan.jsonl"
    code, _, err = _cli("run", *ladder, "--equations", *plan["equations"], "--T", *T,
                        "--nu", plan["nu"], "--alpha", plan["alpha"], "--beta", plan["beta"],
                        "--max-n", plan["max_n"], "--out", report)
    event(f"run exit {code}")
    assert code in (0, 2, 64), err
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
