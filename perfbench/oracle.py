"""Known answers for every operation the benchmark runs.

Each answer comes from the paper or from the timing semantics of the
system, never from running the code under test:

- Fischer (as the CLI and the daemon's catalog build it: critical
  section left within e = 2, check delay [b, b + 1]).  Two processes
  can only meet in the critical section if one sets x after the
  other's check (needs a >= b) and then checks before the other has
  left, resetting x (needs b <= e).  So mutual exclusion holds iff
  a < b or b > e.  The classical "iff a < b" assumes an unbounded
  critical section and is wrong here at, e.g., a = b = 3.  Widening
  only the SET_i class moves a to a + eps: for b <= e the margin is
  exactly b - a and open (refuted at b - a itself); for b > e no
  widening of SET_i refutes, so the search is censored.
- The resource manager's G1 = [k*c1, k*c2 + l] and
  G2 = [k*c1 - l, k*c2 + l] (paper, Section 4).
- The signal relay's U(0,n) = [n*d1, n*d2] (paper, Section 6), and the
  token ring's rotation [n*d1, n*d2] by the same argument.
- The failure detector's accuracy margin, widening the heartbeat class
  alone, is exactly g1 - h2, open (h2 = 2 in the daemon's catalog).

Every check returns None when the verdict matches, else a one-line
description of the mismatch.
"""

from fractions import Fraction

FD_H2 = 2
FISCHER_E = 2


def _interval(lo, hi):
    return "[%s, %s]" % (lo, hi)


def _expect(what, got, want):
    if got == want:
        return None
    return "%s: got %r, expected %r" % (what, got, want)


def _verified(verdict, lo, hi):
    return _expect("result", verdict.get("result"), "verified") or _expect(
        "bounds", verdict.get("bounds"), _interval(lo, hi)
    )


def _open_margin(report, classes, threshold):
    rows = report.get("per_class", {})
    for cls in classes:
        row = rows.get(cls)
        if not isinstance(row, dict):
            return "%s: no margin row for %s" % (report.get("subject"), cls)
        problem = _expect(
            "%s threshold" % cls, Fraction(row.get("threshold", "nan")), Fraction(threshold)
        ) or _expect("%s attained" % cls, row.get("attained"), False)
        if problem:
            return problem
    return None


def fischer_mutex(a, b):
    return a < b or b > FISCHER_E


def _censored(report, classes):
    rows = report.get("per_class", {})
    for cls in classes:
        row = rows.get(cls)
        if not isinstance(row, dict):
            return "%s: no margin row for %s" % (report.get("subject"), cls)
        if row.get("refuted_at") is not None or row.get("exact") is not False:
            return "%s: expected no refutation, got %r" % (cls, row)
    return None


def fischer_set_margin(reports, n, a, b):
    """Reports as `timedmap margin --json` prints them (and as the
    daemon's margin verdict carries them): the mutual-exclusion report
    comes first."""
    if not reports:
        return "no margin reports"
    classes = ["SET_%d" % i for i in range(1, n + 1)]
    if b <= FISCHER_E:
        return _open_margin(reports[0], classes, b - a)
    return _censored(reports[0], classes)


def check_request(req, verdict):
    """Check one daemon verdict document against its request."""
    if not isinstance(verdict, dict):
        return "no verdict: %r" % (verdict,)
    op, system = req.get("op"), req.get("system")
    p = req.get("params", {})
    if op == "verify":
        item = req.get("item", 0)
        if system == "fischer" and item == 0:
            want = "invariant_ok" if fischer_mutex(p["a"], p["b"]) else "invariant_violated"
            return _expect("result", verdict.get("result"), want)
        if system == "rm" and item in (0, 1):
            k, c1, c2, l = p["k"], p["c1"], p["c2"], p["l"]
            lo = k * c1 if item == 0 else k * c1 - l
            return _verified(verdict, lo, k * c2 + l)
        if system in ("relay", "ring") and item == 0:
            return _verified(verdict, p["n"] * p["d1"], p["n"] * p["d2"])
    if op == "margin":
        reports = verdict.get("reports")
        if system == "fd":
            return _open_margin(reports[0], ["HB"], p["g1"] - FD_H2) if reports else "no margin reports"
    return "no known answer for %s" % (req,)


def fischer_verify_text(stdout, a, b):
    """`timedmap verify -S fischer` prints one line per check."""
    want = "VERIFIED" if fischer_mutex(a, b) else "VIOLATED"
    lines = stdout.splitlines()
    if not any(line.startswith("mutual exclusion: " + want) for line in lines):
        return "mutual exclusion is not %s in %r" % (want, stdout)
    if not any("U_enter" in line and line.endswith(")") and ": VERIFIED" in line for line in lines):
        return "U_enter is not VERIFIED in %r" % (stdout,)
    return None
