"""The three workloads: inputs made from the seed, the library call of each
op, and the expected answer it is checked against.

Every workload runs rounds of ops.  The classes of a round and their order
are fixed in ``spec.json``; the seed only changes parameter values (basis
changes, isotope operators, field elements, file contents).  Each class has
a pool of ``POOL`` seeded variants made in set-up, and round r uses variant
``(r * count + occurrence) % POOL``.

The library receives only generated algebras, matrices and files.  Answers
come from closed forms, from the benchmark's own exact arithmetic in
``exact.py``, or from the tables below, which record this library's output
for the fixed base algebras (see ``RECORDED``).
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import exact

POOL = 16

# Answers with no closed form, recorded from the library for the fixed base
# algebras and cross-checked: nil-rank of C2 / C3 / G_n agrees with the
# exact criterion where it applies, and simplicity (envelope n^2) agrees
# with an empty exhaustive ideal search over gf 3, 5 and 7.
RECORDED = {
    # name: (unital, jordan over QQ and p >= 5, nil-rank over gf 3 / 5 / 7)
    "J2": (True, True, {3: 2, 5: 2, 7: 2}),
    "C2": (False, False, {3: 2, 5: 2, 7: 2}),
    "C3": (False, False, {3: 3, 5: 3, 7: 3}),
    "C(-2)": (True, False, {3: 3, 5: 3, 7: 3}),
    "C(1)": (True, False, {3: 3, 5: 2, 7: 2}),
    "C(1,1,0)": (True, False, {3: 2, 5: 2, 7: 2}),
    "G2": (False, False, {3: 2, 5: 2, 7: 2}),
}
# shipped file -> (unit, jordan, nil-rank, nil method); all are simple with
# envelope 9/9 over the rationals.
SHIPPED = {
    "j2.alg": ("(1, 0, 0)", "yes", 2, "exact-cfamily"),
    "c110.alg": ("(1, 0, 0)", "no", 2, "exact-cfamily"),
    "c_minus2.alg": ("(1, 0, 0)", "no", 3, "exact-cfamily"),
    "c2.alg": ("none", "no", 2, "bruteforce-fp"),
    "c3.alg": ("none", "no", 3, "bruteforce-fp"),
    "g2.alg": ("none", "no", 2, "bruteforce-fp"),
}
# non-isomorphic pairs over gf 3: J2 / C(1,1,0) are isotopic but not
# isomorphic; the others differ in unit existence or nil-rank.
NEGATIVE_PAIRS = [("J2", "C(1,1,0)"), ("J2", "C2"), ("C3", "J2"), ("C(-2)", "G2"),
                  ("C(1)", "C(1,1,0)"), ("C2", "C(1)")]


def c_nil_rank(a, b, g, p=None):
    """Closed form: rank 3 iff beta gamma = -2 alpha (alpha != 0)."""
    if p is None:
        return 3 if b * g == -2 * a else 2
    return 3 if (b * g + 2 * a) % p == 0 else 2


def catalog_nil_rank(name, p):
    return RECORDED[name][2][p]


class Op:
    """One timed library call (or CLI child) and the answer it must give.
    ``cls`` is the op class from ``spec.json``, set when the pool is made."""

    __slots__ = ("cls", "call", "check", "expected")

    def __init__(self, call, check, expected):
        self.cls = None
        self.call = call
        self.check = check
        self.expected = expected

    def ok(self, result) -> bool:
        return bool(self.check(result, self.expected))


def corrupt(value):
    """A deliberately wrong expected answer, for checking the checks."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, dict):
        return {**value, "rc": value.get("rc", 0) + 1}
    return ("corrupted", value)


class Workload:
    in_process = True

    def __init__(self, lab, spec, seed, tiny, work_dir):
        self.lab = lab
        self.spec = spec
        self.seed = seed
        self.tiny = tiny
        self.work_dir = work_dir
        self.pools = {}
        order = spec["round"]
        self.counts = {c: order.count(c) for c in order}

    def rng(self, cls, v):
        return random.Random(f"{self.seed}:{cls}:{v}")

    def setup(self):
        for cls in self.counts:
            make = getattr(self, "make_" + cls)
            pool = [make(self.rng(cls, v), v) for v in range(POOL)]
            for op in pool:
                op.cls = cls
            self.pools[cls] = pool

    def warmup(self):
        op = self.pools[self.spec["warmup"]][0]
        op.ok(op.call())

    def round(self, r):
        seen = dict.fromkeys(self.counts, 0)
        ops = []
        for cls in self.spec["round"]:
            v = (r * self.counts[cls] + seen[cls]) % POOL
            seen[cls] += 1
            ops.append(self.pools[cls][v])
        return ops

    def cleanup(self):
        pass


def cert_ok(cert, expected):
    """Verdict as expected, with at least one step and every step passing."""
    steps = cert.steps
    return bool(steps) and all(s.check for s in steps) and cert.verdict == expected


def step_actual(cert, prefix):
    step = next((s for s in cert.steps if s.description.startswith(prefix)), None)
    return None if step is None else step.actual


def envelope_step_ok(cert, expected):
    """prop1: all steps pass, the envelope is exactly (n+1)^2 and, for
    n <= 3, the independent route (exhaustive ideal search over gf 3) found
    no ideal."""
    n = math.isqrt(expected) - 1
    return (
        cert_ok(cert, True)
        and step_actual(cert, "multiplication envelope") == str(expected)
        and (n > 3 or step_actual(cert, "exhaustive ideal search") == "0")
    )


class CertifyGn(Workload):
    """prop1 / prop2 on the literal G_n over QQ, and envelope / simplicity on
    dense isomorphic copies of G_n (a random small-integer basis change)."""

    def _n(self, n):
        return 2 if self.tiny else n

    def _prop1(self, n):
        n = self._n(n)
        lab = self.lab
        return Op(lambda: lab.witness_prop1(n), envelope_step_ok, (n + 1) ** 2)

    def _prop2(self, n):
        n = self._n(n)
        lab = self.lab
        return Op(lambda: lab.witness_prop2(n), cert_ok, True)

    def _dense(self, rng, n):
        n = self._n(n)
        d = n + 1
        while True:
            P = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
            if exact.det(P):
                break
        return self.lab.Algebra(self.lab.QQ, exact.transport(exact.g_n(n), P)), n

    def make_prop1_n2(self, rng, v):
        return self._prop1(2)

    def make_prop1_n3(self, rng, v):
        return self._prop1(3)

    def make_prop1_n4(self, rng, v):
        return self._prop1(4)

    def make_prop2_n2(self, rng, v):
        return self._prop2(2)

    def make_prop2_n3(self, rng, v):
        return self._prop2(3)

    def _envelope(self, rng, n):
        A, n = self._dense(rng, n)
        lab = self.lab
        return Op(lambda: lab.envelope_dimension(A),
                  lambda r, e: r == e, (n + 1) ** 2)

    def _simple(self, rng, n):
        A, n = self._dense(rng, n)
        lab = self.lab
        return Op(lambda: lab.is_simple_closure(A),
                  lambda r, e: r is e, True)

    def make_dense_g2_envelope(self, rng, v):
        return self._envelope(rng, 2)

    def make_dense_g3_envelope(self, rng, v):
        return self._envelope(rng, 3)

    def make_dense_g2_simple(self, rng, v):
        return self._simple(rng, 2)

    def make_dense_g3_simple(self, rng, v):
        return self._simple(rng, 3)


def nil_ok(report, expected):
    """Rank as expected, one witness per rank, each nonzero and squaring to
    zero under the benchmark's own product."""
    if report.rank != expected or len(report.witnesses) != expected:
        return False
    for w in report.witnesses:
        A = w.algebra
        p = A.field.p
        table = [[[c.value for c in cell] for cell in row] for row in A.table]
        coords = [c.value for c in w.coords]
        if not any(coords) or any(exact.mul(table, coords, coords, p)):
            return False
    return True


class SearchFp(Workload):
    """Exhaustive searches over F_p: nil-rank brute force on isotopes, the
    isomorphism scan on positive and negative pairs, the ideal search."""

    def _alg(self, table, p):
        return self.lab.Algebra(self.lab.Field.gf(p), table)

    def _nil_isotope(self, rng, table, p, expected):
        f = exact.random_invertible(rng, len(table), p)
        A = self._alg(exact.isotope(exact.reduce(table, p), f, p), p)
        lab = self.lab
        return Op(lambda: lab.nil_rank_bruteforce(A), nil_ok, expected)

    def make_nil_catalog_iso(self, rng, v):
        base = rng.choice(sorted(exact.CATALOG))
        return self._nil_isotope(rng, exact.CATALOG[base](), 7,
                                 catalog_nil_rank(base, 7))

    def _nil_g(self, rng, n, p):
        n = 2 if self.tiny else n
        return self._nil_isotope(rng, exact.g_n(n), p, n)

    def make_nil_g3_iso(self, rng, v):
        return self._nil_g(rng, 3, 7)

    def make_nil_g4_iso(self, rng, v):
        return self._nil_g(rng, 4, 5)

    def make_nil_g5_iso(self, rng, v):
        return self._nil_g(rng, 5, 5)

    def make_nil_xcheck_C(self, rng, v):
        """Exact closed-form nil-rank against brute force on one C(a, b, g)."""
        p = 7
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        if v % 2:
            g = (-2 * a * pow(b, p - 2, p)) % p
        else:
            g = rng.choice([x for x in range(p) if (b * x + 2 * a) % p])
        lab = self.lab
        F = lab.Field.gf(p)
        A = self._alg(exact.reduce(exact.c_family(a, b, g), p), p)

        def call():
            return (lab.nil_rank_exact_C(F.scalar(a), b, g), lab.nil_rank_bruteforce(A))

        def check(result, expected):
            exact_rep, brute = result
            return exact_rep.rank == expected and nil_ok(brute, expected)

        return Op(call, check, c_nil_rank(a, b, g, p))

    def _ideals(self, table, p, expected, must_contain=None):
        A = self._alg(table, p)
        lab = self.lab

        def check(result, expected):
            bases = {tuple(tuple(c.value for c in e.coords) for e in basis) for basis in result}
            return len(result) == expected and (must_contain is None or must_contain in bases)

        return Op(lambda: lab.ideal_search_exhaustive(A), check, expected)

    def make_ideal_C0(self, rng, v):
        """C(0, b, g): span(x, y) is always an ideal; the lines of span(x, y)
        are ideals too exactly when b = g = 0, so p + 2 ideals, else 2."""
        p = rng.choice((3, 5, 7))
        b, g = rng.randrange(p), rng.randrange(p)
        expected = p + 2 if b == g == 0 else 2
        return self._ideals(exact.reduce(exact.c_family(0, b, g), p), p,
                            expected, must_contain=((0, 1, 0), (0, 0, 1)))

    def _simple_copy(self, rng, n, p):
        """A seeded isomorphic copy of G_n mod p: simple, so no ideals."""
        P = exact.random_invertible(rng, n + 1, p)
        return self._ideals(exact.transport(exact.reduce(exact.g_n(n), p), P, p), p, 0)

    def make_ideal_g2(self, rng, v):
        return self._simple_copy(rng, 2, rng.choice((3, 5, 7)))

    def make_ideal_g3(self, rng, v):
        return self._simple_copy(rng, 2 if self.tiny else 3, 7)

    def make_iso_positive(self, rng, v):
        p = 3
        base = rng.choice(sorted(exact.CATALOG))
        ta = exact.reduce(exact.CATALOG[base](), p)
        tb = exact.transport(ta, exact.random_invertible(rng, 3, p), p)
        A, B = self._alg(ta, p), self._alg(tb, p)
        lab = self.lab

        def check(result, expected):
            if result is None or expected != "found":
                return False
            xi = [[c.value for c in row] for row in result.rows]
            return exact.is_isomorphism(xi, ta, tb, p)

        return Op(lambda: lab.isomorphism_search(A, B), check, "found")

    def make_iso_negative(self, rng, v):
        p = 3
        left, right = NEGATIVE_PAIRS[rng.randrange(len(NEGATIVE_PAIRS))]
        ta = exact.reduce(exact.CATALOG[left](), p)
        tb = exact.transport(exact.reduce(exact.CATALOG[right](), p),
                             exact.random_invertible(rng, 3, p), p)
        A, B = self._alg(ta, p), self._alg(tb, p)
        lab = self.lab
        return Op(lambda: lab.isomorphism_search(A, B),
                  lambda r, e: r is None and e is None, None)


class ChildResult:
    __slots__ = ("rc", "out", "err", "cpu_s", "maxrss_kb", "t_spawn")

    def __init__(self, rc, out, err, cpu_s, maxrss_kb, t_spawn):
        self.rc = rc
        self.out = out
        self.err = err
        self.cpu_s = cpu_s
        self.maxrss_kb = maxrss_kb
        self.t_spawn = t_spawn


def run_child(argv, cwd, env, timeout=120):
    """Run one child to completion with its output in files; return its exit
    code, output and own resource usage (from wait4)."""
    out_path = os.path.join(cwd, ".stdout")
    err_path = os.path.join(cwd, ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        out_text = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        err_text = fh.read()
    return ChildResult(proc.returncode, out_text, err_text,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss, t_spawn)


def field_value(text, key):
    m = re.search(rf"^{re.escape(key)}: (.*)$", text, re.M)
    return m.group(1) if m else None


def cert_text_ok(out):
    """Text certificate: a PASS verdict line whose count matches the ok lines."""
    m = re.search(r"^verdict: PASS \((\d+)/(\d+) checks\)$", out, re.M)
    if not m or m.group(1) != m.group(2) or int(m.group(1)) < 1:
        return False
    return out.count("  [ok  ] ") == int(m.group(1)) and "[FAIL]" not in out


def cert_json_ok(out):
    d = json.loads(out)
    return d["verdict"] is True and len(d["steps"]) >= 1 and all(s["check"] for s in d["steps"])


class CliCatalog(Workload):
    """The command line as a user runs it: one child process at a time, on
    files written from the seed and copies of the shipped algebras."""

    in_process = False

    def __init__(self, lab, spec, seed, tiny, work_dir, root):
        super().__init__(lab, spec, seed, tiny, work_dir)
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        # args -> argv of the child; the traced passes put the shim in front
        self.argv = lambda args: [sys.executable, "-m", "isotopelab.cli", *args]

    def setup(self):
        if os.path.isdir(self.work_dir):
            shutil.rmtree(self.work_dir)
        os.makedirs(self.work_dir)
        for name in SHIPPED:
            shutil.copy(os.path.join(self.root, "algebras", name), self.work_dir)
        super().setup()

    def cleanup(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def write(self, name, text):
        with open(os.path.join(self.work_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return name

    def cli(self, args, check, expected):
        work, env = self.work_dir, self.env
        return Op(lambda: run_child(self.argv(args), work, env), check, expected)

    # -- analyze -------------------------------------------------------------

    def make_analyze_shipped(self, rng, v):
        name = rng.choice(sorted(SHIPPED))
        unit, jordan, rank, method = SHIPPED[name]
        expected = {"rc": 0, "unit": unit, "jordan": jordan, "rank": rank, "method": method}

        def check(r, e):
            nil = field_value(r.out, "nil-rank") or ""
            return (
                r.rc == e["rc"]
                and field_value(r.out, "dim") == "3"
                and field_value(r.out, "commutative") == "yes"
                and field_value(r.out, "unit") == e["unit"]
                and field_value(r.out, "jordan") == e["jordan"]
                and field_value(r.out, "simple (closure criterion)") == "yes  [envelope 9/9]"
                and nil.startswith(f"{e['rank']}  [{e['method']}]")
            )

        return self.cli(["analyze", name], check, expected)

    def _analyze_json(self, fname, expected):
        def check(r, e):
            if r.rc != e["rc"]:
                return False
            d = json.loads(r.out)
            got = {
                "rc": r.rc,
                "field": d["field"],
                "dim": d["dim"],
                "commutative": d["commutative"],
                "unit": d["unit"],
                "jordan": d["jordan"],
                "envelope_dim": d["envelope_dim"],
                "simple_closure": d["simple_closure"],
                "ideal_search": d["ideal_search"],
                "rank": d["nil_rank"]["rank"],
            }
            return all(got[k] == e[k] for k in e)

        return self.cli(["analyze", fname, "--json"], check, expected)

    def make_analyze_dense(self, rng, v):
        """A dense unimodular copy of a catalog algebra over QQ: integral, so
        its nil-rank is taken mod 3 (C(1) is left out: its rank mod 3 differs
        from its exact rank)."""
        base = rng.choice(sorted(set(exact.CATALOG) - {"C(1)"}))
        unital, jordan, ranks = RECORDED[base]
        P = exact.random_unimodular(rng, 3, spread=2)
        table = exact.transport(exact.CATALOG[base](), P)
        fname = self.write(f"dense_{v}.alg", exact.alg_text(table, comment=f"copy of {base}"))
        unit = exact.fmt_vec(exact.vec_mat([1, 0, 0], exact.inverse(P))) if unital else None
        expected = {"rc": 0, "field": "rational", "dim": 3, "commutative": True,
                    "unit": unit, "jordan": "yes" if jordan else "no", "envelope_dim": 9,
                    "simple_closure": True, "rank": ranks[3]}
        return self._analyze_json(fname, expected)

    def make_analyze_gf(self, rng, v):
        p = rng.choice((5, 7))
        base = rng.choice(sorted(exact.CATALOG))
        unital, jordan, ranks = RECORDED[base]
        P = exact.random_invertible(rng, 3, p)
        table = exact.transport(exact.reduce(exact.CATALOG[base](), p), P, p)
        fname = self.write(f"gf_{v}.alg", exact.alg_text(table, p))
        unit = exact.fmt_vec(exact.vec_mat([1, 0, 0], exact.inverse(P, p), p)) if unital else None
        expected = {"rc": 0, "field": f"gf {p}", "dim": 3, "commutative": True, "unit": unit,
                    "jordan": "yes" if jordan else "no", "envelope_dim": 9,
                    "simple_closure": True, "ideal_search": "none found", "rank": ranks[p]}
        return self._analyze_json(fname, expected)

    # -- isotope -o and the analysis of its output ---------------------------

    def _j2_unimodular_element(self, rng):
        """c in J2 with det R_c = l (l^2 - 2ab) = +-1, so R_c^-1 is integral."""
        l = rng.choice((1, -1))
        k = rng.randint(-4, 4)
        a, b = rng.choice([(k, 0), (0, k), (1, 1), (-1, -1)])
        return [l, a, b]

    def make_isotope_write(self, rng, v):
        c = self._j2_unimodular_element(self.rng("j2-isotope", v))
        j2 = exact.c_family(1, 0, 0)
        f = exact.inverse(exact.right_mult(j2, c))
        fmat = self.write(f"f_{v}.mat", exact.mat_text(f))
        out = f"isotope_{v}.alg"
        expected_table = exact.isotope(j2, f)
        work = self.work_dir

        def check(r, e):
            if r.rc != e["rc"] or r.out.strip() != f"wrote {out}":
                return False
            with open(os.path.join(work, out), encoding="utf-8") as fh:
                p, table = exact.parse_alg_text(fh.read())
            return p is None and table == expected_table

        return self.cli(["isotope", "j2.alg", "--f", fmat, "-o", out],
                        check, {"rc": 0})

    def make_analyze_isotope_out(self, rng, v):
        """The R_c^-1 isotope of J2 is unital with unit c^2, simple, nil-rank 2."""
        c = self._j2_unimodular_element(self.rng("j2-isotope", v))
        j2 = exact.c_family(1, 0, 0)
        expected = {"rc": 0, "field": "rational", "dim": 3, "commutative": True,
                    "unit": exact.fmt_vec(exact.mul(j2, c, c)), "envelope_dim": 9,
                    "simple_closure": True, "rank": 2}
        return self._analyze_json(f"isotope_{v}.alg", expected)

    # -- nilrank, rmul, express-rmul -----------------------------------------

    def make_nilrank_gf(self, rng, v):
        p = rng.choice((5, 7))
        base = rng.choice(sorted(exact.CATALOG))
        f = exact.random_invertible(rng, 3, p)
        table = exact.isotope(exact.reduce(exact.CATALOG[base](), p), f, p)
        fname = self.write(f"nil_{v}.alg", exact.alg_text(table, p))

        def check(r, e):
            if r.rc != e["rc"]:
                return False
            d = json.loads(r.out)
            return (d["rank"] == e["rank"] and d["method"] == "bruteforce-fp"
                    and d["closure_caveat"] is True and len(d["witnesses"]) == e["rank"])

        return self.cli(["nilrank", fname, "--json"], check,
                        {"rc": 0, "rank": catalog_nil_rank(base, p)})

    def make_nilrank_cform(self, rng, v):
        a = Fraction(rng.choice([x for x in range(-6, 7) if x]), rng.randint(1, 3))
        b = Fraction(rng.choice([x for x in range(-6, 7) if x]), rng.randint(1, 3))
        g = -2 * a / b if v % 2 else Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        fname = self.write(f"cform_{v}.alg", exact.alg_text(exact.c_family(a, b, g)))

        def check(r, e):
            return r.rc == e["rc"] and r.out.startswith(f"nil-rank: {e['rank']}  [exact-cfamily]\n")

        return self.cli(["nilrank", fname], check,
                        {"rc": 0, "rank": c_nil_rank(a, b, g)})

    def _small_fraction(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    def make_rmul(self, rng, v):
        name = rng.choice(("j2.alg", "c3.alg"))
        table = exact.c_family(1, 0, 0) if name == "j2.alg" else exact.c3()
        c = [self._small_fraction(rng) for _ in range(3)]
        m = exact.right_mult(table, c)
        d = exact.det(m)
        expected = {"rc": 0, "matrix": [[exact.fmt(x) for x in row] for row in m],
                    "determinant": exact.fmt(d), "invertible": d != 0,
                    "element": exact.fmt_vec(c)}

        def check(r, e):
            if r.rc != e["rc"]:
                return False
            got = json.loads(r.out)
            return all(got[k] == e[k] for k in ("matrix", "determinant", "invertible", "element"))

        elem = ",".join(exact.fmt(x) for x in c)
        return self.cli(["rmul", name, f"--elem={elem}", "--json"], check, expected)

    def make_express_rmul(self, rng, v):
        """J2 is unital, so R_g determines g: express-rmul must return g."""
        g = [self._small_fraction(rng) for _ in range(3)]
        fmat = self.write(f"m_{v}.mat", exact.mat_text(exact.right_mult(exact.c_family(1, 0, 0), g)))

        def check(r, e):
            return r.rc == e["rc"] and json.loads(r.out) == {"element": e["element"], "kernel_dim": 0}

        return self.cli(["express-rmul", "j2.alg", "--mat", fmat, "--json"],
                        check, {"rc": 0, "element": exact.fmt_vec(g)})

    # -- witness -------------------------------------------------------------

    def _witness(self, args, v, title):
        as_json = v % 2 == 1

        def check(r, e):
            if r.rc != e["rc"]:
                return False
            if as_json:
                return cert_json_ok(r.out) and json.loads(r.out)["title"] == e["title"]
            return cert_text_ok(r.out) and r.out.startswith(f"certificate: {e['title']}\n")

        return self.cli(["witness", *args] + (["--json"] if as_json else []), check,
                        {"rc": 0, "title": title})

    def _field_args(self, rng):
        p = rng.choice((None, 5, 7, 11, 13))
        return [] if p is None else ["--gf", str(p)]

    def make_witness_lemma1(self, rng, v):
        s, t = (Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 4))
                for _ in range(2))
        return self._witness(["lemma1", f"--sigma={s}", f"--tau={t}"], v,
                             f"lemma1 across the catalog (sigma = {s}, tau = {t})")

    def make_witness_lemma6(self, rng, v):
        return self._witness(["lemma6", *self._field_args(rng)], v,
                             "lemma6: the R_a isotope of C2 is J2")

    def make_witness_lemma10(self, rng, v):
        return self._witness(["lemma10", *self._field_args(rng)], v,
                             "lemma10: C(1,1,0) and C(1,0,0) are isotopic, not isomorphic")

    def make_witness_theorem2(self, rng, v):
        return self._witness(["theorem2", *self._field_args(rng)], v,
                             "theorem2: the R_c^-1 isotope of C3 is C(-2)")

    def make_witness_lemma11(self, rng, v):
        while True:
            rho = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
            if rho not in (0, -2):
                break
        return self._witness(["lemma11", f"--rho={rho}"], v,
                             f"lemma11: C({rho}) is isotopic to J2")

    def make_witness_theorem1(self, rng, v):
        while True:
            a, b, g = (Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))
            if a and (b or g) and b * g != -2 * a:
                break
        return self._witness(["theorem1", f"--abg={a},{b},{g}"], v,
                             f"theorem1: C({a}, {b}, {g}) is isotopic to J2")

    # -- budget guards -------------------------------------------------------

    def _budget(self, args):
        def check(r, e):
            return (r.rc == e["rc"] and not r.out
                    and r.err.startswith("error: search budget exceeded"))

        return self.cli(args, check, {"rc": 2})

    def make_budget_prop1(self, rng, v):
        return self._budget(["witness", "prop1", "--n", str(rng.randint(9, 40))])

    def make_budget_nilrank(self, rng, v):
        """G_n mod p with p^(n+1) above the library's 10^6 enumeration budget."""
        p, n = rng.choice([(5, 8), (5, 9), (7, 7), (7, 8), (11, 5), (11, 6)])
        fname = self.write(f"big_{v}.alg", exact.alg_text(exact.reduce(exact.g_n(n), p), p))
        return self._budget(["nilrank", fname])


WORKLOADS = {"certify-gn": CertifyGn, "search-fp": SearchFp, "cli-catalog": CliCatalog}
