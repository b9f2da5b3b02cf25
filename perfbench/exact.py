"""The benchmark's own exact arithmetic, independent of isotopelab.

Inputs are generated and answers are re-checked with this code, so that a
defect in the library cannot produce inputs and expected values that agree
with each other.  Tables are nested lists ``t[i][j][k]`` with
``e_i e_j = sum_k t[i][j][k] e_k``; vectors are rows and matrices act from
the right, as in the library.  ``p`` is None for the rationals (entries are
``Fraction``) or an odd prime (entries are residues in ``[0, p)``).
"""

from __future__ import annotations

from fractions import Fraction


def norm(v, p):
    return Fraction(v) if p is None else v % p


def inv_scalar(v, p):
    return 1 / Fraction(v) if p is None else pow(v, p - 2, p)


def det(m, p=None) -> object:
    rows = [[norm(v, p) for v in row] for row in m]
    n = len(rows)
    acc = norm(1, p)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return norm(0, p)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            acc = norm(-acc, p)
        inv = inv_scalar(rows[col][col], p)
        acc = norm(acc * rows[col][col], p)
        for r in range(col + 1, n):
            f = norm(rows[r][col] * inv, p)
            if f:
                rows[r] = [norm(a - f * b, p) for a, b in zip(rows[r], rows[col])]
    return acc


def inverse(m, p=None):
    n = len(m)
    aug = [[norm(v, p) for v in row] + [norm(int(i == j), p) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = inv_scalar(aug[col][col], p)
        aug[col] = [norm(v * inv, p) for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [norm(a - f * b, p) for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def vec_mat(v, m, p=None):
    n = len(m[0])
    return [norm(sum(v[t] * m[t][k] for t in range(len(v))), p) for k in range(n)]


def mat_mul(a, b, p=None):
    return [vec_mat(row, b, p) for row in a]


def mul(table, u, v, p=None):
    """Product of two coordinate vectors."""
    n = len(table)
    out = [0] * n
    for i in range(n):
        if not u[i]:
            continue
        for j in range(n):
            if not v[j]:
                continue
            c = u[i] * v[j]
            for k, t in enumerate(table[i][j]):
                if t:
                    out[k] += c * t
    return [norm(x, p) for x in out]


def transport(table, P, p=None):
    """Structure constants in the basis f_i = row i of P (an isomorphic copy)."""
    Pi = inverse(P, p)
    n = len(table)
    return [[vec_mat(mul(table, P[i], P[j], p), Pi, p) for j in range(n)] for i in range(n)]


def isotope(table, f, p=None):
    """Standard isotope A^(f, f): e_i * e_j = (e_i f)(e_j f)."""
    n = len(table)
    return [[mul(table, f[i], f[j], p) for j in range(n)] for i in range(n)]


def right_mult(table, c, p=None):
    """Matrix of x -> x c; row i is e_i c."""
    n = len(table)
    return [mul(table, [int(k == i) for k in range(n)], c, p) for i in range(n)]


def is_isomorphism(xi, ta, tb, p=None) -> bool:
    """Whether e_i -> row i of xi is an invertible multiplicative map A -> B."""
    if not det(xi, p):
        return False
    n = len(ta)
    return all(
        vec_mat(ta[i][j], xi, p) == mul(tb, xi[i], xi[j], p)
        for i in range(n)
        for j in range(n)
    )


def random_invertible(rng, n, p):
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if det(m, p):
            return m


def random_unimodular(rng, n, spread=1):
    """Dense integer matrix with determinant +-1 and small entries: a random
    unit lower times unit upper triangular matrix, rows permuted."""
    low = [[rng.randint(-spread, spread) if j < i else int(i == j) for j in range(n)]
           for i in range(n)]
    up = [[rng.randint(-spread, spread) if j > i else int(i == j) for j in range(n)]
          for i in range(n)]
    m = mat_mul(low, up, None)
    rng.shuffle(m)
    return [[int(v) for v in row] for row in m]


def zero_table(n):
    return [[[0] * n for _ in range(n)] for _ in range(n)]


def symmetric(n, products):
    """Commutative table from {(i, j): vector} given for i <= j."""
    t = zero_table(n)
    for (i, j), vec in products.items():
        t[i][j] = list(vec)
        t[j][i] = list(vec)
    return t


def c_family(a, b, g):
    """<1, x, y | x^2 = y^2 = 0, xy = a 1 + b x + g y>."""
    return symmetric(3, {(0, 0): [1, 0, 0], (0, 1): [0, 1, 0], (0, 2): [0, 0, 1],
                         (1, 2): [a, b, g]})


def c2():
    return symmetric(3, {(0, 0): [0, 1, 0], (0, 1): [1, 0, 0], (0, 2): [0, 0, 1],
                         (1, 2): [0, 1, 0]})


def c3():
    return symmetric(3, {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): [0, 1, 0]})


def g_n(n):
    """x_1 .. x_n span a zero subalgebra, e^2 = e, x_1 e = e + x_2,
    x_i e = x_i + x_{i+1}, x_n e = x_n + x_1."""
    d = n + 1

    def vec(*idx):
        v = [0] * d
        for i in idx:
            v[i] += 1
        return v

    prods = {(n, n): vec(n), (0, n): vec(n, 1), (n - 1, n): vec(n - 1, 0)}
    for i in range(1, n - 1):
        prods[(i, n)] = vec(i, i + 1)
    return symmetric(d, prods)


CATALOG = {
    "J2": lambda: c_family(1, 0, 0),
    "C2": c2,
    "C3": c3,
    "C(-2)": lambda: c_family(-2, -2, -2),
    "C(1)": lambda: c_family(1, 1, 1),
    "C(1,1,0)": lambda: c_family(1, 1, 0),
    "G2": lambda: g_n(2),
}


def reduce(table, p):
    return [[[norm(v, p) for v in cell] for cell in row] for row in table]


def fmt(v) -> str:
    return str(Fraction(v)) if not isinstance(v, int) else str(v)


def fmt_vec(vec) -> str:
    """Rendering of a coordinate vector, as the library prints elements."""
    return "(" + ", ".join(fmt(v) for v in vec) + ")"


def alg_text(table, p=None, comment=None) -> str:
    """The algebra file format: field, dim, and 1-based ``c i j k value`` lines."""
    n = len(table)
    lines = [f"# {comment}"] if comment else []
    lines.append("field rational" if p is None else f"field gf {p}")
    lines.append(f"dim {n}")
    for i in range(n):
        for j in range(n):
            for k, v in enumerate(table[i][j]):
                if v:
                    lines.append(f"c {i + 1} {j + 1} {k + 1} {fmt(v)}")
    return "\n".join(lines) + "\n"


def parse_alg_text(text):
    """(p, table) from the algebra file format; names lines are ignored."""
    p = None
    n = None
    entries = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if not line:
            continue
        if line[0] == "field":
            p = None if line[1] == "rational" else int(line[2])
        elif line[0] == "dim":
            n = int(line[1])
        elif line[0] == "c":
            i, j, k = (int(t) - 1 for t in line[1:4])
            entries[(i, j, k)] = Fraction(line[4])
    table = zero_table(n)
    for (i, j, k), v in entries.items():
        table[i][j][k] = norm(v, p) if p is None else int(v) % p
    return p, table


def mat_text(m) -> str:
    return "\n".join(" ".join(fmt(v) for v in row) for row in m) + "\n"
