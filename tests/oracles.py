"""Independent brute-force oracles used to pin expected values.

Everything here recomputes results along a different route than the
library: closure by fixpoint iteration instead of dynamic programming,
hardcoded GF(4) tables and polynomial long division instead of generated
tables, and subspace equality by explicit vector enumeration instead of
bilinear shortcuts.
"""

from itertools import combinations, count, product

from sparse_duals.hermitian import (
    compute_wstar,
    hermitian_field,
    hermitian_points,
    isometry_dual_criterion,
)

# GF(4): 0, 1, 2 = a, 3 = a+1 with a^2 = a+1; addition is XOR.
GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)
GF4_INV = (None, 1, 3, 2)


def naive_closure(generators, bound):
    """Members <= bound of the additive closure, by fixpoint iteration."""
    members = {0} | {g for g in generators if g <= bound}
    while True:
        grown = {a + b for a in members for b in members if a + b <= bound}
        if grown <= members:
            return sorted(members)
        members |= grown


def apery_membership(generators):
    """(contains, genus, frobenius) of the semigroup the generators generate,
    from its Apery set with respect to the smallest generator m: entry r,
    the least member congruent to r mod m, is relaxed over every generator
    until no entry falls. n is a member iff n >= entry n mod m; the genus
    is the sum of entry // m (Selmer) and the Frobenius number max - m."""
    m = min(generators)
    apery = [0] + [None] * (m - 1)
    changed = True
    while changed:
        changed = False
        for w in [w for w in apery if w is not None]:
            for a in generators:
                r = (w + a) % m
                if apery[r] is None or w + a < apery[r]:
                    apery[r], changed = w + a, True
    genus = sum(w // m for w in apery)
    return (lambda n: n >= apery[n % m]), genus, max(apery) - m


def apery_set(contains, s):
    """Ap(S, s) = {w in S : w - s not in S}, increasing: the least member of
    each residue class mod s, found by stepping up from the residue by s."""
    out = []
    for r in range(s):
        w = r
        while not contains(w):
            w += s
        out.append(w)
    return tuple(sorted(out))


def naive_gap_pairs(gaps, value):
    gap_set = set(gaps)
    return sum(1 for a in gaps if 2 * a <= value and (value - a) in gap_set)


def naive_divisors(contains, lam):
    """D(lam): every y in 0..lam with y and lam - y both members."""
    return tuple(y for y in range(lam + 1) if contains(y) and contains(lam - y))


def naive_leaders(contains, gaps, bound):
    """Non-zero members lam <= bound with no pair of gaps summing to lam."""
    return tuple(
        lam for lam in range(1, bound + 1)
        if contains(lam) and naive_gap_pairs(gaps, lam) == 0
    )


def naive_first_escape(contains, generators, complement):
    """First (t, a), in complement then generator order, with t - a a member
    outside the complement; None if there is none."""
    for t in complement:
        for a in generators:
            if contains(t - a) and (t - a) not in complement:
                return t, a
    return None


def is_division_closed(contains, complement):
    """Ideal test: complement closed under subtracting semigroup elements."""
    comp = set(complement)
    for t in comp:
        for s in range(1, t + 1):
            if contains(s) and contains(t - s) and (t - s) not in comp:
                return False
    return True


def naive_ideal_complements(contains, elements, max_size):
    """All division-closed complements from `elements`, by raw subset scan."""
    found = set()
    for size in range(1, max_size + 1):
        for combo in combinations(elements, size):
            if 0 in combo and is_division_closed(contains, combo):
                found.add(frozenset(combo))
    return found


def _digits(value, p):
    out = []
    while value:
        out.append(value % p)
        value //= p
    return out


def digitwise_add(a, b, p):
    """a + b on integer encodings: their base-p digits added one by one
    mod p, with no carry."""
    total, weight = 0, 1
    while a or b:
        total += (a % p + b % p) % p * weight
        a, b, weight = a // p, b // p, weight * p
    return total


def poly_field_mul(a, b, p, modulus):
    """a * b on integer encodings, by schoolbook product and long division
    modulo the monic `modulus` (coefficients, constant term first)."""
    da, db = _digits(a, p), _digits(b, p)
    prod = [0] * (len(da) + len(db))
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    m = len(modulus) - 1
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i]
        if c:
            for j, f in enumerate(modulus):
                prod[i - m + j] = (prod[i - m + j] - c * f) % p
    return sum(c * p**i for i, c in enumerate(prod[:m]))


# -- GF(4) linear algebra for the q=2 Hermitian checks --


def _gf4_pow(v, e):
    r = 1
    for _ in range(e):
        r = GF4_MUL[r][v]
    return r


def naive_wstar_q2(coords):
    """Rank-jump pole orders for q=2 point coordinate pairs."""
    n = len(coords)
    echelon = []
    jumps = []
    m = 0
    while len(jumps) < n:
        b = m % 2
        rest = m - 3 * b
        if rest >= 0:
            a = rest // 2
            row = [GF4_MUL[_gf4_pow(x, a)][_gf4_pow(y, b)] for (x, y) in coords]
            for piv, erow in echelon:
                f = row[piv]
                if f:
                    row = [v ^ GF4_MUL[f][w] for v, w in zip(row, erow)]
            piv = next((k for k, v in enumerate(row) if v), None)
            if piv is not None:
                scale = GF4_INV[row[piv]]
                echelon.append((piv, [GF4_MUL[scale][v] for v in row]))
                jumps.append(m)
        m += 1
        assert m <= 64, "runaway rank computation"
    return jumps


# -- from-scratch W* over any Hermitian field --


def naive_curve_coords(q):
    """Every (x, y) with x^(q+1) = y^q + y, by scanning all q^4 pairs."""
    field = hermitian_field(q)
    return [
        (x, y)
        for x in range(field.q)
        for y in range(field.q)
        if field.pow(x, q + 1) == field.add(field.pow(y, q), y)
    ]


def secant_lines(q):
    """The points of every line y = ax + b over GF(q^2) that meets the
    curve in q + 1 distinct points, as tuples of (x, y) encodings, by
    testing each x on each line against `naive_curve_coords`. The other
    lines are tangent, meeting the curve in one point."""
    field = hermitian_field(q)
    on_curve = set(naive_curve_coords(q))
    lines = []
    for a in range(field.q):
        for b in range(field.q):
            line = [(x, field.add(field.mul(a, x), b)) for x in range(field.q)]
            meets = tuple(pt for pt in line if pt in on_curve)
            if len(meets) == q + 1:
                lines.append(meets)
    return lines


def complement_wstar(wstar, q, zone_size):
    """W*(Z \\ P) from wstar = W*(P), for P inside a point set Z of
    `zone_size` points that is all q^3 points or a union of whole x-fibres.

    Such a Z is the zero set of one function f of pole order #Z, with
    simple zeros (the product of x - alpha over its fibres). With
    N = #Z + 2g - 1, the residue theorem for h * dx / f makes the code of
    L(m P_inf) on Z \\ P dual to the functions of pole order <= N - 1 - m
    that vanish on P, and counting dimensions, H being symmetric, gives
    W*(Z \\ P) = {m in H : N - m in H \\ W*(P)}. Membership in
    H = <q, q+1> is read off m = a q + b (q + 1), b = m mod q: m is in H
    iff m // q >= m % q. Nothing here walks a point.
    """
    top, held = zone_size + q * (q - 1) - 1, set(wstar)  # 2g = q(q - 1)

    def in_h(m):
        return m >= 0 and m // q >= m % q

    return tuple(m for m in range(top + 1)
                 if in_h(m) and in_h(top - m) and top - m not in held)


def _monomial_row(points, a, b, field):
    """x^a y^b at each point, by `field.pow` and `field.mul`."""
    return tuple(field.mul(field.pow(pt.x.value, a), field.pow(pt.y.value, b)) for pt in points)


def naive_wstar(points, q):
    """W* and generator rows by Gaussian elimination of the monomial rows.

    Evaluates x^a y^b in increasing pole order m = aq + b(q+1) at the
    points and keeps the rows that grow the rank, until it reaches n:
    O(n^3), the reference for the library's point-by-point update. Each m
    has one b < q with b(q+1) = m mod q, namely b = m mod q, and is a pole
    order when m - b(q+1) >= 0.
    """
    n = len(points)
    field = hermitian_field(q)
    echelon, wstar, rows = [], [], []
    for m in count():
        b = m % q
        if m < b * (q + 1):
            continue
        row = _monomial_row(points, (m - b * (q + 1)) // q, b, field)
        before = len(echelon)
        _rref([row], n, field, echelon)
        if len(echelon) > before:
            wstar.append(m)
            rows.append(row)
        if len(echelon) == n:
            return tuple(wstar), tuple(rows)


def generator_rows(cs):
    """The n generator rows of `cs`, built independently: for each pole order w
    in W*, the monomial x^a y^b with b = w mod q and a = (w - b(q+1)) / q
    evaluated at the points of `cs`, as integer encodings."""
    q, field, rows = cs.q, cs.points[0].x.field, []
    for w in cs.wstar:
        b = w % q
        rows.append(_monomial_row(cs.points, (w - b * (q + 1)) // q, b, field))
    return tuple(rows)


def naive_zero_set_relations(q, points):
    """Bitmasks of the zero sets of the monic f with pole order k <= 2q
    that have exactly k zeros among the points, by evaluating every f: each
    monomial of pole order <= 2q as leading term, with every choice of all
    lower coefficients, constant term included."""
    field = hermitian_field(q)
    monomials = []  # (a, b, pole order)
    for m in range(2 * q + 1):
        b = m % q
        if m >= b * (q + 1):
            monomials.append(((m - b * (q + 1)) // q, b, m))
    values = [
        [field.mul(field.pow(pt.x.value, a), field.pow(pt.y.value, b)) for pt in points]
        for a, b, _ in monomials
    ]
    relations = []
    for k in range(1, len(monomials)):
        for coeffs in product(range(field.q), repeat=k):
            f = values[k]
            for c, lower in zip(coeffs, values):
                f = [field.add(v, field.mul(c, w)) for v, w in zip(f, lower)]
            zeros = [i for i, v in enumerate(f) if v == 0]
            if len(zeros) == monomials[k][2]:
                relations.append(sum(1 << i for i in zeros))
    return relations


# -- literal isometry-dual verification over any field of the package --


def _rref(rows, n, field, ech=None):
    ech = [] if ech is None else ech
    for row in rows:
        r = list(row)
        for piv, erow in ech:
            if r[piv]:
                f = field.neg(r[piv])
                r = [field.add(v, field.mul(f, w)) for v, w in zip(r, erow)]
        piv = next((k for k, v in enumerate(r) if v), None)
        if piv is not None:
            scale = field.inv(r[piv])
            ech.append((piv, [field.mul(scale, v) for v in r]))
    return ech


def nullspace(rows, n, field):
    ech = sorted(_rref(rows, n, field))
    for i in range(len(ech)):
        piv, row = ech[i]
        for j in range(i):
            pj, rj = ech[j]
            if rj[piv]:
                f = field.neg(rj[piv])
                ech[j] = (pj, [field.add(v, field.mul(f, w)) for v, w in zip(rj, row)])
    pivots = [p for p, _ in ech]
    basis = []
    for free in (k for k in range(n) if k not in pivots):
        v = [0] * n
        v[free] = 1
        for p, row in ech:
            v[p] = field.neg(row[free])
        basis.append(v)
    return basis


def span_vectors(rows, n, field):
    """Every vector in the row span (exponential; small inputs only)."""
    vectors = {(0,) * n}
    for row in rows:
        additions = set()
        for c in range(field.q):
            scaled = tuple(field.mul(c, v) for v in row)
            for w in vectors:
                additions.add(tuple(field.add(a, b) for a, b in zip(w, scaled)))
        vectors |= additions
    return vectors


def literal_isometry_check(cs, x_values):
    """Check x * C^i == dual(C^(n-i)) for every i by full vector enumeration."""
    n, field = cs.n, cs.points[0].x.field
    rows = generator_rows(cs)
    for i in range(n + 1):
        twisted = [
            [field.mul(x_values[k], row[k]) for k in range(n)] for row in rows[:i]
        ]
        dual = nullspace(rows[: n - i], n, field)
        if span_vectors(twisted, n, field) != span_vectors(dual, n, field):
            return False
    return True


# -- qualifying subsets by sweeping every subset through W* --


def wstar_qualifies(q, points, subset):
    """The criterion on W* of the points at the 1-based indices, from their
    own `compute_wstar`."""
    return isometry_dual_criterion(compute_wstar([points[i - 1] for i in subset], q).wstar, q)


def naive_qualifying_subsets(q, min_size):
    """Subsets with at least `min_size` points that meet the criterion,
    by running W* on every subset, cardinality descending then
    lexicographic: the sweep the divisor-class listing replaced."""
    points = hermitian_points(q)
    n = len(points)
    return [
        combo
        for size in range(n, min_size - 1, -1)
        for combo in combinations(range(1, n + 1), size)
        if wstar_qualifies(q, points, combo)
    ]


def naive_covering_edges(subsets):
    """(child, parent) index pairs with child < parent as frozensets and no
    subset strictly between, in index order."""
    sets = [frozenset(s) for s in subsets]
    return tuple(
        (ci, pi)
        for ci, child in enumerate(sets)
        for pi, parent in enumerate(sets)
        if child < parent and not any(child < mid < parent for mid in sets)
    )


def naive_inclusion_pairs(subsets, boundary):
    """(child, parent) subset pairs with child < parent, in index order:
    those with #child > boundary, and those with #child == boundary."""
    pairs = [(c, p) for c in subsets for p in subsets if frozenset(c) < frozenset(p)]
    return (
        tuple((c, p) for c, p in pairs if len(c) > boundary),
        tuple((c, p) for c, p in pairs if len(c) == boundary),
    )


# -- the isometry vector by row echelon on the generator rows --


def _echelon_insert(row, echelon, field):
    """Reduce `row` against normalized echelon rows (pivot entries are 1)
    and append the result, normalized, unless it is zero. Each appended row
    is zero at the pivots of the rows before it. Returns whether the rank grew."""
    mul, add = field.mul_table, field.add_table
    r = list(row)
    for piv, erow in echelon:
        if r[piv]:
            f = field.neg(r[piv])
            r = [add[v][mul[f][w]] for v, w in zip(r, erow)]
    piv = next((k for k, v in enumerate(r) if v), None)
    if piv is None:
        return False
    scale = field.inv_table[r[piv]]
    echelon.append((piv, [mul[scale][v] for v in r]))
    return True


def _dot(u, v, field):
    mul, add = field.mul_table, field.add_table
    acc = 0
    for a, b in zip(u, v):
        acc = add[acc][mul[a][b]]
    return acc


def naive_isometry_vector(cs):
    """The isometry vector of `cs` with x_1 = 1, or None, from scratch: the
    nullspace vector of the first n - 1 generator rows by row echelon and
    back-substitution, then every bilinear condition
    sum_k x_k r_a[k] r_b[k] = 0 with a + b <= n (1-based) as a dot product."""
    n, field = cs.n, cs.points[0].x.field
    mul, inv = field.mul_table, field.inv_table
    rows = generator_rows(cs)
    echelon = []
    for row in rows[: n - 1]:
        _echelon_insert(row, echelon, field)
    # n - 1 pivots in n columns leave one free column. Each echelon row is
    # zero at the pivots of the rows before it, so solving the rows last to
    # first reads only entries of x that are already set.
    pivots = {piv for piv, _ in echelon}
    x = [0] * n
    x[next(k for k in range(n) if k not in pivots)] = 1
    for piv, erow in reversed(echelon):
        x[piv] = field.neg(_dot(erow, x, field))
    if 0 in x:
        return None
    scale = inv[x[0]]
    x = [mul[scale][v] for v in x]
    for a in range(1, n):
        xa = [mul[v][w] for v, w in zip(x, rows[a - 1])]
        if any(_dot(xa, rb, field) for rb in rows[: n - a]):
            return None
    return tuple(x)


def naive_trie_walk(keys):
    """The advances and finishes a walk over the trie of `keys` (tuples of
    1-based indices) must make, read off the set of all their prefixes: a
    list of (state, js, alone), one per edge, and a dict key -> state at
    its end, where a state is the tuple of 0-based points added from the
    root. The walk stops at the root, at each key and at each prefix with
    more than one child; an edge runs from one stop to the next below it,
    and is alone when one key alone lies below its end."""
    keys = set(keys)
    prefixes = {k[:d] for k in keys for d in range(len(k) + 1)}
    children = {p: 0 for p in prefixes}
    for p in prefixes - {()}:
        children[p[:-1]] += 1
    stops = {p for p in prefixes if p in keys or children[p] > 1} | {()}

    def zero_based(indices):
        return tuple(i - 1 for i in indices)

    advances = []
    for stop in stops - {()}:
        parent = max((stop[:d] for d in range(len(stop)) if stop[:d] in stops), key=len)
        below = sum(k[:len(stop)] == stop for k in keys)
        advances.append((zero_based(parent), zero_based(stop[len(parent):]), below == 1))
    return advances, {k: zero_based(k) for k in keys}
