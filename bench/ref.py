"""Reference answers and certificate checks for the lp-lab benchmark.

Everything here is written from the definitions, with no import of lp_lab,
so that a bug in a library oracle cannot hide in the checker that judges it.
A model is a tuple of rows of ``Fraction`` (one row per parameter value) and
a pair is ``(probs, observed_index)``.

The one-step C oracle uses the multiset characterisation: conditioning a
parent P on a block B that holds its observed point gives a copy of the
child Q exactly when some m > 0 has col_P(x_obs) = m * col_Q(y_obs) and the
multiset {m * col_Q(y)} fits inside the columns of P. Such a B has mass m
under every parameter, so {B, X \\ B} is an ancillary partition. The Durbin
variant also needs B to be a union of whole likelihood classes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction


def fmt(value: Fraction) -> str:
    """Lowest-terms rational text, as in the file format."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_probs(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(str(v)) for v in row) for row in rows)


def columns(probs) -> list[tuple[Fraction, ...]]:
    return [tuple(row[x] for row in probs) for x in range(len(probs[0]))]


def direction(col) -> tuple[Fraction, ...]:
    """Scale a column so its first nonzero entry is 1."""
    for a in col:
        if a != 0:
            return tuple(v / a for v in col)
    return tuple(col)


def ratio(v1, v2) -> Fraction | None:
    """Positive c with v1 = c * v2 entrywise, or None."""
    c = None
    for a, b in zip(v1, v2):
        if (a == 0) != (b == 0):
            return None
        if a != 0:
            if c is None:
                c = a / b
            elif a != c * b:
                return None
    return c


def pair_key(pair):
    """Isomorphism invariant of a pair: sorted columns and observed column."""
    probs, obs = pair
    cols = columns(probs)
    return tuple(sorted(cols)), cols[obs]


def mss_classes(probs) -> list[list[int]]:
    """Likelihood (minimal sufficient) classes, by first point."""
    groups: dict = {}
    for x, col in enumerate(columns(probs)):
        groups.setdefault(direction(col), []).append(x)
    return list(groups.values())


def class_sums(probs) -> list[tuple[list[int], tuple[Fraction, ...]]]:
    """Each likelihood class with its summed column (the MSS quotient)."""
    cols = columns(probs)
    return [
        (cls, tuple(map(sum, zip(*(cols[x] for x in cls)))))
        for cls in mss_classes(probs)
    ]


def s_key(pair):
    """Invariant deciding S: the isomorphism class of the MSS quotient."""
    probs, obs = pair
    sums = class_sums(probs)
    return tuple(sorted(t for _, t in sums)), next(t for c, t in sums if obs in c)


def s_related(p1, p2) -> bool:
    return s_key(p1) == s_key(p2)


def l_ratio(p1, p2) -> Fraction | None:
    return ratio(columns(p1[0])[p1[1]], columns(p2[0])[p2[1]])


def _c_one_way(parent, child, durbin: bool) -> bool:
    cp, cq = columns(parent[0]), columns(child[0])
    if len(cq) > len(cp):
        return False
    m = ratio(cp[parent[1]], cq[child[1]])
    if m is None:
        return False
    need = Counter(tuple(m * v for v in col) for col in cq)
    have = Counter(cp)
    if any(have[col] < k for col, k in need.items()):
        return False
    if durbin:
        touched = {direction(col) for col in need}
        return all(
            need[col] == k for col, k in have.items() if direction(col) in touched
        )
    return True


def c_related(p1, p2, durbin: bool = False) -> bool:
    """One conditioning step in either direction, up to isomorphism."""
    return _c_one_way(p1, p2, durbin) or _c_one_way(p2, p1, durbin)


def closure_classes(pairs, kind: str) -> list[list[int]]:
    """Connected components of the one-step relation, sorted by first index."""
    n = len(pairs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    if kind in ("S", "L"):
        key = s_key if kind == "S" else (lambda p: direction(columns(p[0])[p[1]]))
        first: dict = {}
        for i, p in enumerate(pairs):
            parent[i] = find(first.setdefault(key(p), i))
    else:
        skeys = [s_key(p) for p in pairs] if kind == "SC" else None
        durbin = kind == "DURBIN"
        for i, j in itertools.combinations(range(n), 2):
            if find(i) == find(j):
                continue
            if (skeys and skeys[i] == skeys[j]) or c_related(pairs[i], pairs[j], durbin):
                parent[find(i)] = find(j)
    groups: dict = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


# ---------------------------------------------------------------------------
# Ancillary catalog by exact cover over balanced blocks


def balance_test(probs):
    """A test of whether a block of points has parameter-free mass.

    With D the common denominator, d(x) = D * (f_theta(x) - f_theta1(x)) over
    theta is an integer vector, and a block is balanced iff its d sum to 0.
    """
    den = math.lcm(*(v.denominator for row in probs for v in row))
    d = [tuple(int((row[x] - probs[0][x]) * den) for row in probs[1:]) for x in range(len(probs[0]))]
    zero = tuple(0 for _ in d[0])
    return lambda block: tuple(map(sum, zip(*(d[x] for x in block)))) == zero


def ancillary_partitions(probs) -> list[frozenset]:
    """Every partition whose blocks all have parameter-free mass, found as
    exact covers by balanced blocks.

    A partition is a frozenset of frozensets of point indices.
    """
    balanced = balance_test(probs)
    out = []

    def cover(rest: tuple, blocks: list):
        if not rest:
            out.append(frozenset(blocks))
            return
        head, tail = rest[0], rest[1:]
        for k in range(len(tail) + 1):
            for others in itertools.combinations(tail, k):
                block = (head,) + others
                if balanced(block):
                    left = tuple(x for x in tail if x not in others)
                    cover(left, blocks + [frozenset(block)])

    cover(tuple(range(len(probs[0]))), [])
    return out


def _refines(fine: frozenset, coarse: frozenset) -> bool:
    return all(any(b <= c for c in coarse) for b in fine)


def ancillary_catalog(probs):
    """(all, maximal, laminal or None, antichain or None), as partitions.

    Maximal ancillaries are the covers by minimal balanced blocks: a block
    holding a balanced proper subset splits into two balanced blocks. The
    laminal ancillary is the finest ancillary coarsened from every maximal
    one; when none is finest, the finest candidates form the antichain.
    """
    balanced = balance_test(probs)

    def minimal(block):
        items = sorted(block)
        return not any(
            balanced(sub) for k in range(1, len(items)) for sub in itertools.combinations(items, k)
        )

    everything = ancillary_partitions(probs)
    minimal_cache: dict = {}
    maximal = [
        p
        for p in everything
        if all(minimal_cache.setdefault(b, minimal(b)) for b in p)
    ]
    candidates = [a for a in everything if all(_refines(m, a) for m in maximal)]
    # the finest candidate, if any, is the common refinement of all of them
    groups: dict = {}
    for x in range(len(probs[0])):
        label = tuple(next(b for b in a if x in b) for a in candidates)
        groups.setdefault(label, set()).add(x)
    meet = frozenset(frozenset(g) for g in groups.values())
    if meet in candidates:
        return everything, maximal, meet, None
    antichain = [
        a for a in candidates if not any(b != a and _refines(b, a) for b in candidates)
    ]
    return everything, maximal, None, antichain


def partition_labels(partition, labels) -> list[list[str]]:
    """Canonical label form: each block sorted, blocks sorted."""
    return sorted(sorted(labels[x] for x in block) for block in partition)


# ---------------------------------------------------------------------------
# Certificate checks


def check_c_certificate(first, second, parent_side, blocks, conditional, bijection, durbin=False) -> bool:
    """Re-check a conditioning certificate from plain data.

    ``blocks`` is the ancillary as index lists over the parent's points,
    ``conditional`` the claimed conditional pair and ``bijection`` the map
    from its points onto the child's. Block masses and conditional columns
    are recomputed here from the parent's rationals.
    """
    parent, child = (first, second) if parent_side == "first" else (second, first)
    probs, obs = parent
    n = len(probs[0])
    flat = sorted(x for b in blocks for x in b)
    if flat != list(range(n)) or any(not b for b in blocks):
        return False
    for b in blocks:
        masses = {sum(row[x] for x in b) for row in probs}
        if len(masses) != 1:
            return False
        if obs in b:
            block, mass = sorted(b), masses.pop()
    expected = tuple(tuple(row[x] / mass for x in block) for row in probs)
    if conditional != (expected, block.index(obs)):
        return False
    if durbin:
        if not all(any(set(cls) <= set(b) for b in blocks) for cls in mss_classes(probs)):
            return False
    cond_cols = columns(conditional[0])
    child_cols = columns(child[0])
    if sorted(bijection) != list(range(len(child_cols))) or len(bijection) != len(cond_cols):
        return False
    if bijection[conditional[1]] != child[1]:
        return False
    return all(cond_cols[x] == child_cols[bijection[x]] for x in range(len(cond_cols)))


def mixture(p1, p2, w1: Fraction, w2: Fraction, observed_in_second: bool):
    """The weighted mixture of two models on the disjoint union of spaces."""
    rows = tuple(
        tuple(w1 * v for v in r1) + tuple(w2 * v for v in r2)
        for r1, r2 in zip(p1[0], p2[0])
    )
    obs = len(p1[0][0]) + p2[1] if observed_in_second else p1[1]
    return rows, obs


def durbin_chain_expectation(p1, p2):
    """(indicator is MSS-measurable, first Durbin step, last Durbin step)."""
    half = Fraction(1, 2)
    e1 = mixture(p1, p2, half, half, False)
    e2 = mixture(p1, p2, half, half, True)
    n1 = len(p1[0][0])
    admissible = all(
        all(x < n1 for x in cls) or all(x >= n1 for x in cls)
        for cls in mss_classes(e1[0])
    )
    return admissible, c_related(p1, e1, durbin=True), c_related(e2, p2, durbin=True)


# ---------------------------------------------------------------------------
# Evidence


def theta_free_factors(pair) -> list[Fraction]:
    """h(x) = f(x) / g(class of x), taken at any parameter with g > 0."""
    probs, _ = pair
    cols = columns(probs)
    out = [None] * len(cols)
    for cls, total in class_sums(probs):
        t = next(i for i, g in enumerate(total) if g != 0)
        for x in cls:
            out[x] = cols[x][t] / total[t]
    return out


def posterior(pair, weights) -> tuple[Fraction, list[Fraction]]:
    """(prior predictive at the data, posterior)."""
    probs, obs = pair
    joint = [w * row[obs] for w, row in zip(weights, probs)]
    m = sum(joint)
    return m, [j / m for j in joint]


def evidence_summary(pair, weights, thetas, hypotheses=()) -> dict:
    m, post = posterior(pair, weights)
    rb = [p / w for p, w in zip(post, weights)]
    best = max(rb)

    def strength(i):
        return sum((p for p, r in zip(post, rb) if r <= rb[i]), Fraction(0))

    records = []
    for hypothesis in hypotheses:
        idx = sorted({thetas.index(h) for h in hypothesis})
        p_a = sum(weights[i] for i in idx)
        q_a = sum(post[i] for i in idx)
        proper = 0 < len(idx) < len(thetas)
        bf = None if not proper or q_a == 1 else (q_a / (1 - q_a)) / (p_a / (1 - p_a))
        records.append([
            [thetas[i] for i in idx], fmt(p_a), fmt(q_a),
            None if bf is None else fmt(bf),
            "for" if q_a > p_a else "against" if q_a < p_a else "neutral",
            fmt(strength(idx[0])) if len(idx) == 1 else None,
        ])
    return {
        "m": fmt(m),
        "posterior": [fmt(p) for p in post],
        "rb": [fmt(r) for r in rb],
        "estimate": sorted(t for t, r in zip(thetas, rb) if r == best),
        "hypotheses": records,
        "strength": {t: fmt(strength(i)) for i, t in enumerate(thetas)},
    }


def check_model_mss(pair) -> Fraction:
    """Tail probability of the data within its minimal sufficient class."""
    probs, obs = pair
    h = theta_free_factors(pair)
    cls = next(c for c in mss_classes(probs) if obs in c)
    return sum((h[x] for x in cls if h[x] <= h[obs]), Fraction(0))


def check_prior_conflict(pair, weights) -> Fraction:
    """Tail probability of the prior predictive of the MSS at the data."""
    probs, obs = pair
    masses = [(cls, sum(w * g for w, g in zip(weights, total))) for cls, total in class_sums(probs)]
    observed = next(m for cls, m in masses if obs in cls)
    return sum((m for _, m in masses if m <= observed), Fraction(0))
