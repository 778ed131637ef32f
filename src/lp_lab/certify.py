"""Independent re-checks of relation certificates, in exact integers.

Each check reads the certificate's fields and, of each model, only its
integer form: ``den`` and ``rows``. It calls no oracle and reads neither
the models' ``(g, k)`` likelihood decomposition nor their ``Fraction``
entries, so a fault in those, or in an oracle, cannot pass its own
certificate. Within one model every entry is over ``den``, so equal
integer sums are equal masses; entries of two models are compared by
cross-multiplying with both ``den``. Certificates are read by their
fields, so this module imports no oracle module.
"""

from __future__ import annotations

from fractions import Fraction

from .model import FiniteModel, ModelDataPair
from .partition import Partition


def _columns(model: FiniteModel) -> list[tuple[int, ...]]:
    """den * f(x) across the parameter space, for each sample point x."""
    return list(zip(*model.rows))


def _proportional(u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """True iff v = c * u for some c > 0, zero patterns included.

    With u[i] the first nonzero entry of u, that holds iff v[i] > 0 and
    u[j] * v[i] == v[j] * u[i] for every j. A zero column is proportional
    only to a zero column.
    """
    for i, a in enumerate(u):
        if a:
            b = v[i]
            return b > 0 and all(x * b == y * a for x, y in zip(u, v))
    return not any(v)


def _carries(
    source: ModelDataPair, target: ModelDataPair, phi: tuple[int, ...]
) -> bool:
    """True iff the bijection ``phi`` maps ``source`` onto ``target``.

    Both models are in lowest terms, so their probabilities agree iff their
    ``den`` and their integer columns do.
    """
    m1, m2 = source.model, target.model
    if m1.theta_labels != m2.theta_labels:
        return False
    if m1.den != m2.den:
        return False
    if m1.n_points != m2.n_points or sorted(phi) != list(range(m2.n_points)):
        return False
    if phi[source.observed] != target.observed:
        return False
    into = _columns(m2)
    return all(column == into[y] for column, y in zip(_columns(m1), phi))


def _cuts_a_likelihood_class(model: FiniteModel, ancillary: Partition) -> bool:
    """True iff two points in different blocks have proportional columns."""
    columns, blocks = _columns(model), ancillary.blocks
    return any(
        _proportional(columns[x], columns[y])
        for i, block in enumerate(blocks)
        for other in blocks[i + 1 :]
        for x in block
        for y in other
    )


def verify_c_witness(
    p1: ModelDataPair, p2: ModelDataPair, witness, durbin: bool = False
) -> bool:
    """Re-check a conditioning certificate, an ``ancillarity.CWitness``.

    ``parent`` must be "first" or "second". The ancillary must partition
    the parent's sample space into blocks whose integer sums are the same
    in every row, and with ``durbin=True`` it must cut no likelihood
    class: no two points in different blocks may have proportional
    columns. The observed point's block, over its own mass, must be the
    recorded conditional, and ``bijection`` must carry that conditional
    onto the child, observed point included.
    """
    if witness.parent == "first":
        parent, child = p1, p2
    elif witness.parent == "second":
        parent, child = p2, p1
    else:
        return False
    model, ancillary = parent.model, witness.ancillary
    # every Partition is a valid one, so the right length makes it one of
    # the parent's sample space
    if ancillary.size != model.n_points:
        return False
    for block in ancillary.blocks:
        if len({sum(row[x] for x in block) for row in model.rows}) > 1:
            return False
    if durbin and _cuts_a_likelihood_class(model, ancillary):
        return False
    block = ancillary.blocks[ancillary.labels[parent.observed]]
    rows = tuple(tuple(row[x] for x in block) for row in model.rows)
    labels = tuple(model.sample_labels[x] for x in block)
    conditional = ModelDataPair(
        FiniteModel(model.theta_labels, labels, sum(rows[0]), rows),
        block.index(parent.observed),
    )
    if conditional != witness.conditional:
        return False
    return _carries(conditional, child, witness.bijection)


def _claimed_quotient(model: FiniteModel, result) -> tuple:
    """What a ``sufficiency.ReductionResult`` claims of ``model`` as a
    whole: the reduced model, ``block_map`` and theta-free factors, with
    the model they belong to. The observed block is the pair's own."""
    reduced = result.reduced.model
    return (model, reduced, result.block_map, result.theta_free_factor)


def _quotient_holds(
    model: FiniteModel, target: FiniteModel, block_map, factors
) -> bool:
    """Check a claimed quotient of ``model`` on four counts.

    With d and D the ``den`` of the model and of the reduced model
    ``target``, v an entry of point x and g the entry of its block in the
    same row:
    - labels: each reduced point is labeled by its block's points, as
      "{a,b}", the points in the model's order;
    - factorization: v / d = (g / D) * h(x) with h(x) > 0, that is
      v * D * h.den == g * d * h.num;
    - block sums: D * (sum of v over the block) == d * g;
    - minimality: the reduced columns are pairwise non-proportional.
    Factorization puts only proportional columns in one block, and
    minimality puts no proportional columns in two, so the blocks are the
    likelihood classes: the minimal sufficient partition.
    """
    n, r = model.n_points, target.n_points
    if target.theta_labels != model.theta_labels:
        return False
    if len(block_map) != n or len(factors) != n:
        return False
    if sorted(set(block_map)) != list(range(r)):
        return False
    blocks = [[] for _ in range(r)]
    for label, b in zip(model.sample_labels, block_map):
        blocks[b].append(label)
    if target.sample_labels != tuple("{" + ",".join(b) + "}" for b in blocks):
        return False
    if any(h.numerator <= 0 for h in factors):  # a denominator is positive
        return False
    d, D = model.den, target.den
    scales = [
        (b, D * h.denominator, d * h.numerator)
        for b, h in zip(block_map, factors)
    ]
    for row, sums in zip(model.rows, target.rows):
        if any(v * hd != sums[b] * hn for v, (b, hd, hn) in zip(row, scales)):
            return False
        totals = [0] * r
        for v, b in zip(row, block_map):
            totals[b] += v
        if any(D * t != d * g for t, g in zip(totals, sums)):
            return False
    columns = _columns(target)
    return not any(
        _proportional(u, v)
        for i, u in enumerate(columns)
        for v in columns[i + 1 :]
    )


def verify_s_witness(p1: ModelDataPair, p2: ModelDataPair, witness) -> bool:
    """Re-check a sufficiency certificate, a ``sufficiency.SWitness``.

    ``left`` and ``right`` must be the reductions of p1 and p2 to their
    minimal sufficient statistics: each quotient must hold of its model,
    and each reduced observed point must be the block of its pair's
    observed point. ``bijection`` must carry the left reduced pair onto
    the right one. When both sides claim one quotient, the same model
    with an equal reduced model, ``block_map`` and theta-free factors (as
    the two observations of one mixture do), that quotient is checked
    once; each observed block is still checked on its own side.
    """
    left, right = witness.left, witness.right
    q1 = _claimed_quotient(p1.model, left)
    q2 = _claimed_quotient(p2.model, right)
    # the quotient checks come first: they bound block_map to the model
    return (
        _quotient_holds(*q1)
        and (q1 == q2 or _quotient_holds(*q2))
        and left.reduced.observed == left.block_map[p1.observed]
        and right.reduced.observed == right.block_map[p2.observed]
        and _carries(left.reduced, right.reduced, witness.bijection)
    )


def verify_l_witness(p1: ModelDataPair, p2: ModelDataPair, c: Fraction) -> bool:
    """Re-check an L certificate: c > 0 and likelihood(p1) = c * likelihood(p2).

    With c = p / q, that is v1 * d2 * q == p * v2 * d1 in every row, for
    v1 and v2 the observed entries and d1 and d2 the two ``den``.
    """
    m1, m2 = p1.model, p2.model
    if m1.theta_labels != m2.theta_labels:
        return False
    if c <= 0:
        return False
    p, q = c.numerator, c.denominator
    x, y = p1.observed, p2.observed
    d1, d2 = m1.den, m2.den
    return all(
        r1[x] * d2 * q == p * r2[y] * d1 for r1, r2 in zip(m1.rows, m2.rows)
    )
