"""Seeded inputs of the four benchmark workloads.

The benchmark builds every input here from its own seed, without
``lp_lab.generate`` or ``lp_lab.search``: a change to how the library draws
random numbers or orders its enumerations must not change the workload.
Inputs are plain JSON-able data: ``files`` maps a relative path to the body
of a .pair/.model/.prior file, and ``ops`` is the closed-loop operation list.
Sizes are stratified (fixed per slot, with only the contents drawn), so the
cost of a pass varies little from seed to seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

import ref

# c-transitivity / l-minus-sc bounds (theta, |X|, denominator) and whether a
# witness exists there, as the exhaustive search answers them.
SEARCHES = (
    ("c-transitivity", (2, 3, 4), True),
    ("c-transitivity", (3, 3, 3), False),
    ("l-minus-sc", (2, 2, 4), True),
    ("l-minus-sc", (2, 2, 1), False),
)
CLOSURE_KINDS = ("S", "L", "SC", "C", "DURBIN")
CLOSURE_SIZES = tuple(8 + 16 * i // 19 for i in range(20))


def digest(value) -> str:
    """SHA-256 of a JSON value in canonical form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def grid_pairs(theta_size: int, max_space: int, max_den: int) -> list:
    """One canonical pair per isomorphism class of the exhaustive grid.

    Models have ``theta_size`` rows of k/den entries (den <= max_den) on at
    most ``max_space`` points, no point of zero mass everywhere; columns are
    sorted, so equal keys mean isomorphic pairs.
    """
    seen = set()
    out = []
    for size in range(1, max_space + 1):
        for den in range(1, max_den + 1):
            rows = [
                tuple(Fraction(k, den) for k in comp)
                for comp in compositions(den, size)
            ]
            for combo in itertools.product(rows, repeat=theta_size):
                cols = sorted(zip(*combo))
                if any(all(v == 0 for v in col) for col in cols):
                    continue
                probs = tuple(zip(*cols))
                for x in range(size):
                    key = ref.pair_key((probs, x))
                    if key not in seen:
                        seen.add(key)
                        out.append((probs, cols.index(cols[x])))
    return out


def _composition(rng: random.Random, total: int, parts: int, positive=False):
    if positive:
        cuts = sorted(rng.sample(range(1, total), parts - 1))
    else:
        cuts = sorted(rng.choices(range(total + 1), k=parts - 1))
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _valid(probs) -> bool:
    return all(any(v != 0 for v in col) for col in ref.columns(probs))


def random_model(rng: random.Random, theta: int, size: int, den: int):
    while True:
        probs = tuple(
            tuple(Fraction(k, den) for k in _composition(rng, den, size))
            for _ in range(theta)
        )
        if _valid(probs):
            return probs


def random_pair(rng, theta, size, den):
    return random_model(rng, theta, size, den), rng.randrange(size)


def l_related_pair(rng, strategy: str, s1: int, s2: int, theta=2, den=12):
    """Two pairs with proportional likelihoods, built from one random pair.

    ``permute`` relabels the points (s2 == s1), ``split`` divides the
    observed point by a parameter-free ratio (s2 == s1 + 1), and ``embed``
    puts the likelihood column scaled by 1/k into a fresh model on s2 points.
    """
    while True:
        probs, obs = random_pair(rng, theta, s1, den)
        if strategy == "permute":
            order = list(range(s1))
            rng.shuffle(order)
            second = (tuple(tuple(r[x] for x in order) for r in probs), order.index(obs))
            return (probs, obs), second
        if strategy == "split":
            s = Fraction(rng.randint(1, 3), 4)
            rows = tuple(
                tuple(
                    itertools.chain.from_iterable(
                        (v * s, v * (1 - s)) if x == obs else (v,)
                        for x, v in enumerate(row)
                    )
                )
                for row in probs
            )
            if _valid(rows):
                return (probs, obs), (rows, obs)
            continue
        k = rng.randint(1, 3)
        at = rng.randrange(s2)
        rows = []
        for row in probs:
            head = row[obs] / k
            rest = int((1 - head) * den * k)
            parts = [Fraction(p, den * k) for p in _composition(rng, rest, s2 - 1)]
            rows.append(tuple(parts[:at] + [head] + parts[at:]))
        rows = tuple(rows)
        if _valid(rows):
            return (probs, obs), (rows, at)


def pair_file(pair, thetas, labels) -> dict:
    probs, obs = pair
    return {
        "theta": list(thetas),
        "space": list(labels),
        "probs": [[ref.fmt(v) for v in row] for row in probs],
        "observed": labels[obs],
    }


def model_file(probs, thetas, labels) -> dict:
    return {
        "theta": list(thetas),
        "space": list(labels),
        "probs": [[ref.fmt(v) for v in row] for row in probs],
    }


def _thetas(n):
    return [f"t{i + 1}" for i in range(n)]


def _labels(prefix, n):
    return [f"{prefix}{i + 1}" for i in range(n)]


# ---------------------------------------------------------------------------
# Workloads


def stratified_sample(rng: random.Random, universe: list, size: int) -> list:
    """``size`` distinct pairs, with |X| in the proportions of the universe.

    The cost of a C test grows with Bell(|X|), so fixing how many pairs of
    each |X| a directory holds keeps its cost from swinging with the seed.
    """
    groups: dict[int, list] = {}
    for pair in universe:
        groups.setdefault(len(pair[0][0]), []).append(pair)
    out, seen = [], 0
    for n_points in sorted(groups):
        quota = round(size * (seen + len(groups[n_points])) / len(universe)) - round(size * seen / len(universe))
        seen += len(groups[n_points])
        out += rng.sample(groups[n_points], quota)
    return out


def closure(seed: int) -> dict:
    """20 directories (8-24 pairs) closed under each of the 5 kinds, and 4 searches."""
    rng = random.Random(seed)
    universes = {2: grid_pairs(2, 4, 4), 3: grid_pairs(3, 3, 3)}
    files, ops = {}, []
    for i, size in enumerate(CLOSURE_SIZES):
        theta = 3 if i % 5 == 4 else 2
        d = f"d{i:02d}"
        for j, (probs, obs) in enumerate(stratified_sample(rng, universes[theta], size)):
            order = list(range(len(probs[0])))
            rng.shuffle(order)
            pair = (tuple(tuple(r[x] for x in order) for r in probs), order.index(obs))
            files[f"{d}/p{j:02d}.pair"] = pair_file(
                pair, _thetas(theta), _labels("x", len(order))
            )
        ops += [{"what": "closure", "kind": kind, "dir": d} for kind in CLOSURE_KINDS]
    ops += [{"what": "search", "search": what, "bounds": list(bounds)} for what, bounds, _ in SEARCHES]
    rng.shuffle(ops)
    return {"files": files, "ops": ops}


# (construction, strategy, |X1|, |X2|), one pair each. Cost follows the
# mixture size, and a Durbin attempt costs about half a chain, so the ops
# fall into clusters; the counts put the median inside the 6-point chains
# and p90 inside the 7-point ones, away from the jumps between clusters.
_SMALL = (("permute", 2, 2), ("embed", 2, 2), ("split", 2, 3), ("embed", 2, 3), ("embed", 3, 2))
_SIX = (("permute", 3, 3), ("embed", 3, 3), ("embed", 2, 4), ("embed", 4, 2))
_SEVEN = (("split", 3, 4), ("embed", 3, 4), ("embed", 4, 3))
CHAIN_PLAN = (
    [(what, *c) for what in ("birnbaum", "efm", "durbin") for c in _SMALL * 2]
    + [("durbin", *c) for c in _SIX + _SIX[:1]]
    + [(what, *c) for what in ("birnbaum", "efm") for c in _SIX * 5]
    + [("durbin", *c) for c in (_SEVEN * 3)[:7]]
    + [(what, *c) for what in ("birnbaum", "efm") for c in _SEVEN * 3]
)


def chains(seed: int) -> dict:
    """100 chain constructions, each on its own L-related pair."""
    rng = random.Random(seed)
    files, ops = {}, []
    for i, (what, strategy, s1, s2) in enumerate(CHAIN_PLAN):
        p1, p2 = l_related_pair(rng, strategy, s1, s2)
        first, second = f"q{i:03d}a.pair", f"q{i:03d}b.pair"
        files[first] = pair_file(p1, _thetas(2), _labels("x", s1))
        files[second] = pair_file(p2, _thetas(2), _labels("y", s2))
        ops.append({"what": what, "first": first, "second": second})
    rng.shuffle(ops)
    return {"files": files, "ops": ops}


# (kind, |X|, count): random models at |X| 5-8 and ancillary-rich ones
CATALOG_MODELS = (
    ("random", 5, 46), ("random", 6, 30), ("random", 7, 12), ("random", 8, 2),
    ("free", 5, 4), ("free", 6, 2), ("symmetric", 6, 4), ("symmetric", 7, 3),
)
CATALOG_FORMS = ("", "--maximal", "--laminal")


def _catalog_model(rng, kind, size):
    theta = rng.choice((2, 3))
    den = rng.randint(4, 12)
    if kind == "random":
        return random_model(rng, theta, size, den)
    if kind == "free":
        den = max(den, size)
        row = tuple(Fraction(k, den) for k in _composition(rng, den, size, positive=True))
        return (row,) * theta
    # symmetric: every row permutes the first by a pairing of the points
    while True:
        row = tuple(Fraction(k, den) for k in _composition(rng, den, size))
        rows = [row]
        for _ in range(theta - 1):
            points = list(range(size))
            rng.shuffle(points)
            swap = list(range(size))
            for a, b in zip(points[0::2], points[1::2]):
                swap[a], swap[b] = b, a
            rows.append(tuple(row[swap[x]] for x in range(size)))
        if _valid(rows):
            return tuple(rows)


def catalog(seed: int) -> dict:
    """103 ancillary-catalog requests, one model each, forms cycled."""
    rng = random.Random(seed)
    files, ops = {}, []
    for kind, size, count in CATALOG_MODELS:
        for _ in range(count):
            probs = _catalog_model(rng, kind, size)
            name = f"m{len(ops):03d}.model"
            files[name] = model_file(probs, _thetas(len(probs)), _labels("x", size))
            ops.append({"what": "ancillaries", "file": name, "form": CATALOG_FORMS[len(ops) % 3]})
    rng.shuffle(ops)
    return {"files": files, "ops": ops}


def evidence(seed: int) -> dict:
    """50 pair/prior sets (8 commands each) and 50 relate pairs (L and S)."""
    rng = random.Random(seed)
    files, ops = {}, []
    for i in range(50):
        theta, size = 2 + i % 3, 2 + i % 7
        thetas = _thetas(theta)
        pair = random_pair(rng, theta, size, 24)
        weights = _composition(rng, 24, theta, positive=True)
        f, p = f"e{i:02d}.pair", f"e{i:02d}.prior"
        files[f] = pair_file(pair, thetas, _labels("x", size))
        files[p] = {"theta": thetas, "weights": [ref.fmt(Fraction(w, 24)) for w in weights]}
        hyp = rng.sample(thetas, rng.randint(1, theta - 1))
        ops += [
            {"what": "validate", "file": f},
            {"what": "reduce", "file": f},
            {"what": "rb", "mode": "analyze", "file": f, "prior": p, "hypothesis": hyp},
            {"what": "rb", "mode": "estimate", "file": f, "prior": p},
            {"what": "rb", "mode": "strength", "file": f, "prior": p, "theta": rng.choice(thetas)},
            {"what": "check_model", "file": f, "ancillary": None},
            {"what": "check_model", "file": f, "ancillary": ",".join(_labels("x", size))},
            {"what": "check_prior", "file": f, "prior": p},
        ]
    for i in range(50):
        strategy = ("split", "permute", "embed", "random")[i % 4]
        theta, s1 = 2 + i % 3, 2 + i % 5
        if strategy == "random":
            first, second = random_pair(rng, theta, s1, 24), random_pair(rng, theta, 2 + i % 4, 24)
        else:
            s2 = s1 + 1 if strategy == "split" else s1 if strategy == "permute" else 2 + i % 4
            first, second = l_related_pair(rng, strategy, s1, s2, theta, 24)
        a, b = f"r{i:02d}a.pair", f"r{i:02d}b.pair"
        files[a] = pair_file(first, _thetas(theta), _labels("x", len(first[0][0])))
        files[b] = pair_file(second, _thetas(theta), _labels("y", len(second[0][0])))
        ops += [{"what": "relate", "kind": k, "first": a, "second": b} for k in ("L", "S")]
    rng.shuffle(ops)
    return {"files": files, "ops": ops}


GENERATORS = {"closure": closure, "chains": chains, "catalog": catalog, "evidence": evidence}


def build(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)
