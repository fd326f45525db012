"""Seeded inputs and the closed-loop operation of each workload.

An input is an ``Item``: what kind of graph, its vertex count, the edge
list the benchmark generated for it (the oracle's ground truth), the
oracle's distances over that list and, for a builtin family, the parameters
the package builds it from.  The distances depend only on the generated
edges, so they are computed as the item is dealt, outside the op's timing.  Inputs come in
rounds.  A theta-sweep round is every theta graph up to 22 vertices; the
other rounds take each vertex count of their range once, with the kind
rotating from round to round, so sizes (and latencies) spread evenly over
the range instead of clustering.  Within a round, items are dealt from
blocks of similar size, one block after another in a shuffled order, so a
run whose time ends mid-round still saw a balanced mix of sizes.  The seed
decides that order and every random structure.

An operation takes one item from its spec or edge list to a checked verdict;
building the ``Graph`` is part of it.  Calls go through the ``qegraph``
module attributes and ``build_graph`` so the traced run can wrap them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

import qegraph as qg

import oracles

WORKLOADS = ("theta-sweep", "classify-large", "exact-certify")

THETA_MAX_VERTICES = 22
BLOCK = 5
LARGE_SIZES = range(32, 49)
LARGE_KINDS = ("sparse", "odd-cycle", "sparse", "tree")  # half sparse, a quarter each
EXACT_SIZES = range(24, 49)
EXACT_KINDS = ("odd-cycle", "theta1", "sparse", "even-cycle", "tree", "theta23")


@dataclass(frozen=True)
class Item:
    kind: str
    n: int
    edges: tuple[tuple[int, int], ...]
    legs: tuple[int, int, int] | None = None
    expected: bool | None = None  # known class, None where no oracle decides
    distances: list[list[int]] | None = field(default=None, compare=False, repr=False)


def theta_legs(max_vertices: int = THETA_MAX_VERTICES) -> list[tuple[int, int, int]]:
    """Normalized legs of every theta graph with at most max_vertices vertices."""
    budget = max_vertices + 1
    return [
        (a, b, c)
        for a in range(1, budget // 3 + 1)
        for b in range(max(a, 2), (budget - a) // 2 + 1)
        for c in range(max(b, 2), budget - a - b + 1)
    ]


def _theta(legs) -> Item:
    edges = oracles.canonical_edges(oracles.theta_edges(legs))
    return Item("theta", sum(legs) - 1, edges, tuple(legs), oracles.theta_is_qe(legs))


def _cycle(m: int) -> Item:
    return Item("cycle", m, oracles.canonical_edges(oracles.cycle_edges(m)), expected=True)


def _random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[i], perm[rng.randrange(i)]) for i in range(1, n)]


def _tree(rng: random.Random, n: int) -> Item:
    return Item("tree", n, oracles.canonical_edges(_random_tree_edges(rng, n)), expected=True)


def _sparse(rng: random.Random, n: int) -> Item:
    """A random spanning tree plus n // 4 random extra edges."""
    edges = set(oracles.canonical_edges(_random_tree_edges(rng, n)))
    target = len(edges) + n // 4
    while len(edges) < target:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Item("sparse", n, tuple(sorted(edges)))


def _item(kind: str, n: int, rng: random.Random) -> Item:
    if kind == "sparse":
        return _sparse(rng, n)
    if kind == "tree":
        return _tree(rng, n)
    if kind == "odd-cycle":
        return _cycle(n | 1)
    if kind == "even-cycle":
        return _cycle(n & ~1)
    if kind == "theta1":
        b = rng.randrange(2, n // 2 + 1)
        return _theta((1, b, n - b))
    if kind == "theta23":
        return _theta((2, 3, n - 4 if n % 2 else n - 5))  # odd third leg, >= 9 here
    raise ValueError(f"unknown graph kind {kind!r}")


def _round(name: str, index: int, rng: random.Random) -> list[Item]:
    if name == "theta-sweep":
        return [_theta(legs) for legs in theta_legs()]
    if name == "classify-large":
        sizes, kinds = LARGE_SIZES, LARGE_KINDS
    elif name == "exact-certify":
        sizes, kinds = EXACT_SIZES, EXACT_KINDS
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return [_item(kinds[(n + index) % len(kinds)], n, rng) for n in sizes]


def _balanced_order(deck: list[Item], rng: random.Random) -> list[Item]:
    """Deck order in which every prefix covers the size range evenly: one
    item from each block of BLOCK similar sizes per pass over the blocks."""
    deck = sorted(deck, key=lambda item: item.n)
    blocks = [deck[i : i + BLOCK] for i in range(0, len(deck), BLOCK)]
    for block in blocks:
        rng.shuffle(block)
    order = []
    while blocks:
        rng.shuffle(blocks)
        order += [block.pop() for block in blocks]
        blocks = [block for block in blocks if block]
    return order


def stream(name: str, seed: int):
    """Endless inputs for a workload, each with the oracle's distances;
    the same seed gives the same items."""
    rng = random.Random(f"{name}/{seed}")
    index = 0
    while True:
        for item in _balanced_order(_round(name, index, rng), rng):
            yield replace(item, distances=oracles.distances(item.n, item.edges))
        index += 1


def build_graph(item: Item):
    if item.kind == "theta":
        return qg.make_theta(qg.ThetaSpec(*item.legs))
    if item.kind == "cycle":
        return qg.make_cycle(item.n)
    return qg.Graph(item.n, item.edges)


def _built(item: Item):
    g = build_graph(item)
    oracles.check(
        g.n == item.n and g.edges == item.edges,
        f"built {item.kind} graph differs from the generated edge list",
    )
    return g, item.distances


def _theta_sweep(item: Item) -> None:
    g, d = _built(item)
    closed = qg.classify_theta_closed_form(qg.ThetaSpec(*item.legs))
    s = qg.classify_schoenberg(g, mode="auto")
    w = qg.classify_winkler(g, mode="auto")
    constant = qg.qec(g)
    is_qe = oracles.check_verdicts(g, d, (closed, s, w), item.expected)
    oracles.check(constant.is_qe == is_qe, f"qec decides {constant.is_qe}, routes {is_qe}")


def _classify_large(item: Item) -> None:
    g, d = _built(item)
    s = qg.classify_schoenberg(g, mode="auto")
    w = qg.classify_winkler(g, mode="auto")
    if oracles.check_verdicts(g, d, (s, w), item.expected):
        oracles.check_embedding(qg.reconstruct_embedding(g), d)


def _exact_certify(item: Item) -> None:
    g, d = _built(item)
    s = qg.classify_schoenberg(g, mode="exact")
    w = qg.classify_winkler(g, mode="exact")
    for v in (s, w):
        oracles.check(v.mode_used == "exact", f"{v.method} decided in {v.mode_used} mode")
    oracles.check_verdicts(g, d, (s, w), item.expected)


OPERATIONS = {
    "theta-sweep": _theta_sweep,
    "classify-large": _classify_large,
    "exact-certify": _exact_certify,
}
