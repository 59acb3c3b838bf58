"""The Rauzy graph on ordering states, paths, and cocycle matrices.

Vertices are the 6 orderings of the three letters (plus a hole sink);
each vertex carries three outgoing arrows, one per elementary step kind
(stay / swap / cyc), all with the current longest letter as winner.

Matrix conventions, fixed once here and relied on everywhere else:

* a 3x3 integer matrix is a tuple of three row tuples, in letter
  coordinates here and in rank coordinates in ``induction``; the only
  matrix operations are ``induction._mat_mul`` and ``induction._mat_vec``;
* per-step length block in letter coordinates
      M_w = I + e_w (e_u + e_v)^T          (w the winner, u, v the others)
  so that old lengths = M_w . new lengths;
* ``cocycle_of`` returns the path-ordered product  M_{w_1} ... M_{w_k}
  (the forward cocycle, written B* below); concatenating paths multiplies
  these on the right;
* the dual (height) cocycle is the transpose  B = (B*)^T; it acts on
  weight covectors by q -> q + n q_w on the two non-winner entries
  (``measures.dual_update``), and
  the projectivized induction acts on lengths by (B*)^{-1}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .induction import IDENTITY, KINDS, LETTERS, STAY, Letter, _mat_mul, apply_kind

Perm3 = tuple[Letter, Letter, Letter]

START: Perm3 = (1, 2, 3)
HOLE_VERTEX = "hole"


class NonComposablePath(Exception):
    pass


@dataclass(frozen=True)
class Edge:
    src: Perm3
    dst: Perm3
    winner: Letter
    kind: str


@dataclass(frozen=True)
class RauzyGraph:
    vertices: tuple[Perm3, ...]
    edges: tuple[Edge, ...]

    def out_edges(self, state: Perm3) -> list[Edge]:
        return [e for e in self.edges if e.src == state]

    def strongly_connected(self) -> bool:
        """Mutual reachability of every pair of non-hole vertices."""
        reach = {v: {v} for v in self.vertices}
        for v in self.vertices:
            frontier = [v]
            while frontier:
                cur = frontier.pop()
                for e in self.edges:
                    if e.src == cur and e.dst not in reach[v]:
                        reach[v].add(e.dst)
                        frontier.append(e.dst)
        return all(reach[v] == set(self.vertices) for v in self.vertices)

    def to_json(self) -> dict:
        return {
            "vertices": ["".join(map(str, v)) for v in self.vertices]
            + [HOLE_VERTEX],
            "edges": [
                {
                    "from": "".join(map(str, e.src)),
                    "to": "".join(map(str, e.dst)),
                    "winner": e.winner,
                    "kind": e.kind,
                }
                for e in self.edges
            ]
            + [
                {"from": "".join(map(str, v)), "to": HOLE_VERTEX, "winner": v[0],
                 "kind": "hole"}
                for v in self.vertices
            ],
            "connected": self.strongly_connected(),
        }

    def to_dot(self) -> str:
        lines = ["digraph rauzy {"]
        for v in self.vertices:
            lines.append(f'  "{"".join(map(str, v))}";')
        lines.append(f'  "{HOLE_VERTEX}" [shape=box];')
        for e in self.edges:
            src = "".join(map(str, e.src))
            dst = "".join(map(str, e.dst))
            lines.append(f'  "{src}" -> "{dst}" [label="w{e.winner}/{e.kind}"];')
        for v in self.vertices:
            src = "".join(map(str, v))
            lines.append(f'  "{src}" -> "{HOLE_VERTEX}" [style=dashed];')
        lines.append("}")
        return "\n".join(lines)


def build_graph() -> RauzyGraph:
    """Enumerate orderings reachable from ``START`` under the step rules.

    The hole outcome is modeled as a distinguished sink (every vertex can
    fall into it); it appears in exports but carries no outgoing arrows.
    """
    seen: list[Perm3] = [START]
    edges: list[Edge] = []
    queue = [START]
    while queue:
        state = queue.pop(0)
        for kind in KINDS:
            dst = apply_kind(state, kind)
            edges.append(Edge(src=state, dst=dst, winner=state[0], kind=kind))
            if dst not in seen:
                seen.append(dst)
                queue.append(dst)
    return RauzyGraph(vertices=tuple(seen), edges=tuple(edges))


# --- cocycle matrices ------------------------------------------------------

def length_block(winner: Letter, n: int) -> tuple[tuple[int, int, int], ...]:
    """M_w^n: adds n times the two non-winner entries into the winner row."""
    w = winner - 1
    return tuple(
        tuple(int(n) if i == w and j != w else int(i == j) for j in range(3))
        for i in range(3)
    )


# --- paths ------------------------------------------------------------------

@dataclass(frozen=True)
class PathStep:
    """One arrow, or an accelerated block of n same-winner arrows.

    A block with counter n consists of n-1 implicit stay arrows followed
    by one arrow of the given kind; kind==stay requires n == 1.
    """

    winner: Letter
    n: int
    kind: str
    src: Perm3
    dst: Perm3

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("counter must be >= 1")
        if self.kind == STAY and self.n != 1:
            raise ValueError("stay arrows are elementary (n == 1)")
        if self.winner != self.src[0]:
            raise NonComposablePath("winner must be the leading letter")
        if self.dst != apply_kind(self.src, self.kind):
            raise NonComposablePath("edge target inconsistent with its kind")


@dataclass(frozen=True)
class RauzyPath:
    start: Perm3
    steps: tuple[PathStep, ...] = ()

    def __post_init__(self):
        state = self.start
        for st in self.steps:
            if st.src != state:
                raise NonComposablePath(f"step at {st.src} does not follow {state}")
            state = st.dst

    @property
    def end(self) -> Perm3:
        return self.steps[-1].dst if self.steps else self.start

    def winners(self) -> set[Letter]:
        return {st.winner for st in self.steps}

    def __add__(self, other: "RauzyPath") -> "RauzyPath":
        if other.start != self.end:
            raise NonComposablePath(
                f"cannot append a path starting at {other.start} to one ending "
                f"at {self.end}"
            )
        return RauzyPath(start=self.start, steps=self.steps + other.steps)

    def to_json(self) -> list[dict]:
        return [
            {
                "winner": st.winner,
                "n": st.n,
                "from": list(st.src),
                "to": list(st.dst),
            }
            for st in self.steps
        ]


def make_step(state: Perm3, kind: str, n: int = 1) -> PathStep:
    return PathStep(
        winner=state[0], n=n, kind=kind, src=state, dst=apply_kind(state, kind)
    )


def path_from_blocks(start: Perm3, blocks: Sequence[tuple[int, str]]) -> RauzyPath:
    """Accelerated path given by (counter, ending-kind) blocks."""
    steps = []
    state = start
    for n, kind in blocks:
        st = make_step(state, kind, n=n)
        steps.append(st)
        state = st.dst
    return RauzyPath(start=start, steps=tuple(steps))


def path_from_kinds(start: Perm3, kinds: Sequence[str]) -> RauzyPath:
    """Elementary path given by a sequence of step kinds."""
    return path_from_blocks(start, [(1, kind) for kind in kinds])


def cocycle_of(path: RauzyPath) -> tuple[tuple[int, int, int], ...]:
    """Path-ordered product of the letter-coordinate length blocks."""
    m = IDENTITY
    for st in path.steps:
        m = _mat_mul(m, length_block(st.winner, st.n))
    return m


def is_complete(path: RauzyPath) -> bool:
    """True iff every letter wins somewhere along the path."""
    return path.winners() == set(LETTERS)


def is_positive(path: RauzyPath) -> bool:
    """True iff the path's cocycle matrix has strictly positive entries."""
    return all(x > 0 for row in cocycle_of(path) for x in row)


def enumerate_paths(start: Perm3, length: int) -> Iterator[RauzyPath]:
    """All elementary paths of the given length, in lexicographic order of
    their kind sequences (stay < swap < cyc)."""
    if length < 0:
        raise ValueError("length must be >= 0")
    for kinds in itertools.product(KINDS, repeat=length):
        yield path_from_kinds(start, kinds)


# --- exhaustive completeness => positivity check ---------------------------

def verify_complete_implies_positive(max_len: int) -> dict:
    """Exhaustively check that every complete path of elementary length
    <= max_len has an all-positive cocycle matrix.

    Positivity and completeness of a path depend only on the ordering
    state, the zero pattern of the cocycle matrix (its entries clamped to
    0/1: every entry is nonnegative, so no sum cancels), and the set of
    winners so far; those evolve deterministically, so a breadth-first
    sweep of the (state, pattern, winners) quotient covers all
    6 * 3^len paths per length exactly.
    """
    states = list(itertools.permutations(LETTERS))
    frontier = {(s, IDENTITY, frozenset()) for s in states}
    violations = []
    nodes = 0
    for depth in range(1, max_len + 1):
        nxt = set()
        for state, pattern, winners in frontier:
            w = state[0]
            new_winners = winners | {w}
            new_pattern = tuple(
                tuple(int(x > 0) for x in row)
                for row in _mat_mul(pattern, length_block(w, 1))
            )
            for kind in KINDS:
                node = (apply_kind(state, kind), new_pattern, new_winners)
                if node in nxt:
                    continue
                nxt.add(node)
                if len(new_winners) == 3 and not all(map(all, new_pattern)):
                    violations.append((depth, node))
        frontier = nxt
        nodes += len(nxt)
    paths_covered = 6 * sum(3**d for d in range(1, max_len + 1))
    return {
        "max_len": max_len,
        "paths_covered": paths_covered,
        "quotient_nodes": nodes,
        "violations": violations,
        "ok": not violations,
    }
