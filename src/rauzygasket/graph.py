"""The Rauzy graph on ordering states, paths, and cocycle matrices.

Vertices are the 6 orderings of the three letters (plus a hole sink);
each vertex carries three outgoing arrows, one per elementary step kind
(stay / swap / cyc), all with the current longest letter as winner.

Matrix conventions, fixed once here and relied on everywhere else:

* per-step length block in letter coordinates
      M_w = I + e_w (e_u + e_v)^T          (w the winner, u, v the others)
  so that old lengths = M_w . new lengths;
* ``cocycle_of`` returns the path-ordered product  M_{w_1} ... M_{w_k}
  (the forward cocycle, written B* below); concatenating paths multiplies
  these on the right;
* the dual (height) cocycle is the transpose  B = (B*)^T; it acts on
  weight covectors by q -> q + n q_w on the two non-winner entries, and
  the projectivized induction acts on lengths by (B*)^{-1}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .induction import (
    CYC,
    KINDS,
    LETTERS,
    STAY,
    SWAP,
    STEP_MATRICES,
    Letter,
    _mat_mul,
)

Perm3 = tuple[Letter, Letter, Letter]

START: Perm3 = (1, 2, 3)
HOLE_VERTEX = "hole"


class NonComposablePath(Exception):
    pass


def apply_kind(state: Perm3, kind: str) -> Perm3:
    """Target ordering of one elementary step from ``state``."""
    if kind == STAY:
        return state
    if kind == SWAP:
        return (state[1], state[0], state[2])
    if kind == CYC:
        return (state[1], state[2], state[0])
    raise ValueError(f"unknown step kind {kind!r}")


@dataclass(frozen=True)
class Edge:
    src: Perm3
    dst: Perm3
    winner: Letter
    kind: str

    @property
    def length_matrix(self):
        """Rank-coordinate elementary matrix (one of the three shapes)."""
        return STEP_MATRICES[self.kind]

    @property
    def cocycle_block(self):
        """Letter-coordinate length block M_w of this arrow."""
        return CocycleMatrix.length_block(self.winner, 1)


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


def build_graph(start: Perm3 = START) -> RauzyGraph:
    """Enumerate orderings reachable from ``start`` under the step rules.

    The hole outcome is modeled as a distinguished sink (every vertex can
    fall into it); it appears in exports but carries no outgoing arrows.
    """
    seen: list[Perm3] = [start]
    edges: list[Edge] = []
    queue = [start]
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

class CocycleMatrix:
    """3x3 nonnegative integer matrix with determinant +-1, stored as the
    forward (length-side) product along a path."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(int(x) for x in r) for r in rows)

    @classmethod
    def identity(cls) -> "CocycleMatrix":
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    @classmethod
    def length_block(cls, winner: Letter, n: int) -> "CocycleMatrix":
        """M_w^n: adds n times the two non-winner entries into the winner
        row."""
        rows = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        w = winner - 1
        for j in range(3):
            if j != w:
                rows[w][j] = n
        return cls(rows)

    def __matmul__(self, other: "CocycleMatrix") -> "CocycleMatrix":
        return CocycleMatrix(_mat_mul(self.rows, other.rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, CocycleMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"CocycleMatrix({self.rows})"

    def transpose(self) -> "CocycleMatrix":
        """The dual (height) cocycle B."""
        r = self.rows
        return CocycleMatrix(
            tuple(tuple(r[i][j] for i in range(3)) for j in range(3))
        )

    def det(self) -> int:
        r = self.rows
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )

    def is_positive(self) -> bool:
        return all(x > 0 for row in self.rows for x in row)

    def column_sums(self) -> tuple[int, int, int]:
        r = self.rows
        return tuple(r[0][j] + r[1][j] + r[2][j] for j in range(3))

    def apply(self, vec: Sequence) -> tuple:
        return tuple(
            sum(self.rows[i][k] * vec[k] for k in range(3)) for i in range(3)
        )

    def apply_dual(self, q: Sequence) -> tuple:
        """B q, i.e. the transpose acting on a weight vector."""
        return tuple(
            sum(self.rows[k][i] * q[k] for k in range(3)) for i in range(3)
        )

    def solve(self, vec: Sequence) -> tuple:
        """Exact solve of self . x = vec (Cramer; determinant is +-1, so
        no division leaves the input's arithmetic)."""
        r = self.rows
        d = self.det()
        if d not in (1, -1):
            raise ValueError("cocycle matrices are unimodular")

        def det3(c0, c1, c2):
            return (
                c0[0] * (c1[1] * c2[2] - c1[2] * c2[1])
                - c1[0] * (c0[1] * c2[2] - c0[2] * c2[1])
                + c2[0] * (c0[1] * c1[2] - c0[2] * c1[1])
            )

        cols = [tuple(r[i][j] for i in range(3)) for j in range(3)]
        out = []
        for j in range(3):
            repl = list(cols)
            repl[j] = tuple(vec)
            x = det3(*repl)
            out.append(x if d == 1 else -x)
        return tuple(out)


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

    @property
    def elementary_length(self) -> int:
        return sum(st.n for st in self.steps)

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


def path_from_kinds(start: Perm3, kinds: Sequence[str]) -> RauzyPath:
    """Elementary path given by a sequence of step kinds."""
    steps = []
    state = start
    for kind in kinds:
        st = make_step(state, kind)
        steps.append(st)
        state = st.dst
    return RauzyPath(start=start, steps=tuple(steps))


def path_from_blocks(start: Perm3, blocks: Sequence[tuple[int, str]]) -> RauzyPath:
    """Accelerated path given by (counter, ending-kind) blocks."""
    steps = []
    state = start
    for n, kind in blocks:
        st = make_step(state, kind, n=n)
        steps.append(st)
        state = st.dst
    return RauzyPath(start=start, steps=tuple(steps))


def cocycle_of(path: RauzyPath) -> CocycleMatrix:
    """Path-ordered product of the letter-coordinate length blocks."""
    m = CocycleMatrix.identity()
    for st in path.steps:
        m = m @ CocycleMatrix.length_block(st.winner, st.n)
    return m


def is_complete(path: RauzyPath) -> bool:
    """True iff every letter wins somewhere along the path."""
    return path.winners() == set(LETTERS)


def is_positive(path: RauzyPath) -> bool:
    """True iff the path's cocycle matrix has strictly positive entries."""
    return cocycle_of(path).is_positive()


def enumerate_paths(start: Perm3, length: int) -> Iterator[RauzyPath]:
    """All elementary paths of the given length, in lexicographic order of
    their kind sequences (stay < swap < cyc)."""
    if length < 0:
        raise ValueError("length must be >= 0")
    for kinds in itertools.product(KINDS, repeat=length):
        yield path_from_kinds(start, kinds)


# --- exhaustive completeness => positivity check ---------------------------

def _pattern_mul(p: int, winner: Letter) -> int:
    # pattern of P . M_w: columns u, v pick up column w (no cancellation:
    # all entries are nonnegative, so positivity is pure boolean algebra)
    w = winner - 1
    out = p
    colw = [(p >> (3 * i + w)) & 1 for i in range(3)]
    for j in range(3):
        if j == w:
            continue
        for i in range(3):
            if colw[i]:
                out |= 1 << (3 * i + j)
    return out


FULL_PATTERN = (1 << 9) - 1


def verify_complete_implies_positive(max_len: int) -> dict:
    """Exhaustively check that every complete path of elementary length
    <= max_len has an all-positive cocycle matrix.

    Positivity and completeness of a path depend only on the ordering
    state, the zero pattern of the cocycle matrix, and the set of winners
    so far; those evolve deterministically, so a breadth-first sweep of
    the (state, pattern, winners) quotient covers all 6 * 3^len paths per
    length exactly.
    """
    states = list(itertools.permutations(LETTERS))
    frontier = {
        (s, 1 << 0 | 1 << 4 | 1 << 8, 0) for s in states
    }  # identity pattern, empty winner set
    violations = []
    nodes = 0
    for depth in range(1, max_len + 1):
        nxt = set()
        for state, pattern, winners in frontier:
            w = state[0]
            new_winners = winners | (1 << (w - 1))
            new_pattern = _pattern_mul(pattern, w)
            for kind in KINDS:
                node = (apply_kind(state, kind), new_pattern, new_winners)
                if node in nxt:
                    continue
                nxt.add(node)
                if new_winners == 0b111 and new_pattern != FULL_PATTERN:
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
