"""Finite binary relations over event identities.

Everything downstream (histories, visibility, arbitration) is phrased as
relational algebra over a small explicit domain, so this module keeps the
operations literal: composition, unions, closures, acyclicity and the
interval order test.  Domains are part of a relation's identity; combining
relations over different domains is an error, not a silent union.

Every arbitration, linearization and schedule order in the package comes
from one of two kernels: least_order, Kahn's algorithm (CACM 1962) taking
the least ready node first, and extensions, a depth-first walk over linear
extensions that cuts the prefixes a caller refuses (after Wing & Gong 1993
and Lowe 2017).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence


class DomainMismatchError(ValueError):
    """Two relations over different domains were combined."""


class CycleError(ValueError):
    """A total extension was requested for a cyclic relation."""


Pair = tuple[str, str]


@dataclass(frozen=True)
class Relation:
    """An immutable set of ordered pairs over an explicit finite domain."""

    domain: frozenset[str]
    pairs: frozenset[Pair]

    def __post_init__(self) -> None:
        for a, b in self.pairs:
            if a not in self.domain or b not in self.domain:
                raise ValueError(f"pair ({a!r}, {b!r}) outside domain")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_pairs(domain: Iterable[str], pairs: Iterable[Pair]) -> "Relation":
        return Relation(frozenset(domain), frozenset((a, b) for a, b in pairs))

    # -- basic algebra -----------------------------------------------------

    def _check(self, other: "Relation") -> None:
        if self.domain != other.domain:
            raise DomainMismatchError("relations over different domains")

    def __or__(self, other: "Relation") -> "Relation":
        self._check(other)
        return Relation(self.domain, self.pairs | other.pairs)

    def __and__(self, other: "Relation") -> "Relation":
        self._check(other)
        return Relation(self.domain, self.pairs & other.pairs)

    def __sub__(self, other: "Relation") -> "Relation":
        self._check(other)
        return Relation(self.domain, self.pairs - other.pairs)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.pairs

    def __bool__(self) -> bool:
        return bool(self.pairs)

    def __le__(self, other: "Relation") -> bool:
        self._check(other)
        return self.pairs <= other.pairs

    def compose(self, other: "Relation") -> "Relation":
        """Relational composition: (a, c) iff a self b and b other c for some b."""
        self._check(other)
        by_src: dict[str, set[str]] = {}
        for b, c in other.pairs:
            by_src.setdefault(b, set()).add(c)
        out: set[Pair] = set()
        for a, b in self.pairs:
            for c in by_src.get(b, ()):
                out.add((a, c))
        return Relation(self.domain, frozenset(out))

    def reflexive(self) -> "Relation":
        """R? — reflexive closure over the whole domain."""
        return Relation(self.domain, self.pairs | frozenset((a, a) for a in self.domain))

    def transitive_closure(self) -> "Relation":
        succ: dict[str, set[str]] = {a: set() for a in self.domain}
        for a, b in self.pairs:
            succ[a].add(b)
        out: set[Pair] = set()
        for a in self.domain:
            # BFS from a
            seen: set[str] = set()
            stack = list(succ[a])
            while stack:
                b = stack.pop()
                if b in seen:
                    continue
                seen.add(b)
                stack.extend(succ[b])
            out.update((a, b) for b in seen)
        return Relation(self.domain, frozenset(out))

    def restrict(self, subset: Iterable[str]) -> "Relation":
        """The induced relation on ``subset`` (its new domain)."""
        sub = frozenset(subset)
        return Relation(sub, frozenset((a, b) for a, b in self.pairs if a in sub and b in sub))

    # -- predicates --------------------------------------------------------

    def is_irreflexive(self) -> bool:
        return all(a != b for a, b in self.pairs)

    def _down_sets(self) -> dict[str, int]:
        """Per element the bitmask of its predecessors."""
        bit = {a: 1 << i for i, a in enumerate(self.domain)}
        down = dict.fromkeys(self.domain, 0)
        for a, b in self.pairs:
            down[b] |= bit[a]
        return down

    def is_transitive(self) -> bool:
        """No pair (a, b) with a predecessor of a that b lacks, checked over
        predecessor bitmasks up to the first such pair: linear in the pairs
        where building the composition is cubic in a chain's length."""
        down = self._down_sets()
        return not any(down[a] & ~down[b] for a, b in self.pairs)

    def is_strict_partial_order(self) -> bool:
        return self.is_irreflexive() and self.is_transitive()

    def is_acyclic(self) -> bool:
        """No cycle, loops included: least_order places every element."""
        succ: dict[str, list[str]] = {a: [] for a in self.domain}
        for a, b in self.pairs:
            succ[a].append(b)
        return not least_order(succ)[1]

    def is_interval_order(self) -> bool:
        """Strict partial order where e1Re2 and f1Rf2 imply e1Rf2 or f1Re2.

        Equivalently: no induced 2+2 (two disjoint comparable pairs with no
        cross edge in either direction), or again: the down-sets of the
        elements form a chain under inclusion (Fishburn 1970).  A 2+2 is
        exactly two down-sets, of e2 and of f2, neither inside the other.
        """
        if not self.is_strict_partial_order():
            return False
        chain = sorted(self._down_sets().values(), key=int.bit_count)
        return not any(s & ~t for s, t in zip(chain, chain[1:]))

    # -- views -------------------------------------------------------------

    def predecessors(self, b: str) -> frozenset[str]:
        return frozenset(a for a, x in self.pairs if x == b)


@dataclass(frozen=True)
class TotalOrder:
    """A strict total order given as the sequence of its elements.

    The sequence is its only field, so equality, hash and repr read it
    alone.  The position of each element is built when ``before`` first
    reads it: most orders (every explored execution's arbitration) are
    never asked."""

    sequence: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.sequence)) != len(self.sequence):
            raise ValueError("total order repeats an element")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.sequence)}

    def before(self, a: str, b: str) -> bool:
        return self._index[a] < self._index[b]

    def as_relation(self) -> Relation:
        seq = self.sequence
        pairs = frozenset((seq[i], seq[j]) for i in range(len(seq)) for j in range(i + 1, len(seq)))
        return Relation(frozenset(seq), pairs)

    def __iter__(self) -> Iterator[str]:
        return iter(self.sequence)

    def __len__(self) -> int:
        return len(self.sequence)


def least_order(succ: Mapping) -> tuple[list, set]:
    """Kahn's algorithm, always taking the least ready node: the nodes in
    the order placed, and those it could not place (on or after a cycle).
    Every node is a key of ``succ``; an edge listed twice counts twice."""
    indeg = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for v in targets:
            indeg[v] += 1
    ready = [v for v, d in indeg.items() if not d]
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if not indeg[v]:
                heapq.heappush(ready, v)
    unplaced = {v for v, d in indeg.items() if d} if len(order) < len(indeg) else set()
    return order, unplaced


def _ranked_order(r: Relation, order: Sequence[str]) -> tuple[dict[int, list[int]], list[int]]:
    """r's successor lists over positions in ``order`` (loops dropped) and their
    least_order; CycleError names what that leaves unplaced."""
    rank = {a: i for i, a in enumerate(order)}
    succ: dict[int, list[int]] = {i: [] for i in range(len(order))}
    for a, b in r.pairs:
        if a != b:
            succ[rank[a]].append(rank[b])
    placed, unplaced = least_order(succ)
    if unplaced:
        raise CycleError(f"cycle among {sorted(order[i] for i in unplaced)}")
    return succ, placed


def extend_to_total(r: Relation, tie_break: Sequence[str] | None = None) -> TotalOrder:
    """Deterministic topological extension of an acyclic relation, loops
    ignored: least_order over the ranks in ``tie_break`` (default: sorted
    domain), the lexicographically least linear extension under that key.
    Raises CycleError on cycles."""
    order = list(dict.fromkeys(tie_break)) if tie_break is not None else sorted(r.domain)
    if set(order) != set(r.domain):
        raise ValueError("tie_break must enumerate the domain exactly")
    return TotalOrder(tuple(order[i] for i in _ranked_order(r, order)[1]))


def extensions(r: Relation, place: Callable, state) -> Iterator[tuple[tuple[str, ...], object]]:
    """The linear extensions of r (loops ignored) that ``place`` admits,
    depth first and lexicographic in the sorted domain, each with the state
    it reached.  ``place(s, a)`` is the state after appending a to a prefix
    whose state is s, or None to cut every extension of that prefix.
    Raises CycleError, before calling place, when r is cyclic (least_order
    decides that in linear time; a bare walk would take factorial time).
    The walk keeps its own stack, so a long chain cannot exhaust Python's."""
    order = sorted(r.domain)
    succ, _ = _ranked_order(r, order)
    waiting = [0] * len(order)  # per element its unplaced predecessors
    for targets in succ.values():
        for j in targets:
            waiting[j] += 1

    def walk() -> Iterator[tuple[tuple[str, ...], object]]:
        n = len(order)
        if not n:
            yield (), state
        # One frame per placed prefix: the bitmask of its ready elements and
        # of those not yet tried, the least first.  A placed element's
        # successors all come after it, so the last one frees none.
        ready = sum(1 << i for i, w in enumerate(waiting) if not w)
        frames, placed, states = [[ready, ready]], [], [state]
        while frames:
            frame = frames[-1]
            ready, untried = frame
            s = states[-1]
            while untried:
                low = untried & -untried
                untried ^= low
                i = low.bit_length() - 1
                if (nxt := place(s, order[i])) is not None:
                    break
            else:
                frames.pop()
                if placed:
                    for j in succ[placed.pop()]:
                        waiting[j] += 1
                    states.pop()
                continue
            frame[1] = untried
            placed.append(i)
            if len(placed) == n:
                yield tuple(map(order.__getitem__, placed)), nxt
                placed.pop()
                continue
            freed = 0
            for j in succ[i]:
                waiting[j] -= 1
                if not waiting[j]:
                    freed |= 1 << j
            states.append(nxt)
            frames.append([ready ^ low | freed] * 2)

    return walk()


def linear_extensions(r: Relation) -> Iterator[TotalOrder]:
    """All linear extensions of an acyclic relation (loops ignored),
    lexicographic in the sorted domain.  Yields nothing if the relation is
    cyclic."""
    try:
        walk = extensions(r, lambda s, a: s, ())
    except CycleError:
        return
    for seq, _ in walk:
        yield TotalOrder(seq)
