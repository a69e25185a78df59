"""Finite binary relations over event identities.

Everything downstream (histories, visibility, arbitration) is phrased as
relational algebra over a small explicit domain, so this module keeps the
operations literal: composition, unions, closures, acyclicity, the interval
order test, and deterministic extension of an acyclic relation to a total
order.  Domains are part of a relation's identity; combining relations over
different domains is an error, not a silent union.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence


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
    def empty(domain: Iterable[str]) -> "Relation":
        return Relation(frozenset(domain), frozenset())

    @staticmethod
    def from_pairs(domain: Iterable[str], pairs: Iterable[Pair]) -> "Relation":
        return Relation(frozenset(domain), frozenset((a, b) for a, b in pairs))

    @staticmethod
    def identity(domain: Iterable[str]) -> "Relation":
        dom = frozenset(domain)
        return Relation(dom, frozenset((a, a) for a in dom))

    @staticmethod
    def diagonal(domain: Iterable[str], subset: Iterable[str]) -> "Relation":
        """The identity restricted to ``subset``: pairs (a, a) for a in subset."""
        dom = frozenset(domain)
        sub = frozenset(subset)
        if not sub <= dom:
            raise ValueError("diagonal subset outside domain")
        return Relation(dom, frozenset((a, a) for a in sub))

    @staticmethod
    def product(domain: Iterable[str], left: Iterable[str], right: Iterable[str]) -> "Relation":
        """The full rectangle left × right inside ``domain``."""
        dom = frozenset(domain)
        ls, rs = frozenset(left), frozenset(right)
        if not (ls <= dom and rs <= dom):
            raise ValueError("product sides outside domain")
        return Relation(dom, frozenset((a, b) for a in ls for b in rs))

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

    def inverse(self) -> "Relation":
        return Relation(self.domain, frozenset((b, a) for a, b in self.pairs))

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

    def is_transitive(self) -> bool:
        return self.compose(self).pairs <= self.pairs

    def is_strict_partial_order(self) -> bool:
        return self.is_irreflexive() and self.is_transitive()

    def is_acyclic(self) -> bool:
        return self.transitive_closure().is_irreflexive()

    def is_total_on_domain(self) -> bool:
        for a in self.domain:
            for b in self.domain:
                if a != b and (a, b) not in self.pairs and (b, a) not in self.pairs:
                    return False
        return self.is_strict_partial_order()

    def is_interval_order(self) -> bool:
        """Strict partial order where e1Re2 and f1Rf2 imply e1Rf2 or f1Re2.

        Equivalently: no induced 2+2 (two disjoint comparable pairs with no
        cross edge in either direction).
        """
        if not self.is_strict_partial_order():
            return False
        ps = list(self.pairs)
        for e1, e2 in ps:
            for f1, f2 in ps:
                if (e1, f2) not in self.pairs and (f1, e2) not in self.pairs:
                    return False
        return True

    # -- views -------------------------------------------------------------

    def successors(self, a: str) -> frozenset[str]:
        return frozenset(b for x, b in self.pairs if x == a)

    def predecessors(self, b: str) -> frozenset[str]:
        return frozenset(a for a, x in self.pairs if x == b)


@dataclass(frozen=True)
class TotalOrder:
    """A strict total order given as the sequence of its elements."""

    sequence: tuple[str, ...]
    _index: Mapping[str, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        idx = {a: i for i, a in enumerate(self.sequence)}
        if len(idx) != len(self.sequence):
            raise ValueError("total order repeats an element")
        object.__setattr__(self, "_index", idx)

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self.sequence)

    def position(self, a: str) -> int:
        return self._index[a]

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


def extend_to_total(r: Relation, tie_break: Sequence[str] | None = None) -> TotalOrder:
    """Deterministic topological extension of an acyclic relation.

    Repeatedly emits the enabled element that comes first in ``tie_break``
    (default: sorted domain), which yields the lexicographically least
    linear extension under that key.  Raises CycleError on cycles.
    """
    order = list(tie_break) if tie_break is not None else sorted(r.domain)
    if set(order) != set(r.domain):
        raise ValueError("tie_break must enumerate the domain exactly")
    preds: dict[str, set[str]] = {a: set() for a in r.domain}
    for a, b in r.pairs:
        if a != b:
            preds[b].add(a)
    out: list[str] = []
    emitted: set[str] = set()
    remaining = set(r.domain)
    while remaining:
        pick = None
        for a in order:
            if a in remaining and preds[a] <= emitted:
                pick = a
                break
        if pick is None:
            raise CycleError(f"cycle among {sorted(remaining)}")
        out.append(pick)
        emitted.add(pick)
        remaining.remove(pick)
    return TotalOrder(tuple(out))


def linear_extensions(r: Relation) -> Iterator[TotalOrder]:
    """All linear extensions of an acyclic relation, lexicographic in the
    sorted domain.  Yields nothing if the relation is cyclic."""
    order = sorted(r.domain)
    preds: dict[str, set[str]] = {a: set() for a in r.domain}
    for a, b in r.pairs:
        if a != b:
            preds[b].add(a)
    prefix: list[str] = []
    emitted: set[str] = set()

    def rec() -> Iterator[TotalOrder]:
        if len(prefix) == len(order):
            yield TotalOrder(tuple(prefix))
            return
        for a in order:
            if a in emitted or not (preds[a] <= emitted):
                continue
            prefix.append(a)
            emitted.add(a)
            yield from rec()
            emitted.remove(a)
            prefix.pop()

    return rec()
