"""Declarative consistency laws and the membership decision procedure.

An abstract execution (history + visibility + arbitration) satisfies the
model when all eight laws hold:

  RETVAL         every rval equals eval over the event's same-object
                 visibility predecessors, ordered by arbitration
  RYW            session order is visible (read your writes)
  MONOTONICVIEW  visibility survives along a session (vis;so <= vis)
  OBSERVEDVIS    what a cross-session predecessor observed is observed
                 transitively: ar? ; (vis \\ so) ; (rt & E x EPull)? <= vis
  PUSHEDVIS      pushed work precedes pull-fenced work:
                 ar? ; (rt? & EPush x EPull) <= vis?
  OBSERVEDAR     observed cross-session visibility respects real time in
                 arbitration: (vis \\ so) ; rt <= ar
  PUSHEDAR       pushed events are arbitrated before anything after them in
                 real time: rt & (EPush x E) <= ar
  EVENTUAL       every event is eventually visible (vacuous here: all
                 histories are finite)

Membership (is there any visibility/arbitration pair making a history
satisfy all laws) is decided by one search over arbitrations.  When an
observer's return value pins down its visible update set (a sequence read
over distinct values), its forced edges are decoded up front.  Every other
context-sensitive event is an open observer: when the search places it, it
branches on the update subsets placed before it that explain its rval
(vis inside ar, so every candidate is placed by then).  The search relies
on the laws RYW/MONOTONICVIEW/OBSERVEDVIS/PUSHEDVIS being monotone in vis:
the least closure of the forced edges is contained in any witness, so
rejecting a closure that breaks RETVAL or escapes the candidate
arbitration rejects every witness over that arbitration.

Both law engines read one index per history (``History.index``, built
once, like its structure verdict): each event is a bit position, with the
masks of its session-order and real-time predecessors, of the events on
its object and of the pushing and pulling events.  An execution adds its
visibility rows, per event the mask of its visibility predecessors, and
its arbitration as prefix masks, per event the mask arbitrated before it.

The search builds arbitrations as prefixes (after Wing & Gong 1993 and
Lowe 2017) on the walk ``relations.extensions``, which refuses a cyclic
forced order before it places anything.  Its state is the list of live
branches, each keeping the closure over the prefix as visibility rows plus
the prefix masks of the placed events, so a copy is a list copy; placing
an event advances every branch and drops one whose closure has (a) a
conflict, (b) a pair (x, y) with y placed and x not placed before y, or
(c) an update outside an observer's decoded or chosen set visible to it,
each a mask test.
A prefix's closure is contained in the closure over every completion, and
each of (a)-(c), once true, stays true, so no accepting arbitration is cut.
A full arbitration that none of them cuts keeps the closure the branch
built: with every event placed it is the least visibility over that
arbitration containing the branch's seed, (b) puts it inside arbitration
and (c) with the seed gives each observer exactly its decoded or chosen
updates, so only the laws are checked there, on the closure's own rows; an
AbstractExecution is built for the accepted branch only.  With a decoder,
an open observer's options are its decoded explanations over the placed
updates that list them in placement order, not every subset evaluated.

check_axioms checks the eight laws in one pass over those rows, the same
pass the search runs on its closures.  A law's missing pairs are one mask
per target event, and become sorted id pairs only when the law fails; a
passing report is a shared constant.  How the closure derived a pair
(``Closure.why`` and ``chain``) and the wording of a conflict come from the
same closure, built again with a log of each row it grows; only a narrated
refutation or a caller that asks builds it.

Enumerating update subsets only (when the semantics classifies operations)
is justified by the read-only law: eval ignores read-only context entries,
so visibility of read-only events never changes an rval.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .model import (
    AbstractExecution,
    Event,
    EventIndex,
    History,
    HistoryError,
    validate_history,
)
from .relations import CycleError, Relation, TotalOrder, extensions, linear_extensions
from .semantics import ObjectSemantics

AXIOM_NAMES = (
    "RETVAL",
    "RYW",
    "MONOTONICVIEW",
    "OBSERVEDVIS",
    "PUSHEDVIS",
    "OBSERVEDAR",
    "PUSHEDAR",
    "EVENTUAL",
)

DEFAULT_MAX_EVENTS = 9
MAX_REFUTATIONS = 3  # refutation lines a negative verdict carries at most


def require_searchable(h: History, max_events: int) -> None:
    """Raise HistoryError unless ``h`` is well formed and has at most
    ``max_events`` events: the cap on every membership search."""
    problems = validate_history(h)
    if problems:
        raise HistoryError("; ".join(problems))
    if len(h.events) > max_events:
        raise HistoryError(
            f"history has {len(h.events)} events, over the cap {max_events}; "
            f"raise max_events explicitly for larger inputs")


@dataclass(frozen=True)
class AxiomVerdict:
    name: str
    holds: bool
    counterexamples: tuple = ()
    note: str = ""


@dataclass(frozen=True)
class AxiomReport:
    verdicts: tuple[AxiomVerdict, ...]
    structural: tuple[str, ...] = ()

    @cached_property
    def ok(self) -> bool:
        """No structural violation and every law holds; worked out on the
        first read and kept, so the shared passing report answers at once."""
        return not self.structural and all(v.holds for v in self.verdicts)

    def failed(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.verdicts if not v.holds)


def _limit(pairs, n=4):
    return tuple(sorted(pairs))[:n]


_RETVAL_NOTE = "rval must equal eval over visible same-object context"
# A passing verdict carries nothing of its execution, so one object serves
# every report.
_HOLDS = {name: AxiomVerdict(name, True) for name in AXIOM_NAMES}
_HOLDS["RETVAL"] = AxiomVerdict("RETVAL", True, (), _RETVAL_NOTE)
_HOLDS["EVENTUAL"] = AxiomVerdict("EVENTUAL", True, (),
                                  "vacuously true: histories here are finite")
_ALL_HOLD = AxiomReport(tuple(_HOLDS[name] for name in AXIOM_NAMES))
_MASK_LAWS = AXIOM_NAMES[1:7]  # the laws _law_rows reports as masks


def _bits(m: int) -> list[int]:
    """The positions of m's set bits, the least first."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _upto(m: int, before: list[int]) -> int:
    """The arbitration prefix up to and including the last element of m,
    each element i of which is arbitrated after the events in before[i]
    (0 for m == 0).  The prefixes are nested, so the last is the largest."""
    if not m & (m - 1):  # no element or one
        return m and before[m.bit_length() - 1] | m
    top = 0
    while m:
        low = m & -m
        m ^= low
        p = before[low.bit_length() - 1] | low
        if p > top:
            top = p
    return top


def _retval_plan(ix: EventIndex, semantics: ObjectSemantics) -> tuple[list[int], tuple]:
    """RETVAL's part that depends only on the history, kept on its index:
    the positions of the events whose rval depends on their context, and
    the (id, got) failures of the others, which eval decides without one."""
    plan = ix.retval
    if plan is None or plan[0] is not semantics:
        sensitive, fixed = [], []
        for i, e in enumerate(ix.events):
            if semantics.context_sensitive(e.op):
                sensitive.append(i)
            elif (got := semantics.eval((), e.op)) != e.rval:
                fixed.append((e.id, got))
        plan = ix.retval = semantics, sensitive, tuple(fixed)
    return plan[1], plan[2]


def _law_rows(ix: EventIndex, vis: list[int], order: list[int], before: list[int],
              semantics: ObjectSemantics) -> tuple[list, tuple[list[int], ...]]:
    """The laws over one execution's rows, positions as in ``ix``: vis[i]
    the mask of event i's visibility predecessors, order the positions in
    arbitration order and before[i] the mask of those arbitrated before i.
    Returns RETVAL's failures as (id, got) pairs, then per law from RYW to
    PUSHEDAR the mask of missing sources per target event."""
    events, so, rt, pushers, pullers = ix.events, ix.so, ix.rt, ix.pushers, ix.pullers
    sensitive, fixed = _retval_plan(ix, semantics)
    bad = list(fixed)
    for i in sensitive:
        e = events[i]
        m = vis[i] & ix.same[i]  # the context, in arbitration order
        ctx = tuple([events[k].op for k in order if m >> k & 1]) if m else ()
        got = semantics.eval(ctx, e.op)
        if got != e.rval:
            bad.append((e.id, got))

    n = len(vis)
    seen = [0] * n  # vis ; so
    for i, j in zip(*ix.so_pairs):
        seen[j] |= vis[i]
    observed = [v & ~s for v, s in zip(vis, so)]  # vis \ so
    via = [0] * n  # (vis \ so) ; rt
    for i, j in zip(*ix.rt_pairs):
        via[j] |= observed[i]
    rows = ryw, monotonic, observed_vis, pushed_vis, observed_ar, pushed_ar = (
        [], [], [], [], [], [])
    for i, v in enumerate(vis):
        bit, b = 1 << i, before[i]
        ryw.append(so[i] & ~v)
        monotonic.append(seen[i] & ~v)  # vis ; so <= vis
        # ar? ; (vis \ so) ; (rt & E x EPull)? <= vis: the target must see
        # the arbitration prefix up to its last source, where its sources
        # are its own vis \ so predecessors and, when it pulls, those of
        # its rt predecessors.  ar? ; (rt? & EPush x EPull) <= vis?: a
        # puller must see every other event up to the last-arbitrated
        # pusher at or rt-before it.
        if pullers & bit:
            observed_vis.append(_upto(observed[i] | via[i], before) & ~v)
            pushed_vis.append(_upto((rt[i] | bit) & pushers, before) & ~v & ~bit)
        else:
            observed_vis.append(_upto(observed[i], before) & ~v)
            pushed_vis.append(0)
        observed_ar.append(via[i] & ~b)  # (vis \ so) ; rt <= ar
        pushed_ar.append(rt[i] & pushers & ~b)  # rt & (EPush x E) <= ar
    return bad, rows


def _failed(bad: list, missing: tuple[list[int], ...]) -> list[str]:
    """The names of the laws _law_rows found broken, in AXIOM_NAMES order."""
    return (["RETVAL"] if bad else []) + [
        name for name, rows in zip(_MASK_LAWS, missing) if any(rows)]


def _verdict(name: str, missing: list[int], ids: tuple[str, ...]) -> AxiomVerdict:
    """The verdict of a law whose missing pairs are missing[i], the mask of
    the positions j with (ids[j], ids[i]) missing."""
    if not any(missing):
        return _HOLDS[name]
    return AxiomVerdict(name, False, _limit(
        (ids[j], ids[i]) for i, m in enumerate(missing) for j in _bits(m)))


def _execution_rows(x: AbstractExecution) -> tuple[list[int], list[int], list[int]] | None:
    """x's visibility rows, arbitration order and arbitration prefix masks
    over its history's index, or None when vis is not over the events, ar
    does not enumerate them or a vis pair is not forward in ar.  The
    history is valid."""
    ix = x.history.index
    pos, seq, n = ix.pos, x.ar.sequence, len(ix.ids)
    if x.vis.domain != ix.domain or len(seq) != n:
        return None
    order, before, placed = [], [0] * n, 0
    for a in seq:  # a TotalOrder repeats no element
        k = pos.get(a)
        if k is None:
            return None
        order.append(k)
        before[k] = placed
        placed |= 1 << k
    vis = [0] * n
    for a, b in x.vis.pairs:
        vis[pos[b]] |= 1 << pos[a]
    if any(v & ~p for v, p in zip(vis, before)):
        return None
    return vis, order, before


def check_axioms(x: AbstractExecution, semantics: ObjectSemantics) -> AxiomReport:
    """Evaluate all eight laws against a concrete execution in one pass
    over its rows (see the module docstring).  Each law's missing pairs are
    one mask per target event, and become sorted id pairs only when the law
    fails."""
    # What structural_violations checks, read off the rows; it runs only
    # to word a violation.
    rows = None if validate_history(x.history) else _execution_rows(x)
    if rows is None:
        return AxiomReport((), tuple(x.structural_violations()))
    ix = x.history.index
    bad, missing = _law_rows(ix, *rows, semantics)
    if not _failed(bad, missing):
        return _ALL_HOLD
    return AxiomReport((
        AxiomVerdict("RETVAL", False, _limit(bad), _RETVAL_NOTE) if bad else _HOLDS["RETVAL"],
        *(_verdict(name, m, ix.ids) for name, m in zip(_MASK_LAWS, missing)),
        _HOLDS["EVENTUAL"]))


# -- least visibility closure --------------------------------------------------


@dataclass
class Derivation:
    rule: str
    via: tuple[str, str] | None = None


class Closure:
    """Least visibility relation containing session order, the seed and the
    pushed ground edges, closed under the monotone laws, over a prefix of an
    arbitration.  A placed event's reflexive arbitration predecessors are
    the prefix up to and including it; an unplaced event's are just itself.
    With every event placed this is the least visibility over that
    arbitration.  Over a shorter prefix it is contained in the closure over
    every completion, since placing events only adds predecessors.

    The state is rows over the history's index: vis[i] the mask of event
    i's visibility predecessors, and per placed event the mask placed
    before it, so a copy is three list copies.  conflicted is set when a
    law demands a reflexive pair where the law's right-hand side is vis
    rather than vis?; no execution over any completion of the prefix can
    satisfy the laws then.  How each pair was derived (why, chain and the
    conflict's wording) is read, only when asked for, from the log of the
    same closure built again (see _narration); the search keeps no log.
    """

    __slots__ = ("h", "ix", "vis", "before", "order", "placed", "conflicted", "seed",
                 "_rules", "_narrated")

    def __init__(self, h: History, placed, seed, _log: list | None = None):
        self.h, ix = h, h.index
        self.ix = ix
        n, pos = len(ix.ids), ix.pos
        self.seed = frozenset(seed)
        self.vis = vis = list(ix.so)
        for a, b in self.seed:
            if a != b:
                vis[pos[b]] |= 1 << pos[a]
        if _log is not None:
            _log += [("session-order", t, m, None, 0) for t, m in enumerate(ix.so) if m]
            _log += [("seed", t, v & ~m, None, 0)
                     for t, (v, m) in enumerate(zip(vis, ix.so)) if v & ~m]
        self.before, self.order, self.placed = [0] * n, [], 0
        for a in placed:
            self._append(pos[a])
        # per-history successor lists, shared by copies: session order, rt
        # into pullers, and the pushed ground pairs; sorted, so a log does
        # not follow the hash order of the history's relations
        so_succ, rt_pull, pushed = ([[] for _ in range(n)] for _ in range(3))
        for i, j in sorted(zip(*ix.so_pairs)):
            so_succ[i].append(j)
        for i, j in sorted(zip(*ix.rt_pairs)):
            if ix.pullers >> j & 1:
                rt_pull[i].append(j)
                if ix.pushers >> i & 1:
                    pushed[i].append(j)
        for i in _bits(ix.pushers & ix.pullers):
            pushed[i].append(i)
        self._rules = so_succ, rt_pull, pushed
        self.conflicted = False
        self._narrated = None
        # pushers by id, so a pair two pushers force is logged from the first
        for a in sorted(_bits(ix.pushers), key=ix.ids.__getitem__):
            upto = self.before[a] | 1 << a if self.placed >> a & 1 else 1 << a
            for b in pushed[a]:
                new = upto & ~(1 << b) & ~vis[b]
                if new:
                    vis[b] |= new
                    if _log is not None:
                        _log.append(("pushed-visibility", b, new, a, 0))
        self._close(sum(1 << t for t, v in enumerate(vis) if v), _log)

    def _append(self, i: int) -> None:
        self.before[i] = self.placed
        self.placed |= 1 << i
        self.order.append(i)

    def copy(self) -> "Closure":
        new = object.__new__(Closure)
        new.h, new.ix, new.seed, new._rules = self.h, self.ix, self.seed, self._rules
        new.vis, new.before, new.order = self.vis[:], self.before[:], self.order[:]
        new.placed, new.conflicted, new._narrated = self.placed, self.conflicted, None
        return new

    def place(self, a: str) -> None:
        """Append a to the arbitration prefix and close again.  Only the
        rules that read a's arbitration predecessors fire anew: the pushed
        ground pairs from a, and observed visibility at the events that
        see a."""
        i = self.ix.pos[a]
        self._append(i)
        vis, bit = self.vis, 1 << i
        _, _, pushed = self._rules
        dirty = 0
        for b in pushed[i]:
            new = self.placed & ~(1 << b) & ~vis[b]
            if new:
                vis[b] |= new
                dirty |= 1 << b
        for t, v in enumerate(vis):
            if v & bit:
                dirty |= 1 << t
        self._close(dirty)

    def see(self, i: int, chosen: int) -> None:
        """Seed the events in mask chosen as visible to event i and close
        again."""
        ids = self.ix.ids
        self.seed |= {(ids[u], ids[i]) for u in _bits(chosen)}
        new = chosen & ~self.vis[i]
        if new:
            self.vis[i] |= new
            self._close(1 << i)

    def _close(self, dirty: int, log: list | None = None) -> None:
        """Close again after the rows in mask dirty grew, or the prefixes
        of their members did.  A law that demands a reflexive pair puts the
        target in its own row, which is the conflict once the row is
        revisited; only pushed visibility, whose right-hand side is vis?,
        leaves the target out.  With a log, each row growth is appended to
        it as (law, row, new mask, source row, the source's observed mask)."""
        vis, before, placed, so = self.vis, self.before, self.placed, self.ix.so
        so_succ, rt_pull, _ = self._rules
        while dirty and not self.conflicted:
            low = dirty & -dirty
            dirty ^= low
            t = low.bit_length() - 1
            v = vis[t]
            if v & low:
                self.conflicted = True
                break
            # vis ; so <= vis
            for c in so_succ[t]:
                new = v & ~vis[c]
                if new:
                    vis[c] |= new
                    dirty |= 1 << c
                    if log is not None:
                        log.append(("monotonic-view", c, new, t, 0))
            # ar? ; (vis \ so) ; (rt & E x EPull)? <= vis
            observed = v & ~so[t]
            if observed:
                need = observed & ~placed | _upto(observed & placed, before)
                new = need & ~v
                if new:
                    vis[t] = v | need
                    dirty |= low
                    if log is not None:
                        log.append(("observed-visibility", t, new, t, observed))
                for r in rt_pull[t]:
                    new = need & ~vis[r]
                    if new:
                        vis[r] |= new
                        dirty |= 1 << r
                        if log is not None:
                            log.append(("observed-visibility", r, new, t, observed))

    def escapes(self) -> bool:
        """Whether some pair (x, y) has y placed and x not placed before y."""
        vis, before = self.vis, self.before
        return any(vis[y] & ~before[y] for y in self.order)

    def broken_laws(self, semantics: ObjectSemantics) -> list[str]:
        """The laws the closure breaks as the visibility of the arbitration
        it places, with every event placed."""
        return _failed(*_law_rows(self.ix, self.vis, self.order, self.before, semantics))

    def relation(self) -> Relation:
        ids = self.ix.ids
        return Relation(self.ix.domain, frozenset(
            (ids[j], ids[i]) for i, v in enumerate(self.vis) for j in _bits(v)))

    def _narration(self) -> tuple[dict[tuple[str, str], Derivation], str | None]:
        """The log of a closure built again over this prefix and seed, read
        back as (why, conflict).  A pair's via is the pair it was derived
        from: for monotonic view the same source at the row whose session
        successor forced it, for observed visibility the lowest-position
        observed source whose reflexive prefix holds the pair's source, and
        for pushed visibility the pushed pair.  The first reflexive pair is
        the conflict, and why stops there."""
        if self._narrated is not None:
            return self._narrated
        ids, before, placed, log = self.ix.ids, self.before, self.placed, []
        Closure(self.h, [ids[i] for i in self.order], self.seed, log)
        why: dict[tuple[str, str], Derivation] = {}
        self._narrated = why, None
        for rule, t, new, src, observed in log:
            for x in _bits(new):
                if rule == "monotonic-view":
                    via = ids[x], ids[src]
                elif rule == "observed-visibility":
                    sources = observed & placed & ~before[x] if placed >> x & 1 else 1 << x
                    via = ids[(sources & -sources).bit_length() - 1], ids[src]
                elif rule == "pushed-visibility":
                    via = ids[src], ids[t]
                else:
                    via = None
                if x == t:
                    self._narrated = why, (f"law {rule} forces {ids[t]} to observe itself "
                                           f"(via {via})")
                    return self._narrated
                why[ids[x], ids[t]] = Derivation(rule, via)
        return self._narrated

    @property
    def why(self) -> dict[tuple[str, str], Derivation]:
        """Each derived pair with the law that forced it, in derivation
        order; up to the first conflict when there is one."""
        return self._narration()[0]

    @property
    def conflict(self) -> str | None:
        return self._narration()[1] if self.conflicted else None

    def chain(self, pair: tuple[str, str]) -> list[str]:
        """Narrate how a pair was derived, walking via-links back to ground
        pairs.  A via was derived before the pair it explains, except that
        a pushed pair may be its own."""
        why, out = self.why, []
        while pair in why:
            d = why[pair]
            step = f"{pair[0]} -> {pair[1]} by {d.rule}"
            if d.via:
                step += f" (from {d.via[0]} -> {d.via[1]})"
            out.append(step)
            pair = None if d.via == pair else d.via
        return out[::-1]


def minimal_visibility(h: History, ar: TotalOrder,
                       seed: Relation | None = None) -> tuple[Relation, Closure]:
    """Least visibility over a fixed arbitration: session order, the pushed
    ground edges, plus the optional seed, closed under the monotone laws,
    and the Closure, which words how it derived each pair.  With a
    conflict there is no least visibility; the relation is then the pairs
    ``Closure.why`` lists, those derived before the first reflexive one."""
    cl = Closure(h, ar.sequence, frozenset() if seed is None else seed.pairs)
    if cl.conflicted:
        return Relation(h.ids, frozenset(cl.why)), cl
    return cl.relation(), cl

# -- decoding forced visibility from return values ----------------------------


@dataclass(frozen=True)
class DecodedConstraints:
    """Per-observer exact visible-update sets recovered from return values.

    edges: forced update -> observer visibility pairs.
    exact: observer id -> the exact set of same-object updates it sees.
    chains: arbitration pairs forced by the order updates appear in an rval.
    unattainable: observers whose rval no update subset can produce.
    An observer with several decodings gets no entry; the search branches
    on its options when it places it.
    """

    edges: frozenset[tuple[str, str]]
    exact: tuple[tuple[str, frozenset[str]], ...]
    chains: frozenset[tuple[str, str]]
    unattainable: tuple[str, ...]

    def exact_map(self) -> dict[str, frozenset[str]]:
        return dict(self.exact)


def decoded_visibility(h: History, semantics: ObjectSemantics) -> DecodedConstraints | None:
    """Invert return values into visibility constraints, when the semantics
    supports it.  None when there is no decoder."""
    if semantics.decode_visibility is None:
        return None
    edges: set[tuple[str, str]] = set()
    exact: list[tuple[str, frozenset[str]]] = []
    chains: set[tuple[str, str]] = set()
    unattainable: list[str] = []
    for e in h.events:
        candidates = tuple(
            (f.id, f.op) for f in h.events
            if f.obj == e.obj and f.id != e.id and semantics.is_update(f.op)
        )
        options = semantics.decode_visibility(e.op, e.rval, candidates)
        if options is not None and not options:
            unattainable.append(e.id)
        elif options is not None and len(options) == 1:
            (order,) = options
            exact.append((e.id, frozenset(order)))
            edges.update((u, e.id) for u in order)
            chains.update(zip(order, order[1:]))
    return DecodedConstraints(frozenset(edges), tuple(exact), frozenset(chains),
                              tuple(unattainable))


# -- membership ----------------------------------------------------------------


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    witness: AbstractExecution | None
    stats: dict = field(compare=False, default_factory=dict)
    refutations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.member


def _find_cycle_text(rel: Relation, labels: dict) -> str:
    """A short narrative for a cyclic arbitration seed: the first cycle a
    depth-first search meets, taking nodes and successors in sorted order.
    The search keeps its own stack, so a long cycle cannot exhaust Python's."""
    graph: dict[str, list[str]] = {v: [] for v in rel.domain}
    for a, b in sorted(rel.pairs):
        graph[a].append(b)
    state: dict[str, int] = {}  # 1 while on the path, 2 once finished
    cycle = None
    for root in sorted(graph):
        if root in state:
            continue
        state[root] = 1
        path, untried = [root], [iter(graph[root])]
        while untried and cycle is None:
            for w in untried[-1]:
                if state.get(w) == 1:
                    cycle = path[path.index(w):] + [w]
                    break
                if w not in state:
                    state[w] = 1
                    path.append(w)
                    untried.append(iter(graph[w]))
                    break
            else:
                state[path.pop()] = 2
                untried.pop()
        if cycle:
            break
    if not cycle:
        return "arbitration constraints are cyclic"
    steps = []
    for a, b in zip(cycle, cycle[1:]):
        steps.append(f"{a} -> {b} ({labels.get((a, b), 'required')})")
    return "arbitration constraints are cyclic: " + ", ".join(steps)


def _required_ar_seed(h: History, decoded: DecodedConstraints | None
                      ) -> tuple[Relation, dict]:
    """Pairs every witness arbitration must contain, with labels for
    refutation text.  Soundness: vis <= ar structurally, so session order
    (RYW) and decoded update edges sit inside ar; PUSHEDAR puts pushed
    real-time pairs there; RETVAL orders an observer's visible updates by
    the rval order."""
    labels: dict[tuple[str, str], str] = {}
    pairs: set[tuple[str, str]] = set()
    for p in h.so.pairs:
        pairs.add(p)
        labels.setdefault(p, "session order")
    pushers = h.pushers()
    for p in h.rt.pairs:
        if p[0] in pushers:
            pairs.add(p)
            labels.setdefault(p, "pushed before in real time (PUSHEDAR)")
    if decoded is not None:
        for p in decoded.chains:
            pairs.add(p)
            labels.setdefault(p, "return value orders these updates (RETVAL)")
        for p in decoded.edges:
            pairs.add(p)
            labels.setdefault(p, "observed update (RETVAL, vis inside ar)")
    return Relation(h.ids, frozenset(pairs)), labels


def _updates(ix: EventIndex, semantics: ObjectSemantics) -> list[int]:
    """Per event the mask of the updates on its object."""
    updates = ix.mask(e.id for e in ix.events if semantics.is_update(e.op))
    return [same & updates for same in ix.same]


def _try_ar(h: History, ar: TotalOrder, seed_vis: frozenset,
            exact: dict[str, frozenset[str]], semantics: ObjectSemantics,
            stats: dict) -> tuple[AbstractExecution | None, str | None]:
    """Close the forced visibility over one arbitration and check the laws.
    Returns (witness, None) or (None, refutation).  ar extends the forced
    order, so it holds every seed pair, session order and every pushed rt
    pair, and an unconflicted closure stays inside it: each law derives
    forward pairs from forward ones, except observed visibility along rt
    into a puller r, which puts x in r's row for x in the reflexive prefix
    of an observed source; if r is not after x, r is in that prefix too,
    so r is in its own row and the closure is conflicted."""
    stats["closures"] = stats.get("closures", 0) + 1
    cl = Closure(h, ar.sequence, seed_vis)
    if cl.conflicted:
        return None, f"ar {list(ar.sequence)}: {cl.conflict}"
    ix = h.index
    updates = _updates(ix, semantics)
    for obs, want in exact.items():
        i = ix.pos[obs]
        got = ix.names(cl.vis[i] & updates[i])
        if got != sorted(want):
            extra = sorted(set(got) - want)
            msg = (f"ar {list(ar.sequence)}: {obs} must see exactly "
                   f"{sorted(want)} to return {ix.events[i].rval!r} (RETVAL) "
                   f"but the laws force {got}")
            if extra:
                msg += ": " + "; ".join(cl.chain((extra[0], obs)))
            return None, msg
    broken = cl.broken_laws(semantics)
    if not broken:
        return AbstractExecution(h, cl.relation(), ar), None
    return None, f"ar {list(ar.sequence)}: laws violated: {', '.join(broken)}"


def _options(ix: EventIndex, i: int, prior: list[int], semantics: ObjectSemantics
             ) -> list[int]:
    """The visible-update sets observer i may have over an arbitration
    prefix that places the positions prior, in that order, before it, as
    masks: subsets of the same-object updates in prior that contain its
    same-object session predecessors and evaluate to its rval in placement
    order, ordered by (size, sorted ids).  With a decoder these are its
    explanations of the rval over those updates that list them in
    placement order; without one every subset is evaluated."""
    events, ids = ix.events, ix.ids
    e = events[i]
    pool = [k for k in prior if ix.same[i] >> k & 1 and semantics.is_update(events[k].op)]
    must = ix.so[i] & sum(1 << k for k in pool)
    explained = None if semantics.decode_visibility is None else semantics.decode_visibility(
        e.op, e.rval, tuple((ids[k], events[k].op) for k in pool))
    out = []
    if explained is not None:
        rank = {ids[k]: r for r, k in enumerate(pool)}
        for explanation in explained:
            ranks = [rank[a] for a in explanation]
            chosen = sum(1 << pool[r] for r in ranks)
            if ranks == sorted(ranks) and chosen & must == must:
                out.append(chosen)
    else:
        optional = [k for k in pool if not must >> k & 1]
        for size in range(len(optional) + 1):
            for combo in itertools.combinations(optional, size):
                chosen = must | sum(1 << k for k in combo)
                ctx = tuple(events[k].op for k in pool if chosen >> k & 1)
                if semantics.eval(ctx, e.op) == e.rval:
                    out.append(chosen)
    out.sort(key=lambda m: (m.bit_count(), ix.names(m)))
    return out


def _prefix_search(h: History, seed_ar: Relation, seed_vis: frozenset,
                   exact: dict[str, frozenset[str]], observers: list[Event],
                   semantics: ObjectSemantics, stats: dict
                   ) -> AbstractExecution | None:
    """The witness over the least accepting linear extension of seed_ar,
    or None; CycleError if seed_ar is cyclic.  Placing an open observer
    (one of observers) branches on its options: a branch seeds the chosen
    updates as visible to it and hides its other same-object updates.  The
    branches of one prefix advance together, in the order of their options,
    so the first accepting branch is the first accepting choice over the
    least accepting arbitration.  A branch is a closure and its hidden
    rows: (observer, mask of the updates it must not see) pairs."""
    ix = h.index
    pos = ix.pos
    updates = _updates(ix, semantics)
    open_ids = {pos[e.id] for e in observers}
    hidden = tuple((pos[obs], updates[pos[obs]] & ~ix.mask(want)) for obs, want in exact.items())

    def refuted(cl: Closure, hidden: tuple) -> bool:
        vis = cl.vis
        return cl.conflicted or any(vis[i] & m for i, m in hidden) or cl.escapes()

    def advance(branches: list, a: str) -> list | None:  # the walk's place
        i = pos[a]
        children = []
        for cl, hidden in branches:
            child = cl.copy()
            child.place(a)
            if i not in open_ids:
                children.append((child, hidden))
                continue
            for chosen in _options(ix, i, child.order[:-1], semantics):
                stats["assignments_tried"] += 1
                branch = child.copy()
                branch.see(i, chosen)
                children.append((branch, (*hidden, (i, updates[i] & ~chosen))))
        live = [(cl, hidden) for cl, hidden in children if not refuted(cl, hidden)]
        stats["prunes"] += len(children) - len(live)
        return live or None

    root = (Closure(h, (), seed_vis), hidden)
    walk = extensions(seed_ar, advance, [root])  # CycleError before any prune counts
    if refuted(*root):
        stats["prunes"] += 1
        return None
    for seq, branches in walk:
        # Not refuted with every event placed: no conflict, vis <= ar by
        # (b), and each observer sees exactly its decoded or chosen updates
        # by the seed and the hidden rows, so only the laws are left to
        # check, on the closure's own rows.
        stats["ars_tried"] += 1
        for cl, _ in branches:
            if not cl.broken_laws(semantics):
                return AbstractExecution(h, cl.relation(), TotalOrder(seq))
    return None


def _narrate(h: History, ar: TotalOrder, seed_vis: frozenset,
             exact: dict[str, frozenset[str]], observers: list[Event],
             semantics: ObjectSemantics, stats: dict) -> str:
    """Why no witness uses arbitration ar: the first open observer, in ar
    order, with no options over it; else, with open observers, that every
    choice breaks the laws; else the closure over ar, narrated."""
    if not observers:
        return _try_ar(h, ar, seed_vis, exact, semantics, stats)[1]
    ix = h.index
    order = [ix.pos[a] for a in ar.sequence]
    rank = {k: r for r, k in enumerate(order)}
    for e in sorted(observers, key=lambda e: rank[ix.pos[e.id]]):
        i = ix.pos[e.id]
        if not _options(ix, i, order[:rank[i]], semantics):
            return (f"ar {list(ar.sequence)}: no visible-update set under "
                    f"this arbitration lets {e.id} return {e.rval!r} (RETVAL)")
    return (f"ar {list(ar.sequence)}: every RETVAL-consistent visibility "
            f"assignment breaks the laws")


def is_gsc(h: History, semantics: ObjectSemantics,
           max_events: int = DEFAULT_MAX_EVENTS) -> MembershipResult:
    """Decide whether any visibility/arbitration pair satisfies all laws.

    One prefix search (see the module docstring) walks the linear
    extensions of the forced arbitration order in lexicographic order and
    branches on an open observer's options when it places it.  The
    witness, when one exists, uses the least accepting arbitration and,
    over it, the first accepting choice of options in arbitration order,
    with the least visibility containing that choice.  A non-member's
    refutations narrate the first MAX_REFUTATIONS linear extensions.
    stats: ars_tried counts the full arbitrations reached, prunes the cut
    branches, assignments_tried the options tried at open observers, and
    closures the closures built from scratch for one arbitration (only
    narrations build them).
    """
    require_searchable(h, max_events)
    stats: dict = {"ars_tried": 0, "closures": 0, "assignments_tried": 0,
                   "prunes": 0}

    decoded = decoded_visibility(h, semantics)
    if decoded and decoded.unattainable:
        refutations = []
        for obs in decoded.unattainable[:MAX_REFUTATIONS]:
            e = h.by_id[obs]
            refutations.append(
                f"{obs} returned {e.rval!r} but no subset of the other "
                f"{e.obj} updates evaluates to that (RETVAL)")
        return MembershipResult(False, None, stats, tuple(refutations))

    seed_ar, labels = _required_ar_seed(h, decoded)
    exact, seed_vis = (decoded.exact_map(), decoded.edges) if decoded else ({}, frozenset())
    observers = [e for e in h.events
                 if semantics.context_sensitive(e.op) and e.id not in exact]
    try:
        witness = _prefix_search(h, seed_ar, seed_vis, exact, observers, semantics, stats)
    except CycleError:
        return MembershipResult(False, None, stats, (_find_cycle_text(seed_ar, labels),))
    if witness is not None:
        return MembershipResult(True, witness, stats)
    return MembershipResult(False, None, stats, tuple(
        _narrate(h, ar, seed_vis, exact, observers, semantics, stats)
        for ar in itertools.islice(linear_extensions(seed_ar), MAX_REFUTATIONS)))
