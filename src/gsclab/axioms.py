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

The search builds arbitrations as prefixes (after Wing & Gong 1993 and
Lowe 2017) on the walk ``relations.extensions``, which refuses a cyclic
forced order before it places anything.  Its state is the list of live
branches, each keeping the closure over the prefix; placing an event
advances every branch and drops one whose closure has (a) a conflict, (b)
a pair (x, y) with y placed and x not placed before y, or (c) an update
outside an observer's decoded or chosen set visible to it.
A prefix's closure is contained in the closure over every completion, and
each of (a)-(c), once true, stays true, so no accepting arbitration is cut.
A full arbitration that none of them cuts keeps the closure the branch
built: with every event placed it is the least visibility over that
arbitration containing the branch's seed, (b) puts it inside arbitration
and (c) with the seed gives each observer exactly its decoded or chosen
updates, so only the laws are checked there.

check_axioms decides each law's inclusion over rows of bitmasks indexed by
arbitration position, built on every call and cached nowhere: per event
the masks of its visibility, session-order and real-time predecessors,
plus the masks of the pushing and pulling events.  A law's missing pairs
are one mask per target event, and become sorted id pairs only when the
law fails; a passing verdict is a shared constant.

Enumerating update subsets only (when the semantics classifies operations)
is justified by the read-only law: eval ignores read-only context entries,
so visibility of read-only events never changes an rval.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .model import (
    PULL,
    PUSH,
    AbstractExecution,
    Event,
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

    @property
    def ok(self) -> bool:
        return not self.structural and all(v.holds for v in self.verdicts)

    def failed(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.verdicts if not v.holds)


def _limit(pairs, n=4):
    return tuple(sorted(pairs))[:n]


def _successors(pairs) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for a, b in pairs:
        out.setdefault(a, []).append(b)
    return out


_RETVAL_NOTE = "rval must equal eval over visible same-object context"
# A passing verdict carries nothing of its execution, so one object serves
# every report.
_HOLDS = {name: AxiomVerdict(name, True) for name in AXIOM_NAMES}
_HOLDS["RETVAL"] = AxiomVerdict("RETVAL", True, (), _RETVAL_NOTE)
_HOLDS["EVENTUAL"] = AxiomVerdict("EVENTUAL", True, (),
                                  "vacuously true: histories here are finite")


def _verdict(name: str, missing: list[int], seq: tuple[str, ...]) -> AxiomVerdict:
    """The verdict of a law whose missing pairs are missing[i], the mask of
    the positions j with (seq[j], seq[i]) missing."""
    if not any(missing):
        return _HOLDS[name]
    return AxiomVerdict(name, False, _limit(
        (seq[j], seq[i]) for i, m in enumerate(missing)
        for j in range(m.bit_length()) if m >> j & 1))


def check_axioms(x: AbstractExecution, semantics: ObjectSemantics) -> AxiomReport:
    """Evaluate all eight laws against a concrete execution, over rows of
    bitmasks built once per call and indexed by arbitration position: per
    event the masks of its visibility, session-order and real-time
    predecessors.  Each law's missing pairs are one mask per target event,
    and become sorted id pairs only when the law fails."""
    h, seq = x.history, x.ar.sequence
    n = len(seq)
    pos = {a: i for i, a in enumerate(seq)}
    # What structural_violations checks, read off the rows; it runs only
    # to word a violation.  A valid history's rt is over its ids.
    if validate_history(h) or not x.vis.domain == h.rt.domain == pos.keys():
        return AxiomReport((), tuple(x.structural_violations()))
    vis, so, rt = [0] * n, [0] * n, [0] * n
    for a, b in x.vis.pairs:
        vis[pos[b]] |= 1 << pos[a]
    if any(v >> i for i, v in enumerate(vis)):  # a pair not forward in ar
        return AxiomReport((), tuple(x.structural_violations()))
    so_pairs = [(pos[a], pos[b]) for a, b in h.so.pairs]
    rt_pairs = [(pos[a], pos[b]) for a, b in h.rt.pairs]
    for i, j in so_pairs:
        so[j] |= 1 << i
    for i, j in rt_pairs:
        rt[j] |= 1 << i
    at: list = [None] * n  # the event at each position
    for e in h.events:
        at[pos[e.id]] = e
    pushers = pullers = 0
    same: dict[str, list] = {}  # per object its (bit, op) in arbitration order
    for i, e in enumerate(at):
        bit = 1 << i
        if PUSH in e.fences:
            pushers |= bit
        if PULL in e.fences:
            pullers |= bit
        same.setdefault(e.obj, []).append((bit, e.op))
    verdicts = []

    bad = []
    for e, m in zip(at, vis):
        got = semantics.eval(tuple(op for bit, op in same[e.obj] if m & bit), e.op)
        if got != e.rval:
            bad.append((e.id, got))
    verdicts.append(AxiomVerdict("RETVAL", False, _limit(bad), _RETVAL_NOTE)
                    if bad else _HOLDS["RETVAL"])

    verdicts.append(_verdict("RYW", [s & ~v for s, v in zip(so, vis)], seq))

    # vis ; so <= vis
    seen = [0] * n
    for i, j in so_pairs:
        seen[j] |= vis[i]
    verdicts.append(_verdict("MONOTONICVIEW", [s & ~v for s, v in zip(seen, vis)], seq))

    # ar? ; (vis \ so) ; (rt & E x EPull)? <= vis: a target must see the
    # arbitration prefix up to its last source, where its sources are its
    # own vis \ so predecessors and, when it pulls, those of its rt
    # predecessors
    observed = [v & ~s for v, s in zip(vis, so)]
    via = [0] * n  # (vis \ so) ; rt
    for i, j in rt_pairs:
        via[j] |= observed[i]
    missing = []
    for i in range(n):
        src = observed[i] | via[i] if pullers >> i & 1 else observed[i]
        missing.append((1 << src.bit_length()) - 1 & ~vis[i])
    verdicts.append(_verdict("OBSERVEDVIS", missing, seq))

    # ar? ; (rt? & EPush x EPull) <= vis?: a puller must see every other
    # event up to the last-arbitrated pusher at or rt-before it
    missing = []
    for i in range(n):
        src = (rt[i] | 1 << i) & pushers if pullers >> i & 1 else 0
        missing.append((1 << src.bit_length()) - 1 & ~vis[i] & ~(1 << i))
    verdicts.append(_verdict("PUSHEDVIS", missing, seq))

    # (vis \ so) ; rt <= ar
    verdicts.append(_verdict("OBSERVEDAR", [v >> i << i for i, v in enumerate(via)], seq))

    # rt & (EPush x E) <= ar
    verdicts.append(_verdict("PUSHEDAR", [(r & pushers) >> i << i for i, r in enumerate(rt)],
                             seq))

    verdicts.append(_HOLDS["EVENTUAL"])
    return AxiomReport(tuple(verdicts))


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
    every completion, since placing events only adds predecessors.  Tracks a
    derivation per pair so refutations can say which law forced an
    unwanted edge.

    conflict is set when a law demands a reflexive pair where the law's
    right-hand side is vis rather than vis?; no execution over any
    completion of the prefix can satisfy the laws then.
    """

    def __init__(self, h: History, placed, seed):
        self.h = h
        self.placed: list[str] = list(placed)
        self.pos = {a: i for i, a in enumerate(self.placed)}
        self.why: dict[tuple[str, str], Derivation] = {}  # the pairs, with how
        self.conflict: str | None = None
        # per-history tables, shared by copies
        pushers, pullers = h.pushers(), h.pullers()
        self._rt_pull_succ = _successors(p for p in h.rt.pairs if p[1] in pullers)
        self._so_succ = _successors(sorted(h.so.pairs))
        # ar? ; (rt? & EPush x EPull) <= vis?: ground, independent of vis
        base = {p for p in h.rt.pairs if p[0] in pushers and p[1] in pullers}
        base |= {(e, e) for e in pushers & pullers}
        self._pushed = _successors(sorted(base))  # by source
        for rule, pairs in (("session-order", h.so.pairs), ("seed", seed)):
            for a, b in sorted(pairs):
                self.add(a, b, rule)
        for a, targets in self._pushed.items():
            for b in targets:
                for c in self._ar_preds_refl(a):
                    if c != b:
                        self.add(c, b, "pushed-visibility", (a, b))
        self.close(sorted(self.why))

    def _ar_preds_refl(self, a: str) -> list[str]:
        i = self.pos.get(a)
        return [a] if i is None else self.placed[: i + 1]

    def add(self, a: str, b: str, rule: str, via=None) -> bool:
        if a == b:
            if rule in ("monotonic-view", "observed-visibility"):
                self.conflict = (f"law {rule} forces {a} to observe itself "
                                 f"(via {via})")
            return False
        if (a, b) in self.why:
            return False
        self.why[(a, b)] = Derivation(rule, via)
        return True

    def copy(self) -> "Closure":
        new = object.__new__(Closure)
        new.__dict__.update(self.__dict__)
        new.placed, new.pos, new.why = self.placed[:], self.pos.copy(), self.why.copy()
        return new

    def place(self, a: str) -> None:
        """Append a to the arbitration prefix and close again.  Only the
        rules that read a's arbitration predecessors fire anew: the pushed
        ground pairs from a, and observed visibility on the pairs from a."""
        self.pos[a] = len(self.placed)
        self.placed.append(a)
        queue = [p for p in self.why if p[0] == a]
        for b in self._pushed.get(a, ()):
            for c in self.placed:
                if c != b and self.add(c, b, "pushed-visibility", (a, b)):
                    queue.append((c, b))
        self.close(queue)

    def close(self, queue: list[tuple[str, str]]) -> None:
        so_pairs = self.h.so.pairs
        while queue and self.conflict is None:
            a, b = queue.pop()
            for c in self._so_succ.get(b, ()):
                if self.add(a, c, "monotonic-view", (a, b)):
                    queue.append((a, c))
                if self.conflict:
                    return
            if (a, b) not in so_pairs:
                # ar? ; {(a, b)} ; (rt & E x EPull)? <= vis
                rights = (b, *self._rt_pull_succ.get(b, ()))
                for left in self._ar_preds_refl(a):
                    for right in rights:
                        if (left, right) != (a, b):
                            if self.add(left, right, "observed-visibility", (a, b)):
                                queue.append((left, right))
                            if self.conflict:
                                return

    def relation(self) -> Relation:
        return Relation(self.h.ids, frozenset(self.why))

    def chain(self, pair: tuple[str, str]) -> list[str]:
        """Narrate how a pair was derived, walking via-links back to seeds."""
        out: list[str] = []
        seen = set()
        todo = [pair]
        while todo:
            p = todo.pop()
            if p in seen or p not in self.why:
                continue
            seen.add(p)
            d = self.why[p]
            step = f"{p[0]} -> {p[1]} by {d.rule}"
            if d.via:
                step += f" (from {d.via[0]} -> {d.via[1]})"
                todo.append(d.via)
            out.append(step)
        return list(reversed(out))


def minimal_visibility(h: History, ar: TotalOrder,
                       seed: Relation | None = None) -> tuple[Relation, Closure]:
    """Least visibility over a fixed arbitration: session order, the pushed
    ground edges, plus the optional seed, closed under the monotone laws."""
    cl = Closure(h, ar.sequence, frozenset() if seed is None else seed.pairs)
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


def _narrate_escape(cl: Closure, pair: tuple[str, str], reason: str) -> str:
    return reason + ": " + "; ".join(cl.chain(pair))


def _try_ar(h: History, ar: TotalOrder, seed_vis: frozenset,
            exact: dict[str, frozenset[str]], semantics: ObjectSemantics,
            stats: dict) -> tuple[AbstractExecution | None, str | None]:
    """Close the forced visibility over one arbitration and check the laws.
    Returns (witness, None) or (None, refutation)."""
    stats["closures"] = stats.get("closures", 0) + 1
    vis, cl = minimal_visibility(h, ar, Relation(h.ids, seed_vis))
    if cl.conflict:
        return None, f"ar {list(ar.sequence)}: {cl.conflict}"
    for a, b in vis.pairs:
        if not ar.before(a, b):
            return None, _narrate_escape(
                cl, (a, b),
                f"ar {list(ar.sequence)}: forced visibility {a} -> {b} "
                f"contradicts this arbitration")
    by_id = h.by_id
    for obs, want in exact.items():
        got = frozenset(
            a for a in vis.predecessors(obs)
            if by_id[a].obj == by_id[obs].obj and semantics.is_update(by_id[a].op)
        )
        if got != want:
            extra = sorted(got - want)
            culprit = (extra[0], obs) if extra else None
            msg = (f"ar {list(ar.sequence)}: {obs} must see exactly "
                   f"{sorted(want)} to return {by_id[obs].rval!r} (RETVAL) "
                   f"but the laws force {sorted(got)}")
            if culprit and culprit in cl.why:
                msg = _narrate_escape(cl, culprit, msg)
            return None, msg
    x = AbstractExecution(h, vis, ar)
    report = check_axioms(x, semantics)
    if report.ok:
        return x, None
    names = ", ".join(report.failed())
    return None, f"ar {list(ar.sequence)}: laws violated: {names}"


def _options(h: History, e: Event, placed, pos, semantics: ObjectSemantics
             ) -> list[frozenset[str]]:
    """The visible-update sets observer e may have over an arbitration
    prefix that places it: subsets of the same-object updates placed before
    it that contain its same-object session predecessors and evaluate to
    its rval in placement order, ordered by (size, sorted ids)."""
    by_id = h.by_id
    pool = [a for a in placed[: pos[e.id]]
            if by_id[a].obj == e.obj and semantics.is_update(by_id[a].op)]
    must = h.so.predecessors(e.id) & set(pool)
    optional = sorted(set(pool) - must)
    out = []
    for k in range(len(optional) + 1):
        for combo in itertools.combinations(optional, k):
            chosen = must | set(combo)
            ctx = tuple(by_id[a].op for a in pool if a in chosen)
            if semantics.eval(ctx, e.op) == e.rval:
                out.append(frozenset(chosen))
    out.sort(key=lambda s: (len(s), sorted(s)))
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
    least accepting arbitration."""
    by_id = h.by_id
    open_ids = {e.id for e in observers}

    def hide(wants) -> frozenset[tuple[str, str]]:
        """The (update, observer) pairs outside each observer's wanted set
        on its object."""
        return frozenset(
            (e.id, obs) for obs, want in wants for e in h.events
            if e.obj == by_id[obs].obj and semantics.is_update(e.op) and e.id not in want)

    def refuted(cl: Closure, hidden: frozenset) -> bool:
        if cl.conflict or not hidden.isdisjoint(cl.why):
            return True
        pos = cl.pos
        for x, y in cl.why:
            py = pos.get(y)
            if py is not None and pos.get(x, py) >= py:  # unplaced x: not before
                return True
        return False

    def advance(branches: list, a: str) -> list | None:  # the walk's place
        children = []
        for cl, hidden in branches:
            child = cl.copy()
            child.place(a)
            if a not in open_ids:
                children.append((child, hidden))
                continue
            for chosen in _options(h, by_id[a], child.placed, child.pos, semantics):
                stats["assignments_tried"] += 1
                branch = child.copy()
                branch.close([(u, a) for u in sorted(chosen)
                              if branch.add(u, a, "seed")])
                children.append((branch, hidden | hide([(a, chosen)])))
        live = [(cl, hidden) for cl, hidden in children if not refuted(cl, hidden)]
        stats["prunes"] += len(children) - len(live)
        return live or None

    root = (Closure(h, (), seed_vis), hide(exact.items()))
    walk = extensions(seed_ar, advance, [root])  # CycleError before any prune counts
    if refuted(*root):
        stats["prunes"] += 1
        return None
    for seq, branches in walk:
        # Not refuted with every event placed: no conflict, vis <= ar by
        # (b), and each observer sees exactly its decoded or chosen updates
        # by the seed and the hidden pairs, so only the laws are left to
        # check.
        stats["ars_tried"] += 1
        ar = TotalOrder(seq)
        for cl, _ in branches:
            x = AbstractExecution(h, cl.relation(), ar)
            if check_axioms(x, semantics).ok:
                return x
    return None


def _narrate(h: History, ar: TotalOrder, seed_vis: frozenset,
             exact: dict[str, frozenset[str]], observers: list[Event],
             semantics: ObjectSemantics, stats: dict) -> str:
    """Why no witness uses arbitration ar: the first open observer, in ar
    order, with no options over it; else, with open observers, that every
    choice breaks the laws; else the closure over ar, narrated."""
    if not observers:
        return _try_ar(h, ar, seed_vis, exact, semantics, stats)[1]
    pos = {a: i for i, a in enumerate(ar.sequence)}
    for e in sorted(observers, key=lambda e: pos[e.id]):
        if not _options(h, e, ar.sequence, pos, semantics):
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
