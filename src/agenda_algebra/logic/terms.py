"""Two-sorted term language over coalitions (C) and agendas (IA).

Terms are sort-correct by construction; building them through the module
functions canonicalizes commutative connectives so that structurally
equal terms compare equal.  Evaluation is compositional over any algebra
object implementing the small operator protocol used below (the frame
complex algebras and the concrete heterogeneous structures both do).

``eval_term`` and ``holds`` evaluate one term or sequent recursively and
are the reference semantics.  Validity checks run a compiled plan
instead: ``_plan`` lists every distinct subterm once, in postorder, with
the algebra method it calls and its atom level (no atoms, agenda atoms
only, or some coalition atom).  A check binds the plan to the algebra
once and hoists each node to the outermost valuation loop it depends
on: atom-free nodes run once, agenda-level nodes once per agenda
valuation, and only nodes that reach a coalition atom run in the inner
loop.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from ..errors import CapExceeded, SortError, UnassignedAtom

C = "C"
IA = "IA"

# op tag -> (result sort, argument sorts)
SIGNATURES = {
    "atomIA": (IA, ()),
    "tau": (IA, ()),
    "botIA": (IA, ()),
    "meet": (IA, (IA, IA)),
    "join": (IA, (IA, IA)),
    "diamondC": (IA, (C,)),
    "rhd": (IA, (C,)),
    "pdra": (IA, (C, IA)),
    "eqless": (IA, (C, IA)),
    "br": (IA, (C, IA)),
    "triangle": (IA, (C, IA)),
    "atomC": (C, ()),
    "top": (C, ()),
    "botC": (C, ()),
    "and": (C, (C, C)),
    "or": (C, (C, C)),
    "not": (C, (C,)),
    "diamdot": (C, (C,)),
    "diamdotb": (C, (C,)),
    "boxdot": (C, (C,)),
    "blacksqdot": (C, (C,)),
    "blacksquare": (C, (IA,)),
    "star": (C, (IA, IA)),
    "brB": (C, (IA, IA)),
}

COMMUTATIVE = {"meet", "join", "and", "or"}


@dataclass(frozen=True)
class Term:
    """Equal to a term built alike: same op, atom name and arguments.

    ``_key`` renders it for ``repr`` and orders commutative arguments; an
    atom renders as its bare name, so it may share a key, not an identity.
    """

    op: str
    args: tuple = ()
    name: str = ""
    _key: str = field(init=False, compare=False, default="")

    def __post_init__(self):
        if self.op not in SIGNATURES:
            raise SortError(f"unknown constructor {self.op!r}")
        sort, arg_sorts = SIGNATURES[self.op]
        if len(self.args) != len(arg_sorts):
            raise SortError(f"{self.op} takes {len(arg_sorts)} arguments")
        for arg, want in zip(self.args, arg_sorts):
            if arg.sort != want:
                raise SortError(
                    f"{self.op} expected a {want}-term, got {arg.sort}"
                )
        object.__setattr__(self, "_key", self._render())
        object.__setattr__(
            self, "_hash", hash((self.op, self.name, self.args))
        )

    def __hash__(self):
        return self._hash

    @property
    def sort(self):
        return SIGNATURES[self.op][0]

    def _render(self):
        if self.op in ("atomIA", "atomC"):
            return self.name
        if not self.args:
            return self.op
        return self.op + "(" + ",".join(a._key for a in self.args) + ")"

    def __repr__(self):
        return self._key

    def atoms(self):
        """Atom names by sort, as (ia_names, c_names)."""
        ia, c = set(), set()
        stack = [self]
        while stack:
            t = stack.pop()
            if t.op == "atomIA":
                ia.add(t.name)
            elif t.op == "atomC":
                c.add(t.name)
            stack.extend(t.args)
        return frozenset(ia), frozenset(c)


def _identity(t):
    """What makes terms equal, as a totally ordered value."""
    return (t.op, t.name, tuple(map(_identity, t.args)))


def _mk(op, *args, name=""):
    if op in COMMUTATIVE:
        # by key, and by identity where two keys tie (an atom named like
        # another term), so either argument order gives one term
        first, second = args
        if second._key < first._key or (
            second._key == first._key and _identity(second) < _identity(first)
        ):
            args = (second, first)
    return Term(op, tuple(args), name)


def atom_ia(name):
    return _mk("atomIA", name=name)


def atom_c(name):
    return _mk("atomC", name=name)


def tau():
    return _mk("tau")


def bot_ia():
    return _mk("botIA")


def meet(a, b):
    return _mk("meet", a, b)


def join(a, b):
    return _mk("join", a, b)


def diamond_c(c):
    return _mk("diamondC", c)


def rhd(c):
    return _mk("rhd", c)


def pdra(c, e):
    return _mk("pdra", c, e)


def eqless(c, e):
    return _mk("eqless", c, e)


def br(c, e):
    return _mk("br", c, e)


def triangle(c, e):
    return _mk("triangle", c, e)


def top_c():
    return _mk("top")


def bot_c():
    return _mk("botC")


def and_c(a, b):
    return _mk("and", a, b)


def or_c(a, b):
    return _mk("or", a, b)


def not_c(a):
    return _mk("not", a)


def diamdot(a):
    return _mk("diamdot", a)


def diamdotb(a):
    return _mk("diamdotb", a)


def boxdot(a):
    return _mk("boxdot", a)


def blacksqdot(a):
    return _mk("blacksqdot", a)


def blacksquare_t(e):
    return _mk("blacksquare", e)


def star_t(e1, e2):
    return _mk("star", e1, e2)


def brb_t(e1, e2):
    return _mk("brB", e1, e2)


@dataclass(frozen=True)
class Sequent:
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if self.lhs.sort != self.rhs.sort:
            raise SortError("sequent sides have different sorts")
        ia1, c1 = self.lhs.atoms()
        ia2, c2 = self.rhs.atoms()
        ia, c = ia1 | ia2, c1 | c2
        shared = sorted(ia & c)
        if shared:
            raise SortError(
                f"atom {shared[0]!r} is used as both an IA-atom and a C-atom"
            )
        object.__setattr__(self, "_atoms", (ia, c))

    @property
    def sort(self):
        return self.lhs.sort

    def __repr__(self):
        return f"{self.lhs!r} |- {self.rhs!r}"

    def atoms(self):
        return self._atoms


# evaluation dispatch: op tag -> algebra method name
_METHODS = {
    "meet": "ia_meet",
    "join": "ia_join",
    "diamondC": "diamond",
    "rhd": "rhd",
    "pdra": "pdra",
    "eqless": "eqless",
    "br": "br",
    "triangle": "triangle",
    "and": "c_and",
    "or": "c_or",
    "not": "c_not",
    "diamdot": "diamdot",
    "diamdotb": "diamdotb",
    "boxdot": "boxdot",
    "blacksqdot": "blacksqdot",
    "blacksquare": "blacksquare",
    "star": "star",
    "brB": "brB",
}

_CONSTANTS = {
    "tau": "ia_top",
    "botIA": "ia_bot",
    "top": "c_top",
    "botC": "c_bot",
}


def eval_term(algebra, valuation, term, _cache=None):
    """Evaluate a term in the algebra under an atom valuation."""
    cache = {} if _cache is None else _cache
    if term in cache:
        return cache[term]
    if term.op in ("atomIA", "atomC"):
        if term.name not in valuation:
            raise UnassignedAtom(f"atom {term.name!r} has no value")
        value = valuation[term.name]
    elif term.op in _CONSTANTS:
        value = getattr(algebra, _CONSTANTS[term.op])()
    else:
        args = [eval_term(algebra, valuation, a, cache) for a in term.args]
        value = getattr(algebra, _METHODS[term.op])(*args)
    cache[term] = value
    return value


def holds(algebra, valuation, sequent, _cache=None):
    cache = {} if _cache is None else _cache
    lhs = eval_term(algebra, valuation, sequent.lhs, cache)
    rhs = eval_term(algebra, valuation, sequent.rhs, cache)
    leq = algebra.ia_leq if sequent.sort == IA else algebra.c_leq
    return leq(lhs, rhs)


@dataclass(frozen=True)
class ValidityResult:
    valid: bool
    counterexample: dict | None = None


# atom levels of a plan node: the valuation loop it must run in
_FREE, _IA_LEVEL, _C_LEVEL = 0, 1, 2


@dataclass(frozen=True)
class _Plan:
    """Postorder evaluation plan of a tuple of terms.

    Slot k is the k-th distinct subterm, children first.  Per slot,
    ``methods`` holds the algebra method name (None for an atom),
    ``firsts`` and ``seconds`` the argument slots (None where the method
    takes fewer), and ``levels`` and ``sorts`` its atom level and sort.
    ``roots`` gives the slot of each planned term, and ``ia_atoms`` and
    ``c_atoms`` the (name, slot) pairs of the atoms, sorted by name.
    """

    methods: tuple
    firsts: tuple
    seconds: tuple
    levels: tuple
    sorts: tuple
    roots: tuple
    ia_atoms: tuple
    c_atoms: tuple

    def bind(self, algebra):
        """Per level, the steps (slot, bound method, argument slots)."""
        steps = ([], [], [])
        for slot, method in enumerate(self.methods):
            if method is not None:
                steps[self.levels[slot]].append((
                    slot, getattr(algebra, method),
                    self.firsts[slot], self.seconds[slot],
                ))
        return steps


def _plan(terms):
    """Compile terms into a ``_Plan``; shared subterms get one slot."""
    slots = {}
    methods, firsts, seconds, levels, sorts = [], [], [], [], []
    stack = list(reversed(terms))
    while stack:
        t = stack[-1]
        if t in slots:
            stack.pop()
            continue
        pending = [a for a in t.args if a not in slots]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        slots[t] = len(methods)
        if t.op in ("atomIA", "atomC"):
            methods.append(None)
            levels.append(_IA_LEVEL if t.sort == IA else _C_LEVEL)
        else:
            methods.append(_CONSTANTS.get(t.op) or _METHODS[t.op])
            levels.append(max(
                (levels[slots[a]] for a in t.args), default=_FREE
            ))
        first, second = (t.args + (None, None))[:2]
        firsts.append(None if first is None else slots[first])
        seconds.append(None if second is None else slots[second])
        sorts.append(t.sort)

    def atoms(op):
        return tuple(sorted(
            (t.name, k) for t, k in slots.items() if t.op == op
        ))

    return _Plan(
        tuple(methods), tuple(firsts), tuple(seconds), tuple(levels),
        tuple(sorts), tuple(slots[t] for t in terms),
        atoms("atomIA"), atoms("atomC"),
    )


@functools.lru_cache(maxsize=256)
def _sequent_plan(sequent):
    return _plan((sequent.lhs, sequent.rhs))


def _run(steps, vals):
    for slot, fn, a, b in steps:
        if b is not None:
            vals[slot] = fn(vals[a], vals[b])
        elif a is not None:
            vals[slot] = fn(vals[a])
        else:
            vals[slot] = fn()


def _core(algebra, ia_objects, c_objects):
    """The algebra a check runs on, and each domain as (object, value).

    An algebra with a ``core`` (a concrete structure) is checked on that
    mask algebra; its agendas and coalitions enter as the core values
    ``core_ia`` and ``core_c`` give them.
    """
    core = getattr(algebra, "core", None)
    if core is None:
        return (
            algebra,
            [(x, x) for x in ia_objects],
            [(x, x) for x in c_objects],
        )
    return (
        core,
        [(x, algebra.core_ia(x)) for x in ia_objects],
        [(x, algebra.core_c(x)) for x in c_objects],
    )


def _check(algebra, sequent, atom_cap, ia_domain, c_domain):
    """Validity with atoms ranging over two domains, given as callables.

    The domains are computed only once the sequent is within the atom
    cap.  The sequent's cached plan is bound to the algebra, or to its
    core, once per check; atom-free nodes run once, agenda-level nodes
    once per agenda valuation, and the rest per full valuation.
    Valuations run agenda atoms outermost, each sort in
    ``itertools.product`` order over its sorted atom names, so the
    counterexample is the first failing valuation, mapped back to the
    domain objects by position.
    ``holds`` gives the same verdicts one valuation at a time.
    """
    ia_names, c_names = sequent.atoms()
    if len(ia_names) > atom_cap or len(c_names) > atom_cap:
        raise CapExceeded(
            f"sequent uses {len(ia_names)} IA-atoms and {len(c_names)}"
            f" C-atoms, more than {atom_cap} atoms per sort"
        )
    core, ia_pairs, c_pairs = _core(algebra, ia_domain(), c_domain())
    plan = _sequent_plan(sequent)
    free, ia_steps, c_steps = plan.bind(core)
    leq = core.ia_leq if sequent.sort == IA else core.c_leq
    lhs, rhs = plan.roots
    ia_slots = [slot for _, slot in plan.ia_atoms]
    c_slots = [slot for _, slot in plan.c_atoms]
    vals = [None] * len(plan.methods)
    _run(free, vals)
    for ia_choice in itertools.product(ia_pairs, repeat=len(ia_slots)):
        for slot, (_, value) in zip(ia_slots, ia_choice):
            vals[slot] = value
        _run(ia_steps, vals)
        for c_choice in itertools.product(c_pairs, repeat=len(c_slots)):
            for slot, (_, value) in zip(c_slots, c_choice):
                vals[slot] = value
            _run(c_steps, vals)
            if not leq(vals[lhs], vals[rhs]):
                counter = {
                    name: obj
                    for (name, _), (obj, _) in zip(
                        plan.ia_atoms + plan.c_atoms, ia_choice + c_choice
                    )
                }
                return ValidityResult(False, counter)
    return ValidityResult(True)


def check_validity(algebra, sequent, atom_cap=2):
    """Exhaustive validity over all valuations into the algebra."""
    return _check(algebra, sequent, atom_cap, algebra.all_ia, algebra.all_c)


def check_flat_validity(algebra, sequent, atom_cap=2):
    """Validity with atoms ranging over irreducibles only.

    IA-atoms take coatom values and C-atoms take atom values; this is the
    quantification pattern under which the first-order correspondences
    hold (full valuations provably break several of them).
    """
    return _check(
        algebra, sequent, atom_cap, algebra.ia_coatoms, algebra.c_atoms
    )
