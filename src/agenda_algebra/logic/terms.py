"""Two-sorted term language over coalitions (C) and agendas (IA).

Terms are sort-correct by construction; building them through the module
functions canonicalizes commutative connectives so that structurally
equal terms compare equal.  Evaluation is compositional over any algebra
object implementing the small operator protocol used below (the frame
complex algebras and the concrete heterogeneous structures both do).
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class Term:
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
        object.__setattr__(self, "_hash", hash(self._key))

    def __eq__(self, other):
        return isinstance(other, Term) and self._key == other._key

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


def _mk(op, *args, name=""):
    if op in COMMUTATIVE:
        args = tuple(sorted(args, key=lambda t: t._key))
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
        object.__setattr__(self, "_atoms", (ia1 | ia2, c1 | c2))

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


def _valuations(ia_names, c_names, ia_domain, c_domain):
    ia_names, c_names = sorted(ia_names), sorted(c_names)
    for ia_vals in itertools.product(ia_domain, repeat=len(ia_names)):
        for c_vals in itertools.product(c_domain, repeat=len(c_names)):
            v = dict(zip(ia_names, ia_vals))
            v.update(zip(c_names, c_vals))
            yield v


def _check(algebra, sequent, atom_cap, ia_domain, c_domain):
    """Validity with atoms ranging over two domains, given as callables.

    The domains are computed only once the sequent is within the atom cap.
    """
    ia_names, c_names = sequent.atoms()
    if len(ia_names) > atom_cap or len(c_names) > atom_cap:
        raise CapExceeded(
            f"sequent uses {len(ia_names)} IA-atoms and {len(c_names)}"
            f" C-atoms, more than {atom_cap} atoms per sort"
        )
    for v in _valuations(ia_names, c_names, ia_domain(), c_domain()):
        if not holds(algebra, v, sequent):
            return ValidityResult(False, dict(v))
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
