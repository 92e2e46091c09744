"""Exact calculus of truncated polyhomogeneity index sets.

An index set records, for each power of a boundary defining function, the
highest power of a logarithm that may accompany it in an asymptotic
expansion.  We represent a set by its generator list: strictly increasing
rational powers with strictly increasing log orders, together with a
truncation power beyond which nothing is asserted.  The represented
log-bound function is the monotone hull

    k(p) = max{k : (p0, k) a generator, p0 <= p},    p < truncation,

which is a sound upper bound for the closure axioms.  All arithmetic is
exact (``fractions.Fraction`` powers, integer log orders).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

MAX_DENOMINATOR = 64


class RecursionError_(RuntimeError):
    """Index-set fixed-point iteration exceeded its stabilization bound."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        f = x
    elif isinstance(x, int):
        f = Fraction(x)
    elif isinstance(x, str):
        f = Fraction(x)
    elif isinstance(x, float):
        if not x == int(x):
            raise ValueError(f"power {x!r} is not exactly representable; pass a Fraction")
        f = Fraction(int(x))
    else:
        raise TypeError(f"cannot interpret {x!r} as a rational power")
    if f.denominator > MAX_DENOMINATOR:
        raise ValueError(f"power denominator {f.denominator} exceeds limit {MAX_DENOMINATOR}")
    return f


def _normalize(pairs: Iterable[tuple[Fraction, int]], trunc: Fraction):
    """Canonical generator tuple: monotone hull of the given (power, log) pairs."""
    kept: list[tuple[Fraction, int]] = []
    for p, k in sorted(pairs, key=lambda t: (t[0], -t[1])):
        if p >= trunc:
            continue
        if p < 0:
            raise ValueError(f"negative power {p} in index set")
        if kept and kept[-1][1] >= k:
            continue  # dominated by an earlier generator
        if kept and kept[-1][0] == p:
            continue  # same power, smaller log order
        kept.append((p, int(k)))
    return tuple(kept)


@dataclass(frozen=True)
class IndexSet:
    """Truncated index set as a power -> log-order step function."""

    generators: tuple[tuple[Fraction, int], ...]
    truncation: Fraction

    # -- constructors ---------------------------------------------------

    @staticmethod
    def make(pairs: Iterable[tuple[object, int]], truncation) -> "IndexSet":
        trunc = _frac(truncation)
        gens = _normalize(((_frac(p), int(k)) for p, k in pairs), trunc)
        return IndexSet(gens, trunc)

    @staticmethod
    def empty(truncation) -> "IndexSet":
        return IndexSet((), _frac(truncation))

    @staticmethod
    def single(p, k, truncation) -> "IndexSet":
        return IndexSet.make([(p, k)], truncation)

    @staticmethod
    def zero(truncation) -> "IndexSet":
        return IndexSet.make([(0, 0)], truncation)

    # -- queries ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.generators

    @property
    def min_power(self) -> Fraction | None:
        return self.generators[0][0] if self.generators else None

    def log_bound(self, p) -> int | None:
        """Highest admissible log order at power ``p`` (None if absent)."""
        p = _frac(p)
        if p >= self.truncation:
            raise ValueError(f"power {p} is at or beyond the truncation {self.truncation}")
        best = None
        for p0, k in self.generators:
            if p0 <= p:
                best = k
            else:
                break
        return best

    def restrict(self, truncation) -> "IndexSet":
        trunc = _frac(truncation)
        if trunc > self.truncation:
            raise ValueError("cannot extend a truncation")
        return IndexSet(_normalize(self.generators, trunc), trunc)

    def contains(self, other: "IndexSet") -> bool:
        """Pointwise k(p) comparison on powers below both truncations."""
        trunc = min(self.truncation, other.truncation)
        for p in {q for q, _ in other.generators if q < trunc}:
            ko = other.log_bound(p) if p < other.truncation else None
            ks = self.log_bound(p) if p < self.truncation else None
            if ko is None:
                continue
            if ks is None or ks < ko:
                return False
        return True

    def __str__(self) -> str:
        body = ", ".join(f"({p},{k})" for p, k in self.generators)
        return f"IndexSet[{body}; p<{self.truncation}]"


# -- serialization (CLI golden-test format: one "p k" line per generator) --


def serialize(e: IndexSet) -> str:
    lines = [f"{p} {k}" for p, k in e.generators]
    return "\n".join(lines) + ("\n" if lines else "")


def parse(text: str, truncation) -> IndexSet:
    pairs = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        p_str, k_str = line.split()
        pairs.append((Fraction(p_str), int(k_str)))
    return IndexSet.make(pairs, truncation)


# -- basic operations --------------------------------------------------


def union(a: IndexSet, b: IndexSet) -> IndexSet:
    trunc = min(a.truncation, b.truncation)
    pairs = list(a.generators) + list(b.generators)
    return IndexSet(_normalize(pairs, trunc), trunc)


def extended_union(*sets: IndexSet) -> IndexSet:
    """Union plus one extra log order wherever several arguments overlap."""
    sets = [s for s in sets]
    if not sets:
        raise ValueError("extended_union needs at least one argument")
    if len(sets) == 1:
        return sets[0]
    trunc = min(s.truncation for s in sets)
    bps = sorted({p for s in sets for p, _ in s.generators if p < trunc})
    pairs = []
    for p in bps:
        ks = [s.log_bound(p) if p < s.truncation else None for s in sets]
        ks = [k for k in ks if k is not None]
        if not ks:
            continue
        pairs.append((p, sum(ks) + len(ks) - 1 if len(ks) > 1 else ks[0]))
    return IndexSet(_normalize(pairs, trunc), trunc)


def _sum_truncation(a: IndexSet, b: IndexSet) -> Fraction:
    pa = a.min_power if not a.is_empty else a.truncation
    pb = b.min_power if not b.is_empty else b.truncation
    return min(a.truncation + pb, b.truncation + pa)


def sum_sets(a: IndexSet, b: IndexSet) -> IndexSet:
    """Index set of a product: powers add, log orders add."""
    trunc = _sum_truncation(a, b)
    if a.is_empty or b.is_empty:
        return IndexSet.empty(trunc)
    pairs = [(pa + pb, ka + kb) for pa, ka in a.generators for pb, kb in b.generators]
    return IndexSet(_normalize(pairs, trunc), trunc)


def shift(a: IndexSet, n: int) -> IndexSet:
    """Add the integer ``n`` to every power (and to the truncation)."""
    n = int(n)
    trunc = a.truncation + n
    pairs = [(p + n, k) for p, k in a.generators]
    return IndexSet(_normalize(pairs, trunc), trunc)


def scale_sum(a: IndexSet, j: int) -> IndexSet:
    """j-fold sum of a set with itself."""
    if j < 1:
        raise ValueError("scale_sum needs j >= 1")
    out = a
    for _ in range(j - 1):
        out = sum_sets(out, a)
    return out


def elog(truncation) -> IndexSet:
    """Integer powers with log order growing with the power: k(p) = floor(p)."""
    trunc = _frac(truncation)
    n = math.ceil(trunc)
    return IndexSet.make([(i, i) for i in range(n) if i < trunc], trunc)


def elog_prime(truncation) -> IndexSet:
    """Same as :func:`elog` with the constant (power 0) slot removed."""
    trunc = _frac(truncation)
    n = math.ceil(trunc)
    return IndexSet.make([(i, i) for i in range(1, n) if i < trunc], trunc)


def drop_zero_log(a: IndexSet) -> IndexSet:
    """Lower the power-0 log bound to 0, leaving powers >= 1 untouched."""
    if a.is_empty or a.min_power > 0:
        return a
    for p, _ in a.generators:
        if 0 < p < 1:
            raise ValueError("drop_zero_log expects no generators strictly between 0 and 1")
    pairs = [(Fraction(0), 0)] + [(p, k) for p, k in a.generators if p >= 1]
    return IndexSet(_normalize(pairs, a.truncation), a.truncation)


# -- transport bookkeeping ---------------------------------------------


def transport_index_rho(e: IndexSet) -> IndexSet:
    """Index set of the solution u of  rho d/drho u = f,  f of index set e."""
    if e.is_empty:
        raise ValueError("transport_index_rho needs a nonempty input")
    zero = IndexSet.zero(e.truncation)
    if e.min_power == 0:
        return extended_union(e, zero)
    return union(e, zero)


def transport_index_two_face(e1: IndexSet, e2: IndexSet) -> IndexSet:
    """Index set at the first face of the solution of the two-face transport."""
    if e1.is_empty or e2.is_empty:
        raise ValueError("transport_index_two_face needs nonempty inputs")
    return extended_union(e1, e2)


# -- the index recursion ------------------------------------------------


@dataclass(frozen=True)
class RecursionResult:
    e0: IndexSet
    ei_prime: IndexSet
    ei_bar: IndexSet
    ei: IndexSet
    eplus: IndexSet
    iterations_used: int


def _nonlinear_closure_terms(e: IndexSet, trunc: Fraction) -> list[IndexSet]:
    """The sweep of sets j*(e shifted down one) shifted back up, j = 1, 2, ...

    Terms with j beyond ceil(trunc / pmin) start at or beyond the
    truncation and are dropped.
    """
    if e.is_empty:
        return []
    shifted = shift(e, 1)
    pmin = shifted.min_power
    jmax = math.ceil(trunc / pmin)
    out = []
    for j in range(1, jmax + 1):
        term = shift(scale_sum(shifted, j), -1)
        if term.min_power is not None and term.min_power < trunc:
            out.append(term.restrict(min(trunc, term.truncation)))
    return out


def _close_e0(e00: IndexSet, trunc: Fraction, with_elog_prime: bool, cap: int) -> IndexSet:
    ep = elog_prime(trunc)
    current = e00.restrict(min(trunc, e00.truncation))
    for _ in range(cap + 1):
        pieces = [current]
        if with_elog_prime and not current.is_empty:
            pieces.append(sum_sets(current, ep).restrict(trunc))
        pieces.extend(t.restrict(trunc) for t in _nonlinear_closure_terms(current, trunc))
        new = pieces[0]
        for t in pieces[1:]:
            new = union(new, t)
        new = new.restrict(trunc)
        if new == current:
            return current
        current = new
    raise RecursionError_("closure of the spatial index set did not stabilize")


def solve_index_recursion(e00: IndexSet, truncation, include_elog_prime: bool) -> RecursionResult:
    """Smallest index sets satisfying the coupled closure conditions.

    ``e00`` seeds the spatial-face set; the three radiation-face sets and
    the temporal-face set are grown from empty by simultaneous iteration of
    their defining inclusions until they stop changing below the truncation.
    """
    trunc = _frac(truncation)
    if trunc <= 0:
        raise ValueError("truncation must be positive")
    if not e00.is_empty and e00.min_power <= 0:
        raise ValueError("the seed set must have positive minimal power")

    c = Fraction(1)
    if not e00.is_empty:
        c = min(Fraction(1), e00.min_power)
    cap = math.ceil(Fraction(3) * trunc / c) + 1

    e0 = _close_e0(e00, trunc, include_elog_prime, cap)
    zero = IndexSet.zero(trunc)

    ei_prime = IndexSet.empty(trunc)
    ei_bar = IndexSet.empty(trunc)
    ei = IndexSet.empty(trunc)
    iterations = 0
    for iterations in range(1, cap + 1):
        two_ei_down = shift(scale_sum(ei, 2), 1) if not ei.is_empty else IndexSet.empty(trunc)
        two_ei_down = two_ei_down.restrict(min(trunc, two_ei_down.truncation))

        new_prime = extended_union(e0, two_ei_down).restrict(trunc)

        inner = union(sum_sets(ei_bar, ei_prime).restrict(min(trunc, _sum_truncation(ei_bar, ei_prime))), two_ei_down)
        new_bar = union(zero, extended_union(e0, inner)).restrict(trunc)

        inner2 = union(
            sum_sets(ei, ei_prime).restrict(min(trunc, _sum_truncation(ei, ei_prime))),
            scale_sum(ei_bar, 2).restrict(min(trunc, _sum_truncation(ei_bar, ei_bar))) if not ei_bar.is_empty else IndexSet.empty(trunc),
        )
        new_ei = extended_union(zero, e0, inner2).restrict(trunc)
        for term in _nonlinear_closure_terms(ei, trunc):
            new_ei = union(new_ei, term.restrict(trunc))

        if (new_prime, new_bar, new_ei) == (ei_prime, ei_bar, ei):
            break
        ei_prime, ei_bar, ei = new_prime, new_bar, new_ei
    else:
        raise RecursionError_(
            f"radiation-face index sets did not stabilize within {cap} iterations"
        )

    minus_i = IndexSet.single(1, 0, trunc)
    base = union(extended_union(minus_i, zero), IndexSet.empty(trunc))
    ei_tilde = drop_zero_log(ei)
    eplus = IndexSet.empty(trunc)
    for it_plus in range(1, cap + 1):
        pieces = [p for p in (shift(eplus, 1).restrict(trunc) if not eplus.is_empty else None, minus_i, ei_tilde) if p is not None and not p.is_empty]
        new_plus = union(base, extended_union(*pieces)).restrict(trunc) if pieces else base
        if new_plus == eplus:
            break
        eplus = new_plus
    else:
        raise RecursionError_(
            f"temporal-face index set did not stabilize within {cap} iterations"
        )

    return RecursionResult(e0, ei_prime, ei_bar, ei, eplus, iterations)
