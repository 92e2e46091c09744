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


def _frac(x) -> Fraction:
    if isinstance(x, (Fraction, int, str)):
        f = Fraction(x)
    elif isinstance(x, float):
        if not x.is_integer():  # also false for inf and nan
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
            continue  # dominated by an earlier generator, or by the same power with a higher log order
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
            ks = self.log_bound(p)
            if ks is None or ks < other.log_bound(p):
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


def union(*sets: IndexSet) -> IndexSet:
    """Pointwise maximum of the log bounds, below the smallest truncation."""
    trunc = min(s.truncation for s in sets)
    return IndexSet(_normalize([g for s in sets for g in s.generators], trunc), trunc)


def extended_union(*sets: IndexSet) -> IndexSet:
    """Union plus one extra log order wherever several arguments overlap."""
    if not sets:
        raise ValueError("extended_union needs at least one argument")
    trunc = min(s.truncation for s in sets)
    pairs = []
    for p in sorted({p for s in sets for p, _ in s.generators if p < trunc}):
        ks = [k for k in (s.log_bound(p) for s in sets) if k is not None]
        pairs.append((p, sum(ks) + len(ks) - 1))
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
    """Index set of the solution u of  rho d/drho u = f,  f of index set e.

    One extra log order everywhere when e populates the constant slot, else
    the union with it; an empty e gives the constant slot alone.
    """
    zero = IndexSet.zero(e.truncation)
    if e.min_power == 0:
        return extended_union(e, zero)
    return union(e, zero)


def transport_index_two_face(e1: IndexSet, e2: IndexSet) -> IndexSet:
    """Index set at the first face of the solution of the two-face transport:
    the extended union, so an empty hull leaves the other one."""
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


def _least_fixed_point(step, start, cap: int, what: str):
    """Iterate ``step`` from ``start`` until it returns its argument.

    Returns the fixed point and the number of steps taken, the last one
    included; raises after ``cap`` steps without one.
    """
    current = start
    for steps in range(1, cap + 1):
        new = step(current)
        if new == current:
            return current, steps
        current = new
    raise RuntimeError(f"{what} did not stabilize within {cap} iterations")


def solve_index_recursion(e00: IndexSet, truncation, include_elog_prime: bool) -> RecursionResult:
    """Smallest index sets satisfying the joint closure conditions.

    ``e00`` seeds the spatial-face set; the three radiation-face sets and
    the temporal-face set are grown from empty by simultaneous iteration of
    their defining inclusions until they stop changing below the truncation.
    Every intermediate set is truncated at or beyond ``truncation`` (sums add
    nonnegative powers, and shifting up raises the truncation), so each union
    below lands exactly on it.

    The nonlinear terms close e under the j-fold sums of E = shift(e, 1),
    shifted back down.  The two-fold sum is enough: at its least fixed point
    E + E lies in E, so every j-fold sum does.  Steps are capped as argued below.
    """
    trunc = _frac(truncation)
    if trunc <= 0:
        raise ValueError("truncation must be positive")
    if not e00.is_empty and e00.min_power <= 0:
        raise ValueError("the seed set must have positive minimal power")
    seed = e00.restrict(trunc)
    # ei holds the power-0 slot and every seed generator, so drop_zero_log(ei)
    # below would reject such a seed; reject it before closing anything
    if any(0 < p < 1 for p, _ in seed.generators):
        raise ValueError("drop_zero_log expects no generators strictly between 0 and 1")

    # A step writes each log bound from bounds at powers at most its own, and
    # every nonzero power is at least c.  A read that may stay at the same power
    # goes back along ei -> ei_bar -> ei'; every other read drops by at least c.
    # A dependency chain from p < trunc so drops at most floor(trunc / c) times,
    # through at most three sets between drops; one more step confirms the fixed point.
    c = min(Fraction(1), e00.min_power or 1)
    cap = 3 * (math.floor(trunc / c) + 1) + 1

    ep = elog_prime(trunc) if include_elog_prime else IndexSet.empty(trunc)
    e0, _ = _least_fixed_point(
        lambda e: union(e, sum_sets(e, ep), shift(sum_sets(e, e), 1)),
        seed, cap, "closure of the spatial index set",
    )
    zero = IndexSet.zero(trunc)

    def radiation(sets):
        ei_prime, ei_bar, ei = sets
        two_ei_down = shift(sum_sets(ei, ei), 1).restrict(trunc)
        return (
            extended_union(e0, two_ei_down),
            union(zero, extended_union(e0, union(sum_sets(ei_bar, ei_prime), two_ei_down))),
            # two_ei_down lies in ei_prime, and ei holds power 0, so ei + ei_prime covers it
            extended_union(zero, e0, union(sum_sets(ei, ei_prime), sum_sets(ei_bar, ei_bar))),
        )

    empty = IndexSet.empty(trunc)
    (ei_prime, ei_bar, ei), iterations = _least_fixed_point(
        radiation, (empty, empty, empty), cap, "radiation-face index sets"
    )

    minus_i = IndexSet.single(1, 0, trunc)
    base = extended_union(minus_i, zero)
    ei_tilde = drop_zero_log(ei)
    eplus, _ = _least_fixed_point(
        lambda e: union(base, extended_union(shift(e, 1), minus_i, ei_tilde)),
        empty, cap, "temporal-face index set",
    )
    return RecursionResult(e0, ei_prime, ei_bar, ei, eplus, iterations)
