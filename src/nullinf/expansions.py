"""Finite polyhomogeneous expansions and exact transport along boundary frames.

A :class:`PolyhomExpansion` is a finite list of terms  c * rho^p * log(rho)^k
with rational powers, plus a remainder order.  Transport solves the regular
singular model ODEs term by term in closed form; coefficients stay exact
(``Fraction``) whenever the input is exact.  A small separated bivariate
variant supports the two-face transport used near a corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .indexsets import IndexSet, _frac


def _coeff(c):
    # an int is exact input too; a Fraction p times a float c is float(p) * c
    return Fraction(c) if isinstance(c, (Fraction, int)) else float(c)


@dataclass(frozen=True)
class PolyhomExpansion:
    """Terms (power, log order, coefficient), sorted, plus a remainder order."""

    terms: tuple[tuple[Fraction, int, object], ...]
    remainder_order: Fraction

    @staticmethod
    def make(terms: Iterable[tuple[object, int, object]], remainder_order) -> "PolyhomExpansion":
        rem = _frac(remainder_order)
        acc: dict[tuple[Fraction, int], object] = {}
        for p, k, c in terms:
            p = _frac(p)
            if p >= rem:
                continue
            key = (p, int(k))
            acc[key] = acc.get(key, 0) + _coeff(c)
        clean = tuple(
            (p, k, c) for (p, k), c in sorted(acc.items()) if c != 0
        )
        return PolyhomExpansion(clean, rem)

    def evaluate(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        lg = np.log(rho)
        for p, k, c in self.terms:
            out = out + float(c) * rho ** float(p) * lg**k
        return out

    def index_hull(self) -> IndexSet:
        return IndexSet.make([(p, k) for p, k, _ in self.terms], self.remainder_order)


def differentiate_rho(u: PolyhomExpansion) -> PolyhomExpansion:
    """Apply rho d/drho exactly, term by term."""
    out = []
    for p, k, c in u.terms:
        if p != 0:
            out.append((p, k, p * c))
        if k > 0:
            out.append((p, k - 1, k * c))
    return PolyhomExpansion.make(out, u.remainder_order)


def transport_rho(f: PolyhomExpansion) -> tuple[PolyhomExpansion, IndexSet]:
    """Solve  rho d/drho u = f  exactly; return u and the predicted index set.

    Power-p terms with p != 0 keep their log order; p = 0 terms raise it by
    one.  The predicted set is the input hull with one extra log order at
    every populated power when the constant slot is populated, otherwise the
    plain union with the constant slot.
    """
    out = []
    for p, k, c in f.terms:
        if not isinstance(p, Fraction):
            raise ValueError("transport needs rational powers")
        if p == 0:
            out.append((p, k + 1, c / (k + 1)))
        else:
            a = c / p
            j = k
            terms_here = [(p, j, a)]
            while j > 0:
                a = -j * a / p
                j -= 1
                terms_here.append((p, j, a))
            out.extend(terms_here)
    u = PolyhomExpansion.make(out, f.remainder_order)

    hull = f.index_hull()
    predicted = _local_transport_set(hull)
    return u, predicted


def _local_transport_set(e: IndexSet) -> IndexSet:
    """Generator-level implementation of the transport index rule."""
    if e.is_empty:
        return IndexSet.zero(e.truncation)
    raise_logs = e.min_power == 0
    pairs = [(Fraction(0), 0)]
    for p, k in e.generators:
        pairs.append((p, k + 1 if raise_logs else k))
    return IndexSet.make(pairs, e.truncation)


# -- separated bivariate expansions (corner transport) --------------------


@dataclass(frozen=True)
class ProductExpansion:
    """Finite sums  c * rho1^p1 log^k1(rho1) * rho2^p2 log^k2(rho2)."""

    terms: tuple[tuple[Fraction, int, Fraction, int, object], ...]

    @staticmethod
    def make(terms) -> "ProductExpansion":
        acc: dict[tuple[Fraction, int, Fraction, int], object] = {}
        for p1, k1, p2, k2, c in terms:
            key = (_frac(p1), int(k1), _frac(p2), int(k2))
            acc[key] = acc.get(key, 0) + _coeff(c)
        return ProductExpansion(tuple((*k, c) for k, c in sorted(acc.items()) if c != 0))

    def face_hull(self, face: int, truncation) -> IndexSet:
        if face == 1:
            pairs = [(p1, k1) for p1, k1, _, _, _ in self.terms]
        else:
            pairs = [(p2, k2) for _, _, p2, k2, _ in self.terms]
        return IndexSet.make(pairs, truncation)

    def evaluate(self, rho1, rho2):
        rho1 = np.asarray(rho1, dtype=float)
        rho2 = np.asarray(rho2, dtype=float)
        out = np.zeros(np.broadcast(rho1, rho2).shape)
        l1, l2 = np.log(rho1), np.log(rho2)
        for p1, k1, p2, k2, c in self.terms:
            out = out + float(c) * rho1 ** float(p1) * l1**k1 * rho2 ** float(p2) * l2**k2
        return out


def differentiate_two_face(u: ProductExpansion) -> ProductExpansion:
    """Apply rho1 d/drho1 - rho2 d/drho2 exactly."""
    out = []
    for p1, k1, p2, k2, c in u.terms:
        if p1 != p2:
            out.append((p1, k1, p2, k2, (p1 - p2) * c))
        if k1 > 0:
            out.append((p1, k1 - 1, p2, k2, k1 * c))
        if k2 > 0:
            out.append((p1, k1, p2, k2 - 1, -k2 * c))
    return ProductExpansion.make(out)


def _solve_two_face_monomial(p1, k1, p2, k2, c):
    """Particular solution of the two-face transport for one product term."""
    if p1 != p2:
        # triangular elimination over log monomials, highest total degree first
        residual = {(k1, k2): c}
        out = {}
        while residual:
            (a, b) = max(residual, key=lambda ab: (ab[0] + ab[1], ab[0]))
            coef = residual.pop((a, b))
            lead = coef / (p1 - p2)
            out[(a, b)] = out.get((a, b), 0) + lead
            if a > 0:
                residual[(a - 1, b)] = residual.get((a - 1, b), 0) - a * lead
                if residual[(a - 1, b)] == 0:
                    residual.pop((a - 1, b))
            if b > 0:
                residual[(a, b - 1)] = residual.get((a, b - 1), 0) + b * lead
                if residual[(a, b - 1)] == 0:
                    residual.pop((a, b - 1))
        return [(p1, a, p2, b, v) for (a, b), v in out.items()]

    # coincident powers: rewrite logs in the sum/difference pair (A, B);
    # the operator acts as 2 d/dB, so integrate the B-polynomial.
    half = Fraction(1, 2)
    poly: dict[tuple[int, int], object] = {}
    for i in range(k1 + 1):
        for j in range(k2 + 1):
            coef = (
                c
                * math.comb(k1, i)
                * math.comb(k2, j)
                * (-1) ** (k2 - j)
                * half ** (k1 + k2)
            )
            key = (i + j, (k1 - i) + (k2 - j))  # (A-degree, B-degree)
            poly[key] = poly.get(key, 0) + coef
    integ = {}
    for (da, db), coef in poly.items():
        integ[(da, db + 1)] = integ.get((da, db + 1), 0) + coef * half / (db + 1)
    out = []
    for (da, db), coef in integ.items():
        if coef == 0:
            continue
        # back to log monomials: A^da B^db with A = L1+L2, B = L1-L2
        for i in range(da + 1):
            for j in range(db + 1):
                cc = coef * math.comb(da, i) * math.comb(db, j) * (-1) ** (db - j)
                out.append((p1, i + j, p2, (da - i) + (db - j), cc))
    return out


def transport_two_face(f: ProductExpansion, truncation) -> tuple[ProductExpansion, IndexSet]:
    """Solve  (rho1 d/drho1 - rho2 d/drho2) u = f  exactly, term by term.

    Returns u and the predicted index set at the first face: one extra log
    order wherever the two face hulls overlap.
    """
    out = []
    for term in f.terms:
        out.extend(_solve_two_face_monomial(*term))
    u = ProductExpansion.make(out)
    trunc = _frac(truncation)
    e1 = f.face_hull(1, trunc)
    e2 = f.face_hull(2, trunc)
    predicted = _local_two_face_set(e1, e2)
    return u, predicted


def _local_two_face_set(e1: IndexSet, e2: IndexSet) -> IndexSet:
    """Generator-level implementation of the corner transport index rule."""
    trunc = min(e1.truncation, e2.truncation)
    bps = sorted({p for p, _ in e1.generators} | {p for p, _ in e2.generators})
    pairs = []
    for p in bps:
        if p >= trunc:
            continue
        k1 = e1.log_bound(p) if p < e1.truncation else None
        k2 = e2.log_bound(p) if p < e2.truncation else None
        if k1 is None and k2 is None:
            continue
        if k1 is None:
            pairs.append((p, k2))
        elif k2 is None:
            pairs.append((p, k1))
        else:
            pairs.append((p, k1 + k2 + 1))
    return IndexSet.make(pairs, trunc)
