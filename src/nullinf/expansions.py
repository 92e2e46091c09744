"""Finite polyhomogeneous expansions and exact transport along boundary frames.

A :class:`PolyhomExpansion` is a finite list of terms  c * rho^p * log(rho)^k
with rational powers, plus a remainder order.  Transport solves the regular
singular model ODEs term by term in closed form; coefficients stay exact
(``Fraction``) whenever the input is exact.  A small separated bivariate
variant supports the two-face transport used near a corner.  The index set
each transport predicts is the ``indexsets`` rule applied to the input's
hulls, empty hulls included.

On log monomials both transports are a number plus a nilpotent derivative in
the logs: off resonance one finite Neumann series solves them, and at the corner
resonance the logs change to their sum and difference, where the field is 2 d/dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .indexsets import IndexSet, _frac, transport_index_rho, transport_index_two_face


def _coeff(c):
    # an int is exact input too; a Fraction p times a float c is float(p) * c
    if isinstance(c, (Fraction, int)):
        return Fraction(c)
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"coefficient {c!r} is not finite")
    return c


def _summed(keyed) -> tuple:
    """Sorted (*key, coefficient) of the summed coefficients of equal keys, zero sums dropped;
    each partial sum passes :func:`_coeff`, so a float sum past the float range raises."""
    acc = {}
    for key, c in keyed:
        acc[key] = _coeff(acc.get(key, 0) + _coeff(c))
    return tuple((*key, c) for key, c in sorted(acc.items()) if c != 0)


@dataclass(frozen=True)
class PolyhomExpansion:
    """Terms (power, log order, coefficient), sorted, plus a remainder order."""

    terms: tuple[tuple[Fraction, int, object], ...]
    remainder_order: Fraction

    @staticmethod
    def make(terms: Iterable[tuple[object, int, object]], remainder_order) -> "PolyhomExpansion":
        rem = _frac(remainder_order)
        powered = ((_frac(p), k, c) for p, k, c in terms)
        return PolyhomExpansion(_summed(((p, int(k)), c) for p, k, c in powered if p < rem), rem)

    def evaluate(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        lg = np.log(rho)
        for p, k, c in self.terms:
            out = out + float(c) * rho ** float(p) * lg**k
        return out

    def index_hull(self) -> IndexSet:
        return IndexSet.make([(p, k) for p, k, _ in self.terms], self.remainder_order)


def _neumann(delta, f, derivative):
    """Solve (delta + D) u = f, delta != 0, for a nilpotent ``derivative`` D on maps from log
    exponents to coefficients, as the finite sum of (-D)^j f / delta^(j+1)."""
    u, minus = {}, -delta
    term = {key: c / delta for key, c in f.items()}
    while term:
        for key, c in term.items():
            u[key] = u[key] + c if key in u else c
        term = {key: c / minus for key, c in derivative(term).items()}
    return u


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
    one.  The predicted set is :func:`indexsets.transport_index_rho` of the
    input hull; an empty hull predicts the constant slot alone.
    """
    out = []
    for p, k, c in f.terms:
        if not isinstance(p, Fraction):
            raise ValueError("transport needs rational powers")
        if p == 0:
            out.append((p, k + 1, c / (k + 1)))
        else:
            # rho d/drho acts on rho^p L^j as p + d/dL
            part = _neumann(p, {k: c}, lambda t: {j - 1: j * a for j, a in t.items() if j > 0})
            out += [(p, j, a) for j, a in part.items()]
    return PolyhomExpansion.make(out, f.remainder_order), transport_index_rho(f.index_hull())


# -- separated bivariate expansions (corner transport) --------------------


@dataclass(frozen=True)
class ProductExpansion:
    """Finite sums  c * rho1^p1 log^k1(rho1) * rho2^p2 log^k2(rho2)."""

    terms: tuple[tuple[Fraction, int, Fraction, int, object], ...]

    @staticmethod
    def make(terms) -> "ProductExpansion":
        return ProductExpansion(_summed(((_frac(p1), int(k1), _frac(p2), int(k2)), c)
                                        for p1, k1, p2, k2, c in terms))

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


def _corner_derivative(t):
    """d/dL1 - d/dL2 on a map (a, b) -> coefficient of L1^a L2^b."""
    out = {}
    for (a, b), c in t.items():
        if a > 0:
            out[a - 1, b] = out.get((a - 1, b), 0) + a * c
        if b > 0:
            out[a, b - 1] = out.get((a, b - 1), 0) - b * c
    return out


def _sum_difference(poly):
    """Expand each x^i y^j of ``poly`` as (x + y)^i (x - y)^j: a polynomial in A = L1 + L2,
    B = L1 - L2 back in the logs, or 2^(i + j) L1^i L2^j in A and B."""
    out = {}
    for (i, j), c in poly.items():
        for a in range(i + 1):
            for b in range(j + 1):
                key = (a + b, (i - a) + (j - b))
                out[key] = out.get(key, 0) + c * math.comb(i, a) * math.comb(j, b) * (-1) ** (j - b)
    return out


def transport_two_face(f: ProductExpansion, truncation) -> tuple[ProductExpansion, IndexSet]:
    """Solve  (rho1 d/drho1 - rho2 d/drho2) u = f  exactly, term by term.

    Returns u and the predicted index set at the first face,
    :func:`indexsets.transport_index_two_face` of the two face hulls: one
    extra log order wherever they overlap, and the second hull alone when
    the first is empty.
    """
    out = []
    for p1, k1, p2, k2, c in f.terms:
        if p1 != p2:
            # the field acts on rho1^p1 rho2^p2 L1^a L2^b as (p1 - p2) + d/dL1 - d/dL2
            part = _neumann(p1 - p2, {(k1, k2): c}, _corner_derivative)
        else:
            # coincident powers: in A = L1 + L2, B = L1 - L2 the field is 2 d/dB; take 1/2 of the B-integral
            ab = _sum_difference({(k1, k2): c * Fraction(1, 2) ** (k1 + k2 + 1)})
            part = _sum_difference({(a, b + 1): v / (b + 1) for (a, b), v in ab.items()})
        out += [(p1, a, p2, b, v) for (a, b), v in part.items()]
    return ProductExpansion.make(out), transport_index_two_face(f.face_hull(1, truncation), f.face_hull(2, truncation))
