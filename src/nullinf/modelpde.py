"""Characteristic solvers for the model equations at the radiation face.

The model operator factors into a radial-logarithmic transport for the
auxiliary w = (rho0 d/drho0 - rhoI d/drhoI) u and a transport for u along
the diagonals rho0 * rhoI = const.  Both are integrated with the implicit
trapezoid (second order) on a shared logarithmic grid; the damped first
factor is integrated exactly through its exponential weight.  The grid is
extended to the left so that every diagonal through the requested window
starts on the data edge.

A forcing is a callable f(rho0, rhoI) of elementwise numpy operations: a
mode solve calls it once per block of rows, with broadcastable arrays of
shapes (1, n) and (k, 1) covering the cells of those rows that reach the
core.  The Newton iteration hands the march the frozen quadratic coupling
as a table on the core nodes, which the march adds to the forcing.

The weak-null log coefficient follows from the factored form.  At the fixed
point u1 is forced by F = a^2 / (rho0 rhoI), a = d1 u1c = rho0 (w1c + rhoI
d/drhoI u1c / 2).  With gamma = ell = 0, rhoI d/drhoI w1 = rhoI F / 2 -> rho0
W^2 / 2 as rhoI -> 0 (W: u1c's w at the radiation face); then (rho0 d/drho0 -
rhoI d/drhoI) u1 = w1 gives u1 ~ c_log log rhoI, c_log(rho0) = (1/2)
int_0^rho0 W(s)^2 ds >= 0.  Zero data leave W = 0 below the sources' support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CharacteristicGrid:
    """Shared logarithmic grids in the two corner defining functions."""

    eps: float = 0.1
    rho0_min: float = 1e-5
    rhoI_min: float = 1e-5
    points_per_decade: int = 16
    ell: int = 0

    def __post_init__(self):
        if self.points_per_decade < 16:
            raise ValueError("need at least 16 points per decade")
        if min(self.rho0_min, self.rhoI_min) < 1e-8:
            raise ValueError("grid floor below 1e-8")
        if not (0 < self.rho0_min < self.eps and 0 < self.rhoI_min < self.eps):
            raise ValueError("grid ordering is wrong: need 0 < rho_min < eps")
        if self.ell < 0:
            raise ValueError("mode number must be nonnegative")

    @property
    def h(self) -> float:
        return math.log(10.0) / self.points_per_decade

    def _count(self, lo) -> int:
        n = round(math.log(self.eps / lo) / self.h)
        return int(n) + 1

    @property
    def cells(self) -> int:
        """Nodes of the core window: rho0 points times rhoI points."""
        return self._count(self.rho0_min) * self._count(self.rhoI_min)

    def _nodes(self, n) -> np.ndarray:
        """The last ``n`` nodes of the logarithmic grid, ending at eps."""
        return self.eps * np.exp(self.h * (np.arange(n) - (n - 1)))

    @property
    def rho0(self) -> np.ndarray:
        return self._nodes(self._count(self.rho0_min))

    @property
    def rhoI(self) -> np.ndarray:
        return self._nodes(self._count(self.rhoI_min))

    def refined(self, factor: int) -> "CharacteristicGrid":
        return CharacteristicGrid(
            self.eps, self.rho0_min, self.rhoI_min, self.points_per_decade * factor, self.ell
        )


@dataclass(frozen=True)
class BoundaryData:
    """Data on the two inflow edges; callables of the edge coordinate."""

    u_top: object = None      # u at rhoI = eps, function of rho0
    w_top: object = None      # auxiliary w at rhoI = eps, function of rho0
    u_right: object = None    # optional consistency data at rho0 = eps

    def top_values(self, rho0):
        u = np.zeros_like(rho0) if self.u_top is None else np.asarray(self.u_top(rho0), dtype=float)
        w = np.zeros_like(rho0) if self.w_top is None else np.asarray(self.w_top(rho0), dtype=float)
        return np.broadcast_to(u, rho0.shape).copy(), np.broadcast_to(w, rho0.shape).copy()


@dataclass
class ModeSolution:
    grid: CharacteristicGrid
    gamma: float
    u: np.ndarray          # (n_rho0, n_rhoI), core window
    w: np.ndarray
    corner_mismatch: float = 0.0

    def leading_fit(self, model="const", rho0_value=None):
        """Fit the column of u nearest ``rho0_value`` (the middle one if None)."""
        rho0 = self.grid.rho0
        i = len(rho0) // 2 if rho0_value is None else int(np.argmin(np.abs(rho0 - rho0_value)))
        return fit_leading_terms(self.grid.rhoI, self.u[i, :], model)

    def rhoI_log_derivative(self):
        """rhoI d/drhoI of u by centered differences on the log grid, one-sided at its ends."""
        return np.gradient(self.u, self.grid.h, axis=1)

    def d1(self):
        """The flat outgoing-null derivative through the corner frame (m = 0)."""
        rho0 = self.grid.rho0[:, None]
        rhoI = self.grid.rhoI[None, :]
        di = self.rhoI_log_derivative()
        return rho0 * (self.w + 0.5 * rhoI * di)


#: rows per forcing call: the rho0 factor is computed once per block, and a block stays in cache
_BLOCK_ROWS = 64


def _march(grid: CharacteristicGrid, gamma, forcing, data: BoundaryData, table=None):
    """Integrate the factored model inward from the top edge.

    Works on the grid extended to the left by one diagonal sweep; row j keeps
    only the nodes [nJ - 1 - j, n_ext), whose diagonals reach the core window.
    The forcing is evaluated once per block of rows; ``table``, if given, is
    an (ncore, nJ) table on the core nodes added to it, zero left of them.
    Returns C-contiguous core arrays (u, w).
    """
    h = grid.h
    rhoI = grid.rhoI
    nJ = len(rhoI)
    ncore = len(grid.rho0)
    next_ = ncore + nJ - 1
    rho0_ext = grid._nodes(next_)

    lam = float(grid.ell * (grid.ell + 1))
    u, w = np.empty((ncore, nJ)), np.empty((ncore, nJ))
    # row j - lo holds the core of the column rhoI[j] while block [lo, hi] is marched
    u_rows, w_rows = np.empty((2, _BLOCK_ROWS, ncore))
    U, W = data.top_values(rho0_ext)

    decay = math.exp(-gamma * h)
    for hi in range(nJ - 1, -1, -_BLOCK_ROWS):
        lo = max(hi - _BLOCK_ROWS + 1, 0)
        r0, rI = rho0_ext[None, nJ - 1 - hi :], rhoI[lo : hi + 1, None]
        shape = (hi + 1 - lo, ncore + hi)
        if table is None:
            F = 0.0 if forcing is None else forcing(r0, rI)
        else:
            F = np.zeros(shape)
            F[:, -ncore:] = table[:, lo : hi + 1].T
            if forcing is not None:
                F += forcing(r0, rI)
        F = np.broadcast_to(np.asarray(F, dtype=float), shape)
        for j in range(hi, lo - 1, -1):
            if j < nJ - 1:
                S_above = 0.5 * rhoI[j + 1] * (F_above[1:] + lam * U[1:])
                B = decay * (W[1:] - 0.5 * h * S_above)
                c = 0.25 * h * rhoI[j]
                A = U[:-1] + 0.5 * h * W[:-1]
                W = (B - c * F[j - lo, hi - j :] - c * lam * A) / (1.0 + 0.5 * c * lam * h)
                U = A + 0.5 * h * W
            F_above = F[j - lo, hi - j :]
            u_rows[j - lo], w_rows[j - lo] = U[j:], W[j:]
        u[:, lo : hi + 1], w[:, lo : hi + 1] = u_rows[: shape[0]].T, w_rows[: shape[0]].T

    if np.any(np.isnan(u)) or np.any(np.isnan(w)):
        raise RuntimeError("characteristic march left unfilled cells in the core window")

    mismatch = 0.0
    if data.u_right is not None:
        target = np.asarray(data.u_right(rhoI), dtype=float)
        mismatch = float(np.max(np.abs(u[-1, :] - target)))
    return u, w, mismatch


def solve_damped_mode(grid: CharacteristicGrid, gamma, forcing=None, data: BoundaryData | None = None) -> ModeSolution:
    """Mode solver with the damped first factor (rhoI d/drhoI - gamma).

    ``gamma = 0`` is the undamped mode.  ``forcing(rho0, rhoI)`` is called
    once per block of rows, with rho0 of shape (1, n) on the extended grid and
    rhoI of shape (k, 1); its result must broadcast to (k, n).
    """
    if gamma < 0:
        raise ValueError("damping exponent must be nonnegative")
    data = data or BoundaryData()
    u, w, mismatch = _march(grid, float(gamma), forcing, data)
    return ModeSolution(grid, float(gamma), u, w, mismatch)


# -- the weak-null triangular system ----------------------------------------


def newton_iterate(
    grid: CharacteristicGrid,
    gamma,
    forcing=(None, None, None),
    steps=8,
):
    """Global linear-solve iteration for the weak-null system.

    Starts from zero, with zero data, and solves the linearized triangular
    system at each step (the quadratic couplings are frozen at the previous
    iterate, so a step is two marches with modified sources; the damped u0
    mode is linear and is solved once).  The iteration stops at its fixed
    point: once a sweep passes on the frozen pair of derivatives it was
    given, every later sweep would march the same sources, so the remaining
    steps repeat its iterate (the same object).  The coupling is nilpotent,
    so this takes 3 sweeps for the triangular system (1 without forcing),
    and the last iterate solves the full system.  Returns the ``steps``
    iterates, their errors against the last one and the
    quadratic-convergence ratios of those errors.
    """
    iterates = []
    rho0_rhoI = np.outer(grid.rho0, grid.rhoI)
    # the quadratic coupling frozen from the derivatives d1 of two solutions, on the core nodes
    coupling = lambda a_prev, a_new: (2.0 * a_prev * a_new - a_prev**2) / rho0_rhoI

    def sweep(base, table):
        """The undamped mode forced by ``base`` (a callable of (r0, rI), or None) plus ``table``."""
        return ModeSolution(grid, 0.0, *_march(grid, 0.0, base, BoundaryData(), table))

    u0 = solve_damped_mode(grid, gamma, forcing[0])
    a_u0 = u0.d1()
    a_prev = (np.zeros((len(grid.rho0), len(grid.rhoI))),) * 2    # d1 of the zero start
    for k in range(steps):
        u1c = sweep(forcing[1], coupling(a_prev[0], a_u0))
        a_u1c = u1c.d1()
        # each d1 is taken once; the old one and the source go as soon as they
        # are used, so keeping d1 adds nothing to the peak memory of the marches
        source = coupling(a_prev[1], a_u1c)
        fixed = np.array_equal(a_prev[0], a_u0) and np.array_equal(a_prev[1], a_u1c)
        a_prev = (a_u0, a_u1c)
        u1 = sweep(forcing[2], source)
        del source
        current = (u0, u1c, u1)
        iterates.append(current)
        if fixed:
            iterates += [current] * (steps - k - 1)
            break

    ref = iterates[-1]
    errors = []
    for it in iterates:
        errors.append(
            max(float(np.max(np.abs(it[c].u - ref[c].u))) for c in range(3))
        )
    ratios = []
    for k in range(len(errors) - 1):
        if errors[k] == 0.0:
            ratios.append(0.0)
        else:
            ratios.append(errors[k + 1] / errors[k] ** 2)
    return iterates, errors, ratios


# -- leading-term fits -------------------------------------------------------


@dataclass
class LeadingFit:
    c_log: float | None
    c0: float | None
    exponent: float | None
    residual: float


def _last_decade(rhoI, values):
    rhoI = np.asarray(rhoI, dtype=float)
    values = np.asarray(values, dtype=float)
    top = rhoI[0] * 10.0
    mask = rhoI <= top * (1.0 + 1e-12)
    if np.count_nonzero(mask) < 4:
        mask = np.arange(len(rhoI)) < max(4, len(rhoI) // 3)
    return rhoI[mask], values[mask]


def fit_leading_terms(rhoI, values, model="const") -> LeadingFit:
    """Fit the boundary behavior of a radial profile on its last decade.

    ``model`` is "const" (c0 + a rhoI^exponent, the exponent read from the
    differences) or "log+const" (c_log log rhoI + c0).
    """
    x, y = _last_decade(rhoI, values)
    lx = np.log(x)

    if model == "log+const":
        design = np.stack([lx, np.ones_like(lx)], axis=1)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
        return LeadingFit(float(coef[0]), float(coef[1]), None, resid)

    if model == "const":
        d = np.diff(y)
        if np.all(d == 0.0):
            return LeadingFit(None, float(y[0]), None, 0.0)
        if np.any(d == 0.0) or np.any(np.sign(d) != np.sign(d[np.nonzero(d)[0][0]])):
            # remainder not resolved as a clean power; fall back to the mean
            return LeadingFit(None, float(np.mean(y)), None, float(np.std(y)))
        slope = np.polyfit(lx[:-1], np.log(np.abs(d)), 1)
        e = float(slope[0])
        growth = math.exp(e * (lx[1] - lx[0])) - 1.0
        amp = d[0] / (x[0] ** e * growth)
        c0 = float(y[0] - amp * x[0] ** e)
        fitted = c0 + amp * x**e
        resid = float(np.sqrt(np.mean((fitted - y) ** 2)))
        return LeadingFit(None, c0, e, resid)

    raise ValueError(f"unknown fit model {model!r}")


# -- model operator matrices ---------------------------------------------------


def damping_block(gamma1, gamma2) -> np.ndarray:
    """Coupling matrix of the damped gauge block, which no other slot feeds; spectrum {2 g1, g1, g2}."""
    return np.array(
        [
            [2.0 * gamma1, 0.0, 0.0],
            [0.0, gamma1, 0.0],
            [2.0 * gamma2, 0.0, gamma2],
        ]
    )


def toy_block(gamma, d1_u1c_leading) -> np.ndarray:
    """Coupling matrix of the toy system; the lower 2x2 block is nilpotent."""
    return np.array(
        [
            [gamma, 0.0, 0.0],
            [0.0, 0.0, 0.0],
            [0.0, float(d1_u1c_leading), 0.0],
        ]
    )


#: slots selected by the projection onto the components driven by the gauge
PI0_SLOTS = (0, 2, 5)
PI11_SLOT = 3
PI11C_SLOTS = (1, 4, 6)


def full_coupling_matrices(h, m, gamma1, gamma2):
    """The 7x7 first- and zeroth-order coupling matrices, entries as callables.

    The slots of the 7-component splitting are, in order: qq, qs, qa, ss,
    sa, sph-trace and sph-tracefree.  Entries are scalar fields of
    (q, s, theta, phi); tensorial slots report their theta-theta
    representative.  Each callable returns a leading point axis (the
    broadcast shape of its point, at least 1-D) followed by (7, 7).
    Stored for inspection and structure tests, not used by the solvers.
    """
    # imported here, not at the top: the characteristic solvers load no sympy
    import sympy as sp

    from .compactify import _mass
    from .metrics import CHART, _diff_ops, chart_point, compile_fields, sphere_raise

    m = _mass(m)
    D = _diff_ops(m)
    hq = h.qs_exprs()
    d1 = D[1]
    raised_rep = sphere_raise([[hq["22"], hq["23"]], [hq["23"], hq["33"]]])[0, 0]
    vec_rep = sphere_raise([hq["12"], hq["13"]])[0]

    A, B = sp.zeros(7, 7), sp.zeros(7, 7)
    A[0, 0] = sp.Float(2 * gamma1)
    A[1, 0] = gamma1 - gamma2 - 2 * d1(hq["01"])
    A[1, 5] = sp.Rational(1, 2) * (gamma1 - gamma2)
    A[2, 2] = sp.Float(gamma1)
    A[3, 0] = -2 * d1(hq["11"])
    A[3, 5] = sp.Float(gamma1)
    A[3, 6] = sp.Rational(1, 2) * d1(raised_rep)
    A[4, 0] = -2 * d1(hq["12"])
    A[4, 2] = gamma1 + d1(vec_rep)
    A[5, 0] = sp.Float(2 * gamma2)
    A[5, 5] = sp.Float(gamma2)
    B[1, 0] = 2 * d1(d1(hq["01"]))
    B[3, 0] = 2 * d1(d1(hq["11"]))
    B[4, 0] = 2 * d1(d1(hq["12"]))
    B[6, 0] = 2 * d1(d1(hq["22"]))

    def compile_matrix(M):
        fn = compile_fields(CHART, [M])
        return lambda q, s, theta, phi: fn(*chart_point(q, s, theta, phi, m))[0]

    return compile_matrix(A), compile_matrix(B)
