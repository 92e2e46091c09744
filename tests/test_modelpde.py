import math
import tracemalloc

import numpy as np
import pytest

from nullinf import modelpde as mp


GRID = mp.CharacteristicGrid(eps=0.1, rho0_min=1e-5, rhoI_min=1e-5, points_per_decade=16)


def log_bump(center, width=0.5):
    def f(x):
        z = np.log(x / center) / width
        return np.exp(-(z**2))

    return f


def compact_log_bump(center, width=0.4, support=1.2):
    """Smooth bump in log x, exactly zero outside [center/e^s, center*e^s]."""

    def f(x):
        z = np.log(x / center) / support
        out = np.zeros_like(z)
        inside = np.abs(z) < 1.0
        out[inside] = np.exp(-(z[inside] ** 2) / (1.0 - z[inside] ** 2) / width)
        return out

    return f


# -- grid ---------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        mp.CharacteristicGrid(points_per_decade=8)
    with pytest.raises(ValueError):
        mp.CharacteristicGrid(rhoI_min=1e-9)
    with pytest.raises(ValueError):
        mp.CharacteristicGrid(eps=1e-6, rho0_min=1e-5)
    g = GRID
    assert np.isclose(g.rho0[-1], g.eps)
    assert np.isclose(g.rho0[0], g.rho0_min, rtol=1e-12)
    assert np.allclose(np.diff(np.log(g.rhoI)), g.h)


# -- exact structural cases -----------------------------------------------------


def test_constant_solution_is_exact():
    data = mp.BoundaryData(u_top=lambda r0: np.ones_like(r0))
    sol = mp.solve_damped_mode(GRID, 0.0, forcing=None, data=data)
    assert np.all(sol.u == 1.0)
    assert np.all(sol.w == 0.0)


def test_w_transport_conserved_without_source():
    data = mp.BoundaryData(
        u_top=lambda r0: np.sin(np.log(r0)),
        w_top=lambda r0: 1.0 / (1.0 + r0),
    )
    sol = mp.solve_damped_mode(GRID, 0.0, forcing=None, data=data)
    spread = np.max(sol.w, axis=1) - np.min(sol.w, axis=1)
    assert np.max(spread) < 1e-12


def test_damped_gamma_zero_identical_to_wave():
    # the undamped mode is gamma = 0, however the zero is written
    f = lambda r0, rI: r0 * log_bump(1e-3)(rI)
    data = mp.BoundaryData(u_top=lambda r0: r0)
    a = mp.solve_damped_mode(GRID, 0.0, f, data)
    b = mp.solve_damped_mode(GRID, 0, f, data)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.w, b.w)


def test_w_consistent_with_u():
    # w must equal the frame derivative of u to scheme order
    f = lambda r0, rI: r0**0.6 * log_bump(3e-3)(rI)
    sol = mp.solve_damped_mode(GRID, 0.0, f)
    h = GRID.h
    # rho0 d/drho0 u - rhoI d/drhoI u by central differences on the core
    du0 = np.empty_like(sol.u)
    du0[1:-1, :] = (sol.u[2:, :] - sol.u[:-2, :]) / (2 * h)
    du0[0, :] = du0[1, :]
    du0[-1, :] = du0[-2, :]
    duI = sol.rhoI_log_derivative()
    resid = np.abs(sol.w - (du0 - duI))[2:-2, 2:-2]
    assert np.max(resid) < 5e-3  # second-order consistency on h ~ 0.14


# -- forced solve with leading term and remainder --------------------------------


def _remainder_exponent(sol, rho0_value=None):
    fit = sol.leading_fit("const", rho0_value)
    return fit


def test_forced_mode_leading_term_and_remainder_exponent():
    bI, b0 = 0.3, 0.6
    f = lambda r0, rI: r0**b0 * rI ** (bI - 1.0) * log_bump(2e-2, 0.7)(r0)
    sol = mp.solve_damped_mode(GRID, 0.0, f)
    fit = sol.leading_fit("const", rho0_value=0.05)
    assert fit.c0 is not None and abs(fit.c0) > 1e-6
    assert fit.exponent == pytest.approx(bI, abs=0.03)
    # reference at doubled resolution confirms the fit is converged
    ref = mp.solve_damped_mode(GRID.refined(2), 0.0, f)
    fit_ref = ref.leading_fit("const", rho0_value=0.05)
    assert fit_ref.exponent == pytest.approx(bI, abs=0.03)
    assert abs(fit.c0 - fit_ref.c0) < 5e-4 * max(1.0, abs(fit.c0))


def test_self_convergence_second_order():
    f = lambda r0, rI: r0**0.6 * rI ** (-0.5) * log_bump(2e-2, 0.7)(r0) * log_bump(1e-2, 0.8)(rI)
    sols = [mp.solve_damped_mode(GRID.refined(k), 0.0, f) for k in (1, 2, 4)]
    e1 = np.max(np.abs(sols[0].u - sols[2].u[::4, ::4]))
    e2 = np.max(np.abs(sols[1].u[::1, ::1][::2, ::2] - sols[2].u[::4, ::4]))
    order = math.log2(e1 / e2)
    assert order >= 1.8


# -- damping ----------------------------------------------------------------------


@pytest.mark.parametrize("gamma,window", [(0.5, (0.45, 0.55)), (0.25, (0.22, 0.28))])
def test_damped_decay_exponent(gamma, window):
    f = lambda r0, rI: log_bump(2e-2, 0.6)(r0) * compact_log_bump(1e-2)(rI)
    sol = mp.solve_damped_mode(GRID, gamma, f)
    fit = sol.leading_fit("const")
    assert window[0] <= fit.exponent <= window[1]


def test_gamma_zero_has_finite_nonzero_leading_term():
    f = lambda r0, rI: log_bump(2e-2, 0.6)(r0) * compact_log_bump(1e-2)(rI)
    sol = mp.solve_damped_mode(GRID, 0.0, f)
    fit = sol.leading_fit("const", rho0_value=0.05)
    assert abs(fit.c0) > 1e-4
    assert fit.residual < 1e-3 * abs(fit.c0)


def test_damped_exponent_monotone_in_gamma():
    f = lambda r0, rI: log_bump(2e-2, 0.6)(r0) * compact_log_bump(1e-2)(rI)
    exps = []
    for gamma in (0.1, 0.25, 0.5):
        sol = mp.solve_damped_mode(GRID, gamma, f)
        exps.append(sol.leading_fit("const").exponent)
    assert exps[0] <= exps[1] + 0.02 <= exps[2] + 0.04


# -- weak-null toy system ----------------------------------------------------------


def toy_setup():
    f0 = lambda r0, rI: 12.0 * log_bump(2e-2, 0.6)(r0) * compact_log_bump(1e-2)(rI)
    f1 = lambda r0, rI: 2.0 * log_bump(3e-2, 0.5)(r0) * compact_log_bump(2e-2)(rI)
    return f0, f1


def coupled(grid, gamma, forcing=(None, None, None)):
    """(u0, u1c, u1) of the coupled system: the last iterate of the global iteration."""
    return mp.newton_iterate(grid, gamma, forcing)[0][-1]


def test_toy_system_zero_data_is_zero():
    for comp in coupled(GRID, 0.5):
        assert np.all(comp.u == 0.0)


def test_toy_system_log_coefficient():
    f0, f1 = toy_setup()
    u1 = coupled(GRID, 0.5, (f0, f1, None))[2]
    fit = u1.leading_fit("log+const", rho0_value=0.05)
    assert abs(fit.c_log) > 10.0 * fit.residual
    # fine-grid reference confirms the log term is resolved
    ref = coupled(GRID.refined(2), 0.5, (f0, f1, None))[2]
    fit_ref = ref.leading_fit("log+const", rho0_value=0.05)
    assert fit.c_log == pytest.approx(fit_ref.c_log, rel=0.02)
    # without the quadratic coupling u1 is the plain mode solve of its own (zero) forcing: no log
    fit_off = mp.solve_damped_mode(GRID, 0.0, None).leading_fit("log+const", rho0_value=0.05)
    assert abs(fit_off.c_log) <= max(fit_off.residual, 1e-14)


def test_toy_system_log_coefficient_matches_its_prediction():
    # criterion 8's forcings; u1's log coefficient is half the integral of W^2 in rho0,
    # W being u1c's w at the radiation face (see the modelpde docstring).  W vanishes
    # below the forcings' rho0 support, so the integral may start at rho0_min.
    f0 = lambda r0, rI: 12.0 * compact_log_bump(2e-2, 0.6)(r0) * compact_log_bump(1e-2)(rI)
    f1 = lambda r0, rI: 2.0 * compact_log_bump(3e-2, 0.5)(r0) * compact_log_bump(2e-2)(rI)
    gaps = []
    for factor in (1, 2, 4):
        grid = GRID.refined(factor)
        _, u1c, u1 = coupled(grid, 0.5, (f0, f1, None))
        rho0, W = grid.rho0, u1c.w[:, 0]
        assert W[0] == 0.0
        half_w2 = 0.5 * W**2
        predicted = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(rho0) * (half_w2[1:] + half_w2[:-1]))])
        gap = []
        for r in (0.05, 0.09):
            i = int(np.argmin(np.abs(rho0 - r)))
            c_log = u1.leading_fit("log+const", rho0_value=r).c_log
            assert c_log > 0.0
            gap.append(abs(c_log - predicted[i]) / predicted[i])
        gaps.append(gap)
    gaps = np.array(gaps)
    # the march is second order: each doubling cuts the gap about four times
    assert np.all(gaps[:-1] >= 3.0 * gaps[1:]), gaps
    assert np.all(gaps[-1] < 1e-3), gaps


def test_toy_system_u1c_remainder_exponent():
    f0, _ = toy_setup()
    gamma = 0.5
    u1c = coupled(GRID, gamma, (f0, None, None))[1]
    fit = u1c.leading_fit("const", rho0_value=0.05)
    lo = 0.9 * min(2 * gamma, 1.0) - 0.05
    hi = min(2 * gamma, 1.0) + 0.05
    assert lo <= fit.exponent <= hi


def test_toy_system_u0_decays_like_gamma():
    f0, _ = toy_setup()
    u0 = coupled(GRID, 0.5, (f0, None, None))[0]
    fit = u0.leading_fit("const", rho0_value=0.05)
    assert 0.44 <= fit.exponent <= 0.56


# -- global iteration ----------------------------------------------------------------


def test_newton_linear_case_converges_in_one_step():
    f = lambda r0, rI: log_bump(2e-2, 0.6)(r0) * compact_log_bump(1e-2)(rI)
    iterates, errors, ratios = mp.newton_iterate(
        GRID, 0.5, forcing=(f, None, None), steps=4
    )
    # without quadratic terms active (u0 source only, no coupling beyond it)
    direct = mp.solve_damped_mode(GRID, 0.5, f)
    assert np.max(np.abs(iterates[-1][0].u - direct.u)) == 0.0


def test_newton_quadratic_convergence_and_leading_stability():
    f0, f1 = toy_setup()
    iterates, errors, ratios = mp.newton_iterate(
        GRID, 0.5, forcing=(f0, f1, None), steps=8
    )
    # quadratic-convergence ratios stay bounded over the first steps
    for k in range(1, 5):
        assert ratios[k] < 50.0
    # iterates settle exactly once the triangular structure has propagated
    assert errors[4] == 0.0
    fits = []
    for idx in (3, 4):
        fit = iterates[idx][2].leading_fit("log+const", rho0_value=0.05)
        fits.append((fit.c_log, fit.c0))
    assert abs(fits[0][0] - fits[1][0]) < 1e-6
    assert abs(fits[0][1] - fits[1][1]) < 1e-6


def newton_every_sweep(grid, gamma, forcing, steps):
    """The global iteration marching every one of its sweeps: the reference."""
    rho0 = grid.rho0[:, None]
    rhoI = grid.rhoI[None, :]

    def nearest(x, nodes):
        return np.clip(np.round(np.log(x / nodes[0]) / grid.h).astype(int), 0, len(nodes) - 1)

    def grid_interp(table):
        """Nearest-node interpolant of a core table, zero left of the core window."""

        def f(r0, rI):
            inside = r0 >= grid.rho0[0] * (1.0 - 1e-12)
            return np.where(inside, table[nearest(r0, grid.rho0), nearest(rI, grid.rhoI)], 0.0)

        return f

    def linearized(base, a_prev, a_new):
        extra = grid_interp((2.0 * a_prev * a_new - a_prev**2) / (rho0 * rhoI))
        if base is None:
            return extra
        return lambda r0, rI: np.asarray(base(r0, rI), dtype=float) + extra(r0, rI)

    u0 = mp.solve_damped_mode(grid, gamma, forcing[0])
    a_u0 = u0.d1()
    a_prev = (np.zeros((len(grid.rho0), len(grid.rhoI))),) * 2
    iterates = []
    for _ in range(steps):
        u1c = mp.solve_damped_mode(grid, 0.0, linearized(forcing[1], a_prev[0], a_u0))
        a_u1c = u1c.d1()
        u1 = mp.solve_damped_mode(grid, 0.0, linearized(forcing[2], a_prev[1], a_u1c))
        a_prev = (a_u0, a_u1c)
        iterates.append((u0, u1c, u1))
    errors = [max(float(np.max(np.abs(it[c].u - iterates[-1][c].u))) for c in range(3)) for it in iterates]
    ratios = [0.0 if e == 0.0 else e1 / e**2 for e, e1 in zip(errors, errors[1:])]
    return iterates, errors, ratios


def forcing_patterns():
    f0, f1 = toy_setup()
    f2 = lambda r0, rI: -log_bump(5e-2, 0.4)(r0) * compact_log_bump(3e-3)(rI)
    return {
        "toy": (f0, f1, None),
        "zero": (None, None, None),
        "u0-only": (f0, None, None),
        "all-three": (f0, f1, f2),
    }


@pytest.mark.parametrize("name", list(forcing_patterns()))
def test_newton_matches_the_every_sweep_reference(name):
    forcing = forcing_patterns()[name]
    iterates, errors, ratios = mp.newton_iterate(GRID, 0.5, forcing, steps=8)
    ref = newton_every_sweep(GRID, 0.5, forcing, steps=8)
    assert errors == ref[1] and ratios == ref[2]
    for step, ref_step in zip(iterates, ref[0], strict=True):
        for sol, ref_sol in zip(step, ref_step, strict=True):
            assert np.array_equal(sol.u, ref_sol.u) and np.array_equal(sol.w, ref_sol.w)
    # the nilpotent coupling is exhausted after three sweeps
    assert all(it is iterates[2] for it in iterates[2:])


@pytest.mark.parametrize("name, steps, marches", [
    pytest.param("toy", 8, 7, id="toy-7"),
    pytest.param("zero", 8, 3, id="zero-3"),
    pytest.param("toy", 3, 7, id="toy-7-3steps"),
])
def test_newton_stops_marching_at_its_fixed_point(monkeypatch, name, steps, marches):
    gammas = []
    march = mp._march

    def counted(*args):
        gammas.append(args[1])
        return march(*args)

    monkeypatch.setattr(mp, "_march", counted)
    iterates, _, _ = mp.newton_iterate(GRID, 0.5, forcing_patterns()[name], steps=steps)
    # the linear u0 mode once, then two marches a sweep until the sweeps repeat
    assert gammas == [0.5] + [0.0] * (marches - 1)
    assert len(iterates) == steps and all(it[0] is iterates[0][0] for it in iterates)


# -- the march against the column-loop reference ---------------------------------------


def column_march(grid, gamma, forcing, data, table=None):
    """The march one column at a time on (n_ext, nJ) arrays: the reference."""
    h = grid.h
    rhoI = grid.rhoI
    nJ = len(rhoI)
    ncore = len(grid.rho0)
    next_ = ncore + nJ - 1
    rho0_ext = grid.eps * np.exp(h * (np.arange(next_) - (next_ - 1)))

    lam = float(grid.ell * (grid.ell + 1))
    U = np.full((next_, nJ), np.nan)
    W = np.full((next_, nJ), np.nan)
    u_top, w_top = data.top_values(rho0_ext)
    U[:, nJ - 1] = u_top
    W[:, nJ - 1] = w_top

    # the forcing is called once on the whole grid; the core table is zero left of the core
    if table is None:
        F = 0.0 if forcing is None else forcing(rho0_ext[None, :], rhoI[:, None])
    else:
        F = np.zeros((nJ, next_))
        F[:, nJ - 1 :] = table.T
        if forcing is not None:
            F += forcing(rho0_ext[None, :], rhoI[:, None])
    F = np.broadcast_to(np.asarray(F, dtype=float), (nJ, next_))

    decay = math.exp(-gamma * h)
    for j in range(nJ - 2, -1, -1):
        S_above = 0.5 * rhoI[j + 1] * (F[j + 1] + lam * U[:, j + 1])
        B = decay * (W[:, j + 1] - 0.5 * h * S_above)
        c = 0.25 * h * rhoI[j]
        A = np.full(next_, np.nan)
        A[1:] = U[:-1, j + 1] + 0.5 * h * W[:-1, j + 1]
        W[:, j] = (B - c * F[j] - c * lam * A) / (1.0 + 0.5 * c * lam * h)
        U[:, j] = A + 0.5 * h * W[:, j]

    u = U[nJ - 1 :, :]
    w = W[nJ - 1 :, :]
    assert not (np.any(np.isnan(u)) or np.any(np.isnan(w)))
    mismatch = 0.0
    if data.u_right is not None:
        target = np.asarray(data.u_right(rhoI), dtype=float)
        mismatch = float(np.max(np.abs(u[-1, :] - target)))
    return u, w, mismatch


def assert_same_solution(sol, ref):
    assert np.array_equal(sol.u, ref.u) and np.array_equal(sol.w, ref.w)
    assert sol.corner_mismatch == ref.corner_mismatch


EDGE = mp.BoundaryData(
    u_top=lambda r0: np.sin(np.log(r0)),
    w_top=lambda r0: 1.0 / (1.0 + r0),
    u_right=lambda rI: rI**0.5,
)


@pytest.mark.parametrize(
    "grid, gamma, forcing, data",
    [
        (mp.CharacteristicGrid(ell=2), 0.0, lambda r0, rI: r0**0.6 * log_bump(3e-3)(rI), None),
        (mp.CharacteristicGrid(ell=2), 0.4, None, EDGE),
        (GRID, 0.5, lambda r0, rI: log_bump(2e-2, 0.6)(r0) * compact_log_bump(1e-2)(rI), None),
        (GRID, 0.0, None, EDGE),
        (GRID.refined(2), 0.25, lambda r0, rI: r0**0.6 * rI ** (-0.5) * log_bump(2e-2, 0.7)(r0), EDGE),
    ],
    ids=["ell2", "ell2-data", "gamma", "no-forcing-data", "refined"],
)
def test_march_matches_column_reference(monkeypatch, grid, gamma, forcing, data):
    sol = mp.solve_damped_mode(grid, gamma, forcing, data)
    monkeypatch.setattr(mp, "_march", column_march)
    assert_same_solution(sol, mp.solve_damped_mode(grid, gamma, forcing, data))


def test_newton_iterates_match_column_reference(monkeypatch):
    f0, f1 = toy_setup()
    iterates, errors, ratios = mp.newton_iterate(GRID, 0.5, forcing=(f0, f1, None), steps=8)
    monkeypatch.setattr(mp, "_march", column_march)
    ref = mp.newton_iterate(GRID, 0.5, forcing=(f0, f1, None), steps=8)
    assert errors == ref[1] and ratios == ref[2]
    for step, ref_step in zip(iterates, ref[0], strict=True):
        for sol, ref_sol in zip(step, ref_step, strict=True):
            assert_same_solution(sol, ref_sol)


def test_forcing_is_called_per_block_on_the_cells_that_reach_the_core():
    grid = GRID.refined(2)
    nJ = len(grid.rhoI)
    n_ext = len(grid.rho0) + nJ - 1
    rho0_ext = grid._nodes(n_ext)
    row = {x: j for j, x in enumerate(grid.rhoI)}
    calls = []

    def forcing(r0, rI):
        start = n_ext - r0.shape[1]
        assert r0.shape[0] == 1 and rI.shape[1] == 1
        assert np.array_equal(r0[0], rho0_ext[start:])
        calls.append((start, [row[x] for x in rI[:, 0]]))
        return r0 * log_bump(1e-2)(rI)

    sol = mp.solve_damped_mode(grid, 0.5, forcing)
    # the forcing is evaluated on blocks of rows, never on the whole extended grid
    assert len(calls) > 1
    # row j's window [nJ - 1 - j, n_ext) holds the cells whose diagonals reach the core
    for j in range(nJ):
        assert sum(j in rows and start <= nJ - 1 - j for start, rows in calls) == 1
    # no call reaches a column left of the window of its top row
    assert all(start >= nJ - 1 - max(rows) for start, rows in calls)
    # the core arrays do not pin the extended work arrays
    for a in (sol.u, sol.w):
        assert a.shape == (len(grid.rho0), nJ)
        assert a.flags.c_contiguous and a.flags.owndata


def test_march_peak_memory_stays_near_its_outputs():
    # a 513 x 513 core: no full-grid forcing table and no transposed copy of the outputs
    grid = mp.CharacteristicGrid(points_per_decade=128)
    f = lambda r0, rI: log_bump(2e-2, 0.6)(r0) * compact_log_bump(1e-2)(rI)
    tracemalloc.start()
    try:
        sol = mp.solve_damped_mode(grid, 0.5, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.u.shape == (513, 513)
    assert peak <= 1.5 * (sol.u.nbytes + sol.w.nbytes)


# -- fits ------------------------------------------------------------------------------


def test_fit_const_manufactured():
    rhoI = GRID.rhoI
    fit = mp.fit_leading_terms(rhoI, 3.0 + rhoI, "const")
    assert fit.c0 == pytest.approx(3.0, abs=1e-10)
    assert fit.exponent == pytest.approx(1.0, abs=0.02)


def test_fit_on_a_grid_with_under_four_points_in_its_last_decade():
    # 8 points over three decades put 3 in the last one: the fit takes the first 4 instead
    rhoI = np.geomspace(1e-3, 1.0, 8)
    values = 2.0 * np.log(rhoI) + 5.0
    x, _ = mp._last_decade(rhoI, values)
    assert np.array_equal(x, rhoI[:4])
    assert mp.fit_leading_terms(rhoI, values, "log+const").c_log == pytest.approx(2.0, abs=1e-12)


def test_fit_log_const_manufactured():
    rhoI = GRID.rhoI
    fit = mp.fit_leading_terms(rhoI, 2.0 * np.log(rhoI) + 5.0, "log+const")
    assert fit.c_log == pytest.approx(2.0, abs=1e-6)
    assert fit.c0 == pytest.approx(5.0, abs=1e-6)
    assert fit.residual < 1e-10


# -- model matrices -------------------------------------------------------------------


def test_damping_block_spectrum():
    rng = np.random.default_rng(4)
    for _ in range(20):
        g1, g2 = rng.uniform(0.05, 2.0, 2)
        eig = np.sort(np.linalg.eigvals(mp.damping_block(g1, g2)).real)
        assert np.allclose(eig, np.sort([2 * g1, g1, g2]), atol=1e-12)


def test_toy_block_nilpotent():
    rng = np.random.default_rng(6)
    for _ in range(20):
        A = mp.toy_block(0.3, rng.normal())
        lower = A[1:, 1:]
        assert np.max(np.abs(lower @ lower)) == 0.0


def test_full_coupling_matrices_structure():
    from nullinf.metrics import manufactured_suite

    h = manufactured_suite()[5]
    g1, g2 = 0.45, 0.4
    A_fn, B_fn = mp.full_coupling_matrices(h, 0.2, g1, g2)
    A = A_fn(400.0, -20.0, 1.1, 0.3)[0]
    B = B_fn(400.0, -20.0, 1.1, 0.3)[0]
    # the gauge-driven block decouples: rows of PI0 slots have support on PI0 slots
    idx0 = list(mp.PI0_SLOTS)
    others = [i for i in range(7) if i not in idx0]
    assert np.max(np.abs(A[np.ix_(idx0, others)])) == 0.0
    assert np.max(np.abs(B[np.ix_(idx0, others)])) == 0.0
    # and induces exactly the damping block
    assert np.allclose(A[np.ix_(idx0, idx0)], mp.damping_block(g1, g2))
    # the log slot does not feed the bounded slots
    for i in mp.PI11C_SLOTS:
        assert A[i, mp.PI11_SLOT] == 0.0
        assert B[i, mp.PI11_SLOT] == 0.0


def test_full_coupling_matrices_evaluate_a_batch_of_points():
    from nullinf.metrics import manufactured_suite

    fns = mp.full_coupling_matrices(manufactured_suite()[5], 0.2, 0.45, 0.4)
    q, s = np.array([400.0, 500.0, 650.0]), np.array([-20.0, -21.0, -30.0])
    theta, phi = np.array([1.1, 0.7, 2.0]), np.array([0.3, 1.0, 4.0])
    for fn in fns:
        batch = fn(q, s, theta, phi)
        assert batch.shape == (3, 7, 7)
        assert fn(q[0], s[0], theta[0], phi[0]).shape == (1, 7, 7)
        assert np.array_equal(batch, np.concatenate([fn(*point) for point in zip(q, s, theta, phi)]))
