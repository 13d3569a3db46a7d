"""Network model: folding, Kron reduction, air-gap power, equilibrium."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tsakit.errors import (
    EquilibriumFailureError,
    FormatError,
    InvalidArgumentError,
    ReductionSingularError,
)
from tsakit.network import (
    MAX_NEWTON_ITERS,
    NEWTON_TOL,
    Branch,
    Bus,
    Generator,
    Load,
    NetworkCase,
    electrical_power,
    fold_loads,
    kron_reduce,
    load_case,
    parse_case,
    power_tables,
    reduce_to_generators,
    _power_jacobian,
    solve_equilibrium,
    solve_equilibrium_batch,
)

# --- Kron reduction ---------------------------------------------------------


def test_kron_star_matches_series_formula():
    # Two branches meeting at an eliminated centre node behave like their
    # series combination y_a y_b / (y_a + y_b).
    y_a = complex(1.2, -4.8)
    y_b = complex(0.8, -3.2)
    full = np.array(
        [
            [y_a, 0.0, -y_a],
            [0.0, y_b, -y_b],
            [-y_a, -y_b, y_a + y_b],
        ]
    )
    series = y_a * y_b / (y_a + y_b)
    expected = np.array([[series, -series], [-series, series]])
    assert_allclose(kron_reduce(full, [0, 1]), expected, rtol=0, atol=1e-12)


def test_kron_without_elimination_reorders_only():
    y = np.array([[1.0 + 1j, -0.5], [-0.5, 2.0 - 1j]])
    out = kron_reduce(y, [1, 0])
    assert_allclose(out, y[np.ix_([1, 0], [1, 0])], rtol=0, atol=0)
    out[0, 0] = 0  # must be a copy, not a view
    assert y[1, 1] != 0


def test_kron_preserves_symmetry():
    rng = np.random.default_rng(3)
    n = 6
    off = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    y = -(off + off.T)
    np.fill_diagonal(y, -y.sum(axis=1) + np.diag(y) + (0.1 - 1j))
    reduced = kron_reduce(y, [0, 1, 2])
    assert_allclose(reduced, reduced.T, rtol=0, atol=1e-12)


def test_kron_singular_block_raises():
    y = np.array([[1.0 + 0j, 0.0], [0.0, 0.0]])
    with pytest.raises(ReductionSingularError):
        kron_reduce(y, [0])


@pytest.mark.parametrize(
    "matrix, retained",
    [
        (np.zeros((2, 3), dtype=complex), [0]),
        (np.eye(3, dtype=complex), [0, 0]),
        (np.eye(3, dtype=complex), [3]),
        (np.eye(3, dtype=complex), [-1]),
    ],
)
def test_kron_rejects_bad_input(matrix, retained):
    with pytest.raises(InvalidArgumentError):
        kron_reduce(matrix, retained)


# --- Load folding -----------------------------------------------------------


def test_fold_loads_assembles_expected_matrix(lossy_case):
    scale = 1.1
    y = fold_loads(lossy_case, load_scale=scale)
    y13 = complex(1.0, -8.0)
    y23 = complex(1.5, -6.0)
    expected = np.array(
        [
            [y13 + complex(0.0, 0.05), 0.0, -y13],
            [0.0, y23, -y23],
            [-y13, -y23, y13 + y23 + scale * complex(1.1, -0.4)],
        ]
    )
    assert_allclose(y, expected, rtol=0, atol=1e-15)


def test_fold_loads_rejects_nonpositive_scale(lossy_case):
    with pytest.raises(InvalidArgumentError):
        fold_loads(lossy_case, load_scale=0.0)


# --- Reduction to generator internal nodes ----------------------------------


def test_pair_case_reduces_to_series_susceptance(pair_case):
    reduced = reduce_to_generators(pair_case)
    expected = np.array([[-2.5j, 2.5j], [2.5j, -2.5j]])
    assert_allclose(reduced, expected, rtol=0, atol=1e-12)


def test_fault_at_terminal_kills_transfer_and_pins_diagonal(pair_case):
    pre = reduce_to_generators(pair_case)
    faulted = reduce_to_generators(pair_case, fault_bus=2)
    assert abs(faulted[0, 1]) < 1e-3 * abs(pre[0, 1])
    # With its terminal grounded, machine 2 sees essentially just xd.
    assert_allclose(faulted[1, 1], 1.0 / complex(0.0, 0.1), rtol=1e-3)


def test_reduced_network_shape_validation():
    with pytest.raises(InvalidArgumentError):
        power_tables(np.zeros((2, 3), dtype=complex), np.ones(2))
    with pytest.raises(InvalidArgumentError):
        power_tables(np.zeros((2, 2), dtype=complex), np.ones(3))


# --- Electrical power -------------------------------------------------------


def test_electrical_power_matches_scalar_formula():
    y = np.array(
        [
            [complex(0.5, -2.0), complex(-0.4, 1.5)],
            [complex(-0.4, 1.5), complex(0.3, -1.8)],
        ]
    )
    emf = np.array([1.05, 0.98])
    delta = np.array([0.3, -0.2])

    def scalar_pe(i):
        total = 0.0
        for j in range(2):
            dd = delta[i] - delta[j]
            total += emf[i] * emf[j] * (
                y[i, j].real * math.cos(dd) + y[i, j].imag * math.sin(dd)
            )
        return total

    pe = electrical_power(delta, power_tables(y, emf))
    assert_allclose(pe, [scalar_pe(0), scalar_pe(1)], rtol=0, atol=1e-14)


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_lossless_power_sums_to_zero(n, seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, n))
    b = 0.5 * (b + b.T)
    reduced = 1j * b
    emf = rng.uniform(0.9, 1.1, size=n)
    delta = rng.uniform(-2.0, 2.0, size=n)
    pe = electrical_power(delta, power_tables(reduced, emf))
    assert abs(pe.sum()) < 1e-10


@settings(deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
def test_power_is_invariant_to_common_angle_shift(n, seed, shift):
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.0, 1.0, size=(n, n))
    b = rng.normal(size=(n, n))
    y = 0.5 * ((g + g.T) + 1j * (b + b.T))
    emf = rng.uniform(0.9, 1.1, size=n)
    delta = rng.uniform(-2.0, 2.0, size=n)
    pe = electrical_power(delta, power_tables(y, emf))
    pe_shifted = electrical_power(delta + shift, power_tables(y, emf))
    assert_allclose(pe_shifted, pe, rtol=0, atol=1e-9)


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_power_jacobian_matches_central_differences(n, seed):
    # Newton's Jacobian against a numerical derivative of the power it
    # linearises, on lossy networks; central differences at h = 1e-6 are
    # good to about 1e-9 here.
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.0, 1.0, size=(n, n))
    b = rng.normal(size=(n, n))
    y = 0.5 * ((g + g.T) + 1j * (b + b.T))
    table = power_tables(y, rng.uniform(0.9, 1.1, size=n))
    delta = rng.uniform(-2.0, 2.0, size=n)
    h = 1e-6
    step = h * np.eye(n)
    numeric = np.stack(
        [
            (electrical_power(delta + step[j], table) - electrical_power(delta - step[j], table))
            / (2 * h)
            for j in range(n)
        ],
        axis=1,
    )
    assert_allclose(_power_jacobian(delta, table), numeric, rtol=0, atol=1e-7)


def test_electrical_power_validates_shapes(pair_case):
    reduced = reduce_to_generators(pair_case)
    with pytest.raises(InvalidArgumentError):
        electrical_power(np.zeros(3), power_tables(reduced, np.ones(2)))
    with pytest.raises(InvalidArgumentError):
        electrical_power(np.zeros(2), power_tables(reduced, np.ones(3)))


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
# A full 256-lane batch on a ten-machine network, where matmul hands every
# lane to BLAS.
@example(n=10, lanes=256, seed=10)
def test_batched_power_rows_equal_lone_calls(n, lanes, seed):
    # The integrator evaluates (B, n) angles over stacked (B, n, n) tables;
    # each lane must equal its own 1-D call bit for bit.
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(lanes, n, n)) + 1j * rng.normal(size=(lanes, n, n))
    delta = rng.uniform(-4.0, 4.0, size=(lanes, n))
    batched = electrical_power(delta, table)
    assert batched.shape == (lanes, n)
    for b in range(lanes):
        assert np.array_equal(batched[b], electrical_power(delta[b], table[b]))


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_electrical_power_equals_the_literal_phasor_formula(n, lanes, seed):
    # The phasors are formed as exp(0 + j delta); Pe must keep every bit of
    # the textbook exp(1j * delta) form, on 1-D (lanes == 0) and batched
    # angles up to 1e3 rad with signed zeros mixed in, on lossy and
    # lossless tables.
    rng = np.random.default_rng(seed)
    shape = (n,) if lanes == 0 else (lanes, n)
    delta = rng.uniform(-1e3, 1e3, size=shape) * 10.0 ** rng.uniform(-6.0, 0.0, size=shape)
    pick = rng.random(shape)
    delta[pick < 0.15] = 0.0
    delta[pick > 0.85] = -0.0
    table = rng.normal(size=shape[:-1] + (n, n)) * rng.integers(0, 2) + 1j * rng.normal(
        size=shape[:-1] + (n, n)
    )
    u = np.exp(1j * delta)
    literal = (u * (table @ u.conj()[..., None])[..., 0]).real
    assert electrical_power(delta, table).tobytes() == literal.tobytes()


# --- Equilibrium ------------------------------------------------------------


def test_equilibrium_closed_form_on_pair(pair_case):
    reduced = reduce_to_generators(pair_case)
    p = 1.25
    eq = solve_equilibrium(pair_case, reduced, np.array([p, -p]))
    # Machine 2 absorbs p through a 2.5 pu synchronizing coefficient.
    assert_allclose(eq.delta0, [0.0, -math.asin(p / 2.5)], rtol=0, atol=1e-10)
    assert_allclose(eq.pm, [p, -p], rtol=0, atol=1e-10)
    pe = electrical_power(eq.delta0, power_tables(reduced, pair_case.emf))
    assert_allclose(pe, eq.pm, rtol=0, atol=1e-8)


def test_equilibrium_balances_all_machines(lossy_case):
    reduced = reduce_to_generators(lossy_case, load_scale=1.05)
    pm = np.array([0.6, 0.5])
    eq = solve_equilibrium(lossy_case, reduced, pm)
    assert eq.delta0[0] == 0.0
    pe = electrical_power(eq.delta0, power_tables(reduced, lossy_case.emf))
    assert np.max(np.abs(pe - eq.pm)) < 1e-8
    # Non-slack dispatch passes through untouched; the slack absorbs losses.
    assert eq.pm[1] == pm[1]
    assert eq.pm[0] != pm[0]


def test_equilibrium_is_reproducible(lossy_case):
    reduced = reduce_to_generators(lossy_case)
    pm = np.array([0.55, 0.55])
    first = solve_equilibrium(lossy_case, reduced, pm)
    second = solve_equilibrium(lossy_case, reduced, pm)
    assert np.array_equal(first.delta0, second.delta0)
    assert np.array_equal(first.pm, second.pm)


def test_equilibrium_beyond_loadability_fails(pair_case):
    reduced = reduce_to_generators(pair_case)
    with pytest.raises(EquilibriumFailureError) as excinfo:
        solve_equilibrium(pair_case, reduced, np.array([3.0, -3.0]))
    assert excinfo.value.residual > 0


@pytest.mark.parametrize("position", [0, 1])
def test_a_singular_lane_fails_alone(pair_case, position):
    # Two islanded machines reduce to a zero network: no power flows, so the
    # mismatch stays 0.5 and the Jacobian is zero.  Stacked with the pair's
    # network, only that lane fails; the other is its lone solve.
    zero = reduce_to_generators(dataclasses.replace(pair_case, branches=()))
    assert not zero.any()
    pm = np.array([0.5, -0.5])
    with pytest.raises(EquilibriumFailureError, match="singular") as excinfo:
        solve_equilibrium(pair_case, zero, pm)
    assert excinfo.value.residual == 0.5
    tied = reduce_to_generators(pair_case)
    networks = [tied, tied]
    networks[position] = zero
    batch, residual, failures = solve_equilibrium_batch(
        pair_case, np.stack(networks), np.stack([pm, pm])
    )
    assert failures[position] == str(excinfo.value) and residual[position] == 0.5
    lone = solve_equilibrium(pair_case, tied, pm)
    other = batch.lanes(1 - position)
    assert failures[1 - position] is None
    assert other.delta0.tobytes() == lone.delta0.tobytes()
    assert other.pm.tobytes() == lone.pm.tobytes()


def _reference_newton(case, reduced, pm):
    """The per-dispatch Newton loop that the batched solve replaced, kept as
    its oracle: (delta0, pm) of a solved dispatch, else the failure message."""
    table = power_tables(reduced, case.emf)

    def mismatch_at(d):
        return electrical_power(d, table)[1:] - pm[1:]

    delta = np.zeros(len(pm))
    mismatch = mismatch_at(delta)
    residual = float(np.max(np.abs(mismatch)))
    converged = residual < NEWTON_TOL
    polish_left = 2
    for _ in range(MAX_NEWTON_ITERS):
        if converged and (polish_left == 0 or residual < 1e-13):
            break
        if converged:
            polish_left -= 1
        u = np.exp(1j * delta)
        jac = (u[:, None] * table * u.conj()).imag
        np.fill_diagonal(jac, 0.0)
        np.fill_diagonal(jac, -jac.sum(axis=1))
        try:
            step = np.linalg.solve(jac[1:, 1:], mismatch)
        except np.linalg.LinAlgError:
            return f"singular power-flow Jacobian (residual {residual:.3e})"
        scale = 1.0
        improved = False
        for _ in range(6):
            trial = delta.copy()
            trial[1:] -= scale * step
            trial_mismatch = mismatch_at(trial)
            trial_residual = float(np.max(np.abs(trial_mismatch)))
            if np.isfinite(trial_residual) and trial_residual < residual:
                improved = True
                break
            scale *= 0.5
        if converged and not improved:
            break
        delta, mismatch, residual = trial, trial_mismatch, trial_residual
        if not np.all(np.isfinite(delta)):
            return "Newton step left the finite domain"
        converged = converged or residual < NEWTON_TOL
    if not converged:
        iterations = f"{MAX_NEWTON_ITERS} Newton iterations"
        return f"no convergence after {iterations} (residual {residual:.3e})"
    pm_out = pm.copy()
    pm_out[0] = electrical_power(delta, table)[0]
    return delta, pm_out


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_batched_newton_takes_the_per_dispatch_steps(bundled_case, order):
    # Scaling network and dispatch by 1e4 keeps the angles but lifts the
    # round-off floor above 1e-13, so lanes end their polishing at the
    # floor or after both polishing steps; three times the load does not
    # converge.  Eight lanes each of (gain, load):
    gain = np.repeat([1e4, 1e4, 1.0, 1.0], 8)
    load = np.repeat([0.5, 1.0, 1.0, 3.0], 8)
    shares = np.random.default_rng(0).dirichlet(np.full(3, 8.0), size=32)
    pm = shares * (bundled_case.total_load_p * gain * load)[:, None]
    networks = reduce_to_generators(bundled_case) * gain[:, None, None]
    lanes = np.arange(32) if order == "forward" else np.arange(32)[::-1]
    batch, _, failures = solve_equilibrium_batch(bundled_case, networks[lanes], pm[lanes])
    outcomes = [_reference_newton(bundled_case, networks[k], pm[k]) for k in lanes]
    assert sum(isinstance(out, str) for out in outcomes) == 8
    for b, out in enumerate(outcomes):
        if isinstance(out, str):
            assert failures[b] == out
            continue
        assert failures[b] is None
        assert batch.delta0[b].tobytes() == out[0].tobytes()
        assert batch.pm[b].tobytes() == out[1].tobytes()


def test_equilibrium_rejects_wrong_dispatch_shape(pair_case):
    reduced = reduce_to_generators(pair_case)
    with pytest.raises(InvalidArgumentError):
        solve_equilibrium(pair_case, reduced, np.zeros(3))


def test_equilibrium_rejects_a_reduced_network_of_another_size(pair_case, bundled_case):
    three_machine = reduce_to_generators(bundled_case)
    with pytest.raises(InvalidArgumentError):
        solve_equilibrium(pair_case, three_machine, np.array([0.5, -0.5]))
    # A batch needs one network per lane, not one shared network.
    with pytest.raises(InvalidArgumentError, match="one network per lane"):
        solve_equilibrium_batch(pair_case, reduce_to_generators(pair_case), np.zeros((2, 2)))


# --- Case construction and validation ---------------------------------------


@pytest.mark.parametrize(
    "mutation",
    [
        dict(buses=(Bus(1), Bus(1))),
        dict(branches=(Branch(1, 9, 1j),)),
        dict(branches=(Branch(1, 1, 1j),)),
        dict(generators=()),
        dict(
            generators=(
                Generator(bus=1, m=0.05, d=0.0, xd=0.1, emf=1.0),
                Generator(bus=1, m=0.05, d=0.0, xd=0.1, emf=1.0),
            )
        ),
        dict(generators=(Generator(bus=1, m=-0.05, d=0.0, xd=0.1, emf=1.0),)),
        dict(generators=(Generator(bus=1, m=0.05, d=-0.1, xd=0.1, emf=1.0),)),
        dict(loads=(Load(bus=42, p=1.0, q=0.0),)),
        dict(base_frequency_hz=0.0),
        # NaN fails every comparison, so each check must be written to fail on it.
        dict(generators=(Generator(bus=1, m=math.nan, d=0.0, xd=0.1, emf=1.0),)),
        dict(generators=(Generator(bus=1, m=0.05, d=math.nan, xd=0.1, emf=1.0),)),
        dict(generators=(Generator(bus=1, m=0.05, d=0.0, xd=math.nan, emf=1.0),)),
        dict(generators=(Generator(bus=1, m=0.05, d=0.0, xd=0.1, emf=math.nan),)),
        dict(base_frequency_hz=math.nan),
    ],
)
def test_case_validation_rejects(mutation):
    fields = dict(
        case_id="bad",
        base_frequency_hz=60.0,
        buses=(Bus(1), Bus(2)),
        branches=(Branch(1, 2, complex(0.0, -5.0)),),
        generators=(Generator(bus=1, m=0.05, d=0.0, xd=0.1, emf=1.0),),
        loads=(),
    )
    fields.update(mutation)
    with pytest.raises(InvalidArgumentError):
        NetworkCase(**fields)


def test_invalid_argument_is_a_value_error():
    assert issubclass(InvalidArgumentError, ValueError)


# --- Case files --------------------------------------------------------------

CASE_TEXT = """\
format: 1
id: mini
base_frequency_hz: 60.0

[buses]
1 0.0 0.0
2 0.0 0.10   # shunt compensation

[branches]
1 2 0.0 -5.0

[generators]
1 0.05 0.01 0.10 1.00

[loads]
2 0.8 0.25
"""


def test_parse_case_reads_every_section():
    case = parse_case(CASE_TEXT)
    assert case.case_id == "mini"
    assert case.base_frequency_hz == 60.0
    assert case.buses == (Bus(1, 0j), Bus(2, complex(0.0, 0.10)))
    assert case.branches == (Branch(1, 2, complex(0.0, -5.0)),)
    assert case.generators == (Generator(bus=1, m=0.05, d=0.01, xd=0.10, emf=1.00),)
    assert case.loads == (Load(bus=2, p=0.8, q=0.25),)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("format: 2\n", "format"),
        ("format: 1\nbase_frequency_hz: sixty\n", "number"),
        ("format: 1\n", "base_frequency_hz"),
        ("format: 1\nbase_frequency_hz: 60\n[nonsense]\n", "section"),
        ("format: 1\nbase_frequency_hz: 60\n[buses]\n1 0.0\n", "fields"),
        ("format: 1\nbase_frequency_hz: 60\n[buses]\n1 0.0 zap\n", "numeric"),
        ("no header here\n", "key"),
        ("format: 1\nbase_frequency_hz: 60\n[buses]\ninf 0.0 0.0\n", "finite"),
        ("format: 1\nbase_frequency_hz: 60\n[buses]\nnan 0.0 0.0\n", "finite"),
        ("format: 1\nbase_frequency_hz: 60\n[buses]\n1.5 0.0 0.0\n", "integer"),
        ("format: 1\nbase_frequency_hz: 60\n[branches]\n1 2.5 0.0 -5.0\n", "integer"),
        ("format: 1\nbase_frequency_hz: 60\n[generators]\n1 nan 0.0 0.1 1.0\n", "finite"),
        ("format: 1\nbase_frequency_hz: 60\n[loads]\n2 1e400 0.0\n", "finite"),
    ],
)
def test_parse_case_rejects_malformed_text(text, fragment):
    with pytest.raises(FormatError) as excinfo:
        parse_case(text)
    assert fragment in str(excinfo.value)


def test_parse_case_reports_offending_line():
    text = "format: 1\nbase_frequency_hz: 60\n[buses]\n1 0.0 0.0\n2 oops\n"
    with pytest.raises(FormatError) as excinfo:
        parse_case(text)
    assert excinfo.value.line == 5


def test_parse_case_wraps_semantic_errors():
    text = CASE_TEXT + "\n[loads]\n7 1.0 0.0\n"
    with pytest.raises(FormatError):
        parse_case(text)


def test_load_case_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_case(tmp_path / "nope.txt")


def test_bundled_case_shape(bundled_case):
    assert bundled_case.n_buses == 9
    assert bundled_case.n_generators == 3
    assert bundled_case.base_frequency_hz == 60.0
    assert bundled_case.total_load_p > 0
    # A plain reduction of the shipped case must go through.
    reduced = reduce_to_generators(bundled_case)
    assert reduced.shape == (3, 3)
