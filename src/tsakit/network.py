"""Classical multi-machine network model.

Generators are internal EMF sources of fixed magnitude behind their
transient reactance, loads are constant impedances folded into the bus
admittance matrix at flat voltage, and the whole network is reduced to
the generator internal nodes by Kron elimination.  Electrical power at
the internal nodes then depends on rotor angles only, which is what the
swing integrator consumes.  With u = exp(j delta) and one complex table
T_ij = E_i E_j conj(Y_ij) per network, Pe = Re(u * (T conj(u))), and the
imaginary part of the same product gives the Newton Jacobian.  One Newton
loop balances many dispatches as the lanes of a batched Equilibrium;
`solve_equilibrium` is its one-lane case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import (
    EquilibriumFailureError,
    FormatError,
    InvalidArgumentError,
    ReductionSingularError,
    read_text,
)

# Eliminated blocks with a condition estimate beyond this are treated as
# singular rather than silently amplifying round-off.
_CONDITION_LIMIT = 1e12

# Shunt conductance (pu) that grounds a bus for a bolted three-phase fault.
FAULT_CONDUCTANCE = 1e6

# Newton power-balance solve: residual tolerance (pu) and iteration cap.
NEWTON_TOL = 1e-8
MAX_NEWTON_ITERS = 50


@dataclass(frozen=True)
class Bus:
    bus_id: int
    shunt: complex = 0j


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    admittance: complex


@dataclass(frozen=True)
class Generator:
    """Classical machine: EMF of magnitude `emf` behind reactance `xd`.

    `m` is the inertia coefficient in s^2/rad on the system base (2H/omega_s),
    `d` the damping coefficient in pu.s/rad.
    """

    bus: int
    m: float
    d: float
    xd: float
    emf: float


@dataclass(frozen=True)
class Load:
    bus: int
    p: float
    q: float

    @property
    def s(self) -> complex:
        return complex(self.p, self.q)


@dataclass(frozen=True)
class NetworkCase:
    case_id: str
    base_frequency_hz: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    loads: tuple[Load, ...]

    def __post_init__(self):
        if not self.base_frequency_hz > 0:
            raise InvalidArgumentError("base frequency must be positive")
        ids = [b.bus_id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise InvalidArgumentError("bus ids must be unique")
        known = set(ids)
        for br in self.branches:
            if br.from_bus not in known or br.to_bus not in known:
                raise InvalidArgumentError(
                    f"branch {br.from_bus}-{br.to_bus} references an unknown bus"
                )
            if br.from_bus == br.to_bus:
                raise InvalidArgumentError("branch endpoints must differ")
        gen_buses = [g.bus for g in self.generators]
        if not self.generators:
            raise InvalidArgumentError("case needs at least one generator")
        if len(set(gen_buses)) != len(gen_buses):
            raise InvalidArgumentError("generator buses must be distinct")
        for g in self.generators:
            if g.bus not in known:
                raise InvalidArgumentError(f"generator bus {g.bus} is unknown")
            if not (g.m > 0 and g.xd > 0 and g.emf > 0 and g.d >= 0):
                raise InvalidArgumentError(
                    f"generator at bus {g.bus} has a non-physical parameter"
                )
        for ld in self.loads:
            if ld.bus not in known:
                raise InvalidArgumentError(f"load bus {ld.bus} is unknown")

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def bus_index(self, bus_id: int) -> int:
        for k, b in enumerate(self.buses):
            if b.bus_id == bus_id:
                return k
        raise InvalidArgumentError(f"unknown bus id {bus_id}")

    @property
    def inertia(self) -> np.ndarray:
        return np.array([g.m for g in self.generators])

    @property
    def damping(self) -> np.ndarray:
        return np.array([g.d for g in self.generators])

    @property
    def emf(self) -> np.ndarray:
        return np.array([g.emf for g in self.generators])

    @property
    def total_load_p(self) -> float:
        return float(sum(ld.p for ld in self.loads))


@dataclass(frozen=True)
class Equilibrium:
    """Steady state: rotor angles plus the matched mechanical injections.

    `network` is the reduced admittance the injections were balanced on.
    A batch of lanes puts the lane axis first: `delta0` and `pm` are
    (n_lanes, n_gen) and `network` is (n_lanes, n_gen, n_gen).
    """

    delta0: np.ndarray
    pm: np.ndarray
    network: np.ndarray  # complex, (n_gen, n_gen)

    def lanes(self, index) -> "Equilibrium":
        """Lanes of a batch, indexed like its arrays; None makes a lone one a one-lane batch."""
        return Equilibrium(self.delta0[index], self.pm[index], self.network[index])


def fold_loads(case: NetworkCase, load_scale: float = 1.0) -> np.ndarray:
    """Bus admittance matrix with scaled constant-impedance loads folded in.

    Loads are converted at flat voltage (|V| = 1), so a demand S becomes the
    shunt admittance conj(S) * load_scale on its bus diagonal.
    """
    if not 0 < load_scale < np.inf:
        raise InvalidArgumentError("load_scale must be positive and finite")
    n = case.n_buses
    y = np.zeros((n, n), dtype=complex)
    for k, bus in enumerate(case.buses):
        y[k, k] += bus.shunt
    for br in case.branches:
        i = case.bus_index(br.from_bus)
        j = case.bus_index(br.to_bus)
        y[i, i] += br.admittance
        y[j, j] += br.admittance
        y[i, j] -= br.admittance
        y[j, i] -= br.admittance
    for ld in case.loads:
        k = case.bus_index(ld.bus)
        y[k, k] += load_scale * ld.s.conjugate()
    return y


def kron_reduce(ybus: np.ndarray, retained) -> np.ndarray:
    """Eliminate every node not in `retained` from an admittance matrix.

    Returns Y_rr - Y_re Y_ee^-1 Y_er over the retained nodes, in the order
    given.  Raises when the eliminated block is singular to working
    precision.
    """
    y = np.asarray(ybus, dtype=complex)
    if y.ndim != 2 or y.shape[0] != y.shape[1]:
        raise InvalidArgumentError("admittance matrix must be square")
    retained = list(retained)
    n = y.shape[0]
    if len(set(retained)) != len(retained):
        raise InvalidArgumentError("retained node list contains duplicates")
    if any(k < 0 or k >= n for k in retained):
        raise InvalidArgumentError("retained node index out of range")
    eliminated = [k for k in range(n) if k not in set(retained)]
    if not eliminated:
        return y[np.ix_(retained, retained)].copy()
    y_rr = y[np.ix_(retained, retained)]
    y_re = y[np.ix_(retained, eliminated)]
    y_er = y[np.ix_(eliminated, retained)]
    y_ee = y[np.ix_(eliminated, eliminated)]
    cond = np.linalg.cond(y_ee)
    if not np.isfinite(cond) or cond > _CONDITION_LIMIT:
        raise ReductionSingularError(
            f"eliminated block is singular (condition estimate {cond:.3e})"
        )
    return y_rr - y_re @ np.linalg.solve(y_ee, y_er)


def _augmented_matrix(case: NetworkCase, ybus: np.ndarray):
    """Append generator internal nodes behind xd' to a bus matrix."""
    n = case.n_buses
    g = case.n_generators
    aug = np.zeros((n + g, n + g), dtype=complex)
    aug[:n, :n] = ybus
    for k, gen in enumerate(case.generators):
        b = case.bus_index(gen.bus)
        yg = 1.0 / complex(0.0, gen.xd)
        i = n + k
        aug[b, b] += yg
        aug[i, i] += yg
        aug[b, i] -= yg
        aug[i, b] -= yg
    return aug, list(range(n, n + g))


def reduce_to_generators(
    case: NetworkCase,
    load_scale: float = 1.0,
    fault_bus: int | None = None,
) -> np.ndarray:
    """Admittance matrix seen from the generator internal nodes.

    With `fault_bus` set, that bus is grounded through FAULT_CONDUCTANCE
    before the reduction, which models a bolted three-phase fault.
    """
    ybus = fold_loads(case, load_scale)
    if fault_bus is not None:
        k = case.bus_index(fault_bus)
        ybus = ybus.copy()
        ybus[k, k] += FAULT_CONDUCTANCE
    aug, internal = _augmented_matrix(case, ybus)
    return kron_reduce(aug, internal)


def power_tables(reduced: np.ndarray, emf: np.ndarray) -> np.ndarray:
    """The complex table T_ij = E_i E_j conj(Y_ij) that `electrical_power` reads.

    Leading axes of `reduced` are lanes, each with its own table.
    """
    reduced = np.asarray(reduced)
    emf = np.asarray(emf, dtype=float)
    if reduced.ndim < 2 or reduced.shape[-1] != reduced.shape[-2]:
        raise InvalidArgumentError("reduced admittance must be square")
    if emf.shape != reduced.shape[-1:]:
        raise InvalidArgumentError("emf must hold one entry per reduced-network node")
    return np.outer(emf, emf) * reduced.conj()


def electrical_power(delta: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Air-gap power at each internal node for rotor angles `delta`.

    With u = exp(j delta) and T from `power_tables`, Pe = Re(u * (T conj(u))),
    which is sum_j E_i E_j (G_ij cos(d_i - d_j) + B_ij sin(d_i - d_j)); the
    j = i term is the E_i^2 G_ii loss.  Angles (..., n) take tables (..., n, n).
    This checks the shapes and hands over to `_power`, the one
    implementation, which the swing integrator calls directly.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.shape[-1:] != table.shape[-1:]:
        raise InvalidArgumentError("angle vector does not match the power table")
    return _power(delta, table)


def _power(delta: np.ndarray, table: np.ndarray) -> np.ndarray:
    """`electrical_power` on float angles whose shape matches the table.

    u is exp(0 + j delta), cheaper than multiplying by 1j, and gives every
    bit of the exp(1j * delta) form's Pe (only the phasor of -0.0 differs,
    in the sign of its zero imaginary part).
    """
    z = np.zeros(delta.shape, complex)
    z.imag = delta
    u = np.exp(z)
    return (u * (table @ u.conj()[..., None])[..., 0]).real


def _power_jacobian(delta: np.ndarray, table: np.ndarray) -> np.ndarray:
    """d Pe_i / d delta_j: Im(u_i T_ij conj(u_j)) off the diagonal, minus the row sum on it.

    Angles (..., n) take tables (..., n, n), one Jacobian per lane.
    """
    u = np.exp(1j * delta)
    jac = (u[..., :, None] * table * u.conj()[..., None, :]).imag
    diagonal = np.arange(delta.shape[-1])
    jac[..., diagonal, diagonal] = 0.0
    jac[..., diagonal, diagonal] = -jac.sum(axis=-1)
    return jac


def solve_equilibrium_batch(case: NetworkCase, reduced: np.ndarray, pm: np.ndarray) -> tuple:
    """Locate the pre-fault operating points of many dispatches in one Newton loop.

    Lane b balances `pm[b]` (shape (n_lanes, n_gen)) on `reduced[b]` (shape
    (n_lanes, n_gen, n_gen)).  The first generator is the angle reference
    (delta_1 = 0) and the slack: Newton iteration drives Pe_i = Pm_i for
    the remaining machines and the first machine's Pm is then set to its
    realised Pe, absorbing network losses, so the injections balance
    exactly.  Per-lane masks stop, polish and backtrack each lane as if it
    ran alone, and lanes never mix, so every lane's result is the same
    whichever other lanes share the batch.

    Returns (equilibrium, residual, failures): one batched Equilibrium,
    each lane's final max-norm mismatch, and each lane's failure message,
    None where the lane solved.  A failed lane holds its last iterate.
    """
    network = np.asarray(reduced)
    pm = np.asarray(pm, dtype=float)
    n = case.n_generators
    if pm.shape[1:] != (n,) or network.shape != pm.shape + (n,):
        raise InvalidArgumentError("pm must have one entry per generator, on one network per lane")
    table = power_tables(network, case.emf)
    delta = np.zeros(pm.shape)
    mismatch = _power(delta, table)[:, 1:] - pm[:, 1:]
    residual = np.abs(mismatch).max(axis=1, initial=0.0)
    converged = residual < NEWTON_TOL
    # Once inside tolerance, a couple of extra quadratic steps pin the fixed
    # point near machine precision; otherwise its leftover net power drives a
    # slow common-mode drift over long integrations.
    polish_left = np.full(len(pm), 2)
    live = np.ones(len(pm), dtype=bool)
    failures = [None] * len(pm)

    def fail(lanes, message):
        live[lanes] = False
        for b in lanes:
            failures[b] = message.format(residual[b])

    for _ in range(MAX_NEWTON_ITERS):
        live &= ~(converged & ((polish_left == 0) | (residual < 1e-13)))
        lanes = np.flatnonzero(live)
        if not lanes.size:
            break
        polish_left[lanes] -= converged[lanes]
        jac = _power_jacobian(delta[lanes], table[lanes])[:, 1:, 1:]
        # slogdet runs the solve's LU factorisation: a zero sign is the zero
        # pivot that would make the solve raise, and fails only its lane.
        regular = np.linalg.slogdet(jac)[0] != 0
        fail(lanes[~regular], "singular power-flow Jacobian (residual {:.3e})")
        lanes, jac = lanes[regular], jac[regular]
        step = np.linalg.solve(jac, mismatch[lanes, :, None])[..., 0]
        # Backtrack on steps that worsen the residual; plain Newton is too
        # brash near the loadability edge.  All six scales (1, 1/2, ...,
        # 1/32) are tried at once; a lane takes its first improving one,
        # else the last.
        scales = 0.5 ** np.arange(6.0)[:, None, None]
        trials = np.repeat(delta[None, lanes], len(scales), axis=0)
        trials[..., 1:] -= scales * step
        trial_mismatch = _power(trials, table[lanes])[..., 1:] - pm[lanes, 1:]
        trial_residual = np.abs(trial_mismatch).max(axis=-1, initial=0.0)
        better = np.isfinite(trial_residual) & (trial_residual < residual[lanes])
        improved = better.any(axis=0)
        floor = converged[lanes] & ~improved  # already at the floating-point floor
        live[lanes[floor]] = False
        pick = np.where(improved, better.argmax(axis=0), len(scales) - 1)[~floor]
        lanes, cols = lanes[~floor], np.flatnonzero(~floor)
        delta[lanes] = trials[pick, cols]
        mismatch[lanes] = trial_mismatch[pick, cols]
        residual[lanes] = trial_residual[pick, cols]
        fail(lanes[~np.isfinite(delta[lanes]).all(axis=1)], "Newton step left the finite domain")
        converged[lanes] |= residual[lanes] < NEWTON_TOL
    message = f"no convergence after {MAX_NEWTON_ITERS} Newton iterations (residual {{:.3e}})"
    fail(np.flatnonzero(live & ~converged), message)

    solved = np.array([f is None for f in failures])
    pm_out = pm.copy()
    pm_out[solved, 0] = _power(delta[solved], table[solved])[:, 0]
    return Equilibrium(delta0=delta, pm=pm_out, network=network), residual, tuple(failures)


def solve_equilibrium(
    case: NetworkCase,
    reduced: np.ndarray,
    pm: np.ndarray,
) -> Equilibrium:
    """Locate the pre-fault operating point for a mechanical dispatch.

    The one-lane case of `solve_equilibrium_batch`; raises
    EquilibriumFailureError, carrying the residual, where it fails.
    """
    equilibrium, residual, (failure,) = solve_equilibrium_batch(
        case, np.asarray(reduced)[None], np.asarray(pm)[None]
    )
    if failure is not None:
        raise EquilibriumFailureError(failure, residual=float(residual[0]))
    return equilibrium.lanes(0)


# ---------------------------------------------------------------------------
# Case file handling.  Versioned, line-oriented, human-editable:
#
#   format: 1
#   id: case3
#   base_frequency_hz: 60.0
#   [buses]       id g b
#   [branches]    from to g b        (series admittance g + jb)
#   [generators]  bus m d xd emf
#   [loads]       bus p q
#
# '#' starts a comment, blank lines are ignored.

_SECTIONS = ("buses", "branches", "generators", "loads")


def _section_rows(rows, count, n_ids):
    """Each row as `count` finite numbers, the first `n_ids` of them integral bus ids."""
    for lineno, parts in rows:
        if len(parts) != count:
            raise FormatError(f"expected {count} fields, found {len(parts)}", line=lineno)
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise FormatError(f"bad numeric field: {exc}", line=lineno) from None
        if not all(map(math.isfinite, vals)):
            raise FormatError("numeric fields must be finite", line=lineno)
        ids = [int(v) for v in vals[:n_ids]]
        if ids != vals[:n_ids]:
            raise FormatError("bus ids must be integers", line=lineno)
        yield ids + vals[n_ids:]


def parse_case(text: str, case_id_hint: str = "case") -> NetworkCase:
    header: dict[str, str] = {}
    rows: dict[str, list] = {name: [] for name in _SECTIONS}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise FormatError(f"unknown section [{name}]", line=lineno)
            section = name
            continue
        if section is None:
            if ":" not in line:
                raise FormatError("expected 'key: value' before first section", line=lineno)
            key, value = (s.strip() for s in line.split(":", 1))
            header[key.lower()] = value
            continue
        rows[section].append((lineno, line.split()))

    if header.get("format") != "1":
        raise FormatError(f"unsupported case format {header.get('format')!r}")
    try:
        base_f = float(header.get("base_frequency_hz", "nan"))
    except ValueError:
        raise FormatError("base_frequency_hz is not a number") from None
    if not np.isfinite(base_f):
        raise FormatError("base_frequency_hz header is missing or not finite")

    buses = tuple(Bus(v[0], complex(v[1], v[2])) for v in _section_rows(rows["buses"], 3, 1))
    branches = tuple(
        Branch(v[0], v[1], complex(v[2], v[3])) for v in _section_rows(rows["branches"], 4, 2)
    )
    generators = tuple(Generator(*v) for v in _section_rows(rows["generators"], 5, 1))
    loads = tuple(Load(*v) for v in _section_rows(rows["loads"], 3, 1))

    try:
        return NetworkCase(
            case_id=header.get("id", case_id_hint),
            base_frequency_hz=base_f,
            buses=buses,
            branches=branches,
            generators=generators,
            loads=loads,
        )
    except InvalidArgumentError as exc:
        raise FormatError(str(exc)) from exc


def load_case(path) -> NetworkCase:
    return parse_case(read_text(path), case_id_hint=str(path))


def bundled_case_path() -> str:
    """Filesystem path of the three-machine case shipped with the package."""
    return str(resources.files("tsakit").joinpath("data/case3.txt"))


def load_bundled_case() -> NetworkCase:
    return load_case(bundled_case_path())
