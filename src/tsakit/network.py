"""Classical multi-machine network model.

Generators are internal EMF sources of fixed magnitude behind their
transient reactance, loads are constant impedances folded into the bus
admittance matrix at flat voltage, and the whole network is reduced to
the generator internal nodes by Kron elimination.  Electrical power at
the internal nodes then depends on rotor angles only, which is what the
swing integrator consumes.
"""

from __future__ import annotations

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
        if self.base_frequency_hz <= 0:
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
            if g.m <= 0 or g.xd <= 0 or g.emf <= 0 or g.d < 0:
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
    """

    delta0: np.ndarray
    pm: np.ndarray
    network: np.ndarray  # complex, (n_gen, n_gen)


def fold_loads(case: NetworkCase, load_scale: float = 1.0) -> np.ndarray:
    """Bus admittance matrix with scaled constant-impedance loads folded in.

    Loads are converted at flat voltage (|V| = 1), so a demand S becomes the
    shunt admittance conj(S) * load_scale on its bus diagonal.
    """
    if load_scale <= 0:
        raise InvalidArgumentError("load_scale must be positive")
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


def power_tables(reduced: np.ndarray, emf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tables (E_i E_j G_ij, E_i E_j B_ij) that `electrical_power` reads."""
    reduced = np.asarray(reduced)
    emf = np.asarray(emf, dtype=float)
    if reduced.ndim != 2 or reduced.shape[0] != reduced.shape[1]:
        raise InvalidArgumentError("reduced admittance must be square")
    if emf.shape != (reduced.shape[0],):
        raise InvalidArgumentError("emf must hold one entry per reduced-network node")
    ee = np.outer(emf, emf)
    return ee * reduced.real, ee * reduced.imag


def electrical_power(delta: np.ndarray, eg: np.ndarray, eb: np.ndarray, work=None) -> np.ndarray:
    """Air-gap power at each internal node for rotor angles `delta`.

    Pe_i = sum_j E_i E_j (G_ij cos(d_i - d_j) + B_ij sin(d_i - d_j)) with
    (eg, eb) from `power_tables`; the j = i term is the E_i^2 G_ii loss.
    Angles (..., n) take tables (..., n, n); `work` may lend three buffers
    of that shape, which the integrator reuses across calls.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.shape[-1:] != eg.shape[-1:]:
        raise InvalidArgumentError("angle vector does not match the power tables")
    if work is None:
        work = tuple(np.empty(delta.shape + delta.shape[-1:]) for _ in range(3))
    dd, cos, sin = work
    np.subtract(delta[..., :, None], delta[..., None, :], out=dd)
    np.cos(dd, out=cos)
    np.sin(dd, out=sin)
    np.multiply(eg, cos, out=cos)
    np.multiply(eb, sin, out=sin)
    np.add(cos, sin, out=cos)
    return np.add.reduce(cos, axis=-1)


def solve_equilibrium(
    case: NetworkCase,
    reduced: np.ndarray,
    pm: np.ndarray,
) -> Equilibrium:
    """Locate the pre-fault operating point for a mechanical dispatch.

    The first generator is the angle reference (delta_1 = 0) and the slack:
    Newton iteration drives Pe_i = Pm_i for the remaining machines and the
    first machine's Pm is then set to its realised Pe, absorbing network
    losses.  The returned injections therefore balance exactly.
    """
    pm = np.asarray(pm, dtype=float)
    n = case.n_generators
    if pm.shape != (n,):
        raise InvalidArgumentError("pm must have one entry per generator")
    eg, eb = power_tables(reduced, case.emf)

    def mismatch_at(d):
        return electrical_power(d, eg, eb)[1:] - pm[1:]

    delta = np.zeros(n)
    mismatch = mismatch_at(delta)
    residual = float(np.max(np.abs(mismatch))) if n > 1 else 0.0
    converged = residual < NEWTON_TOL
    # Once inside tolerance, a couple of extra quadratic steps pin the fixed
    # point near machine precision; otherwise its leftover net power drives a
    # slow common-mode drift over long integrations.
    polish_left = 2
    for _ in range(MAX_NEWTON_ITERS):
        if converged and (polish_left == 0 or residual < 1e-13):
            break
        if converged:
            polish_left -= 1
        dd = delta[:, None] - delta[None, :]
        jac_full = eg * np.sin(dd) - eb * np.cos(dd)
        np.fill_diagonal(jac_full, 0.0)
        np.fill_diagonal(jac_full, -jac_full.sum(axis=1))
        jac = jac_full[1:, 1:]
        try:
            step = np.linalg.solve(jac, mismatch)
        except np.linalg.LinAlgError as exc:
            raise EquilibriumFailureError(
                f"singular power-flow Jacobian (residual {residual:.3e})",
                residual=residual,
            ) from exc
        # Backtrack on steps that worsen the residual; plain Newton is too
        # brash near the loadability edge.
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
            break  # already at the floating-point floor
        delta, mismatch, residual = trial, trial_mismatch, trial_residual
        if not np.all(np.isfinite(delta)):
            raise EquilibriumFailureError(
                "Newton step left the finite domain", residual=residual
            )
        converged = converged or residual < NEWTON_TOL
    if not converged:
        raise EquilibriumFailureError(
            f"no convergence after {MAX_NEWTON_ITERS} Newton iterations "
            f"(residual {residual:.3e})",
            residual=residual,
        )

    pm_out = pm.copy()
    pm_out[0] = electrical_power(delta, eg, eb)[0]
    return Equilibrium(delta0=delta, pm=pm_out, network=reduced)


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


def _parse_floats(parts, count, lineno):
    if len(parts) != count:
        raise FormatError(f"expected {count} fields, found {len(parts)}", line=lineno)
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise FormatError(f"bad numeric field: {exc}", line=lineno) from None


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
        raise FormatError("missing base_frequency_hz header")

    buses = []
    for lineno, parts in rows["buses"]:
        vals = _parse_floats(parts, 3, lineno)
        buses.append(Bus(bus_id=int(vals[0]), shunt=complex(vals[1], vals[2])))
    branches = []
    for lineno, parts in rows["branches"]:
        vals = _parse_floats(parts, 4, lineno)
        branches.append(
            Branch(from_bus=int(vals[0]), to_bus=int(vals[1]), admittance=complex(vals[2], vals[3]))
        )
    generators = []
    for lineno, parts in rows["generators"]:
        vals = _parse_floats(parts, 5, lineno)
        generators.append(Generator(bus=int(vals[0]), m=vals[1], d=vals[2], xd=vals[3], emf=vals[4]))
    loads = []
    for lineno, parts in rows["loads"]:
        vals = _parse_floats(parts, 3, lineno)
        loads.append(Load(bus=int(vals[0]), p=vals[1], q=vals[2]))

    try:
        return NetworkCase(
            case_id=header.get("id", case_id_hint),
            base_frequency_hz=base_f,
            buses=tuple(buses),
            branches=tuple(branches),
            generators=tuple(generators),
            loads=tuple(loads),
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
