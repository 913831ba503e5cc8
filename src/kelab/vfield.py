"""The holomorphic vector field of a constant-gradient-length potential.

For a potential phi of a metric with Ricci constant K the construction is

    V = i e^(K phi / (n+1)) grad(phi),      grad(phi) = phi^a d/dz^a.

When |dphi|_half^2 is identically (n+1)/K the field is holomorphic and
nowhere vanishing; its real part generates a 1-parameter isometry group.
``dbar_defect`` measures |nabla'' V|^2 for any potential (it is the
diagnostic that vanishes exactly in the certified case).  It,
``dbar_defect_closed_form`` and ``level_set_tangency`` take a point (a
float back) or an (N, n) stack (an array of N back, from one frame of the
stack).  ``integrate_flow`` follows the real fields

    Re W:  dz/dt = i phi^a(z)          (tangent to the level sets of phi)
    Re V:  dz/dt = i e^(K phi/(n+1)) phi^a(z)

with a fixed-step sixth-order Adams–Bashforth method, started by five RK4
steps.  One integrator serves every flow: it advances an (M, n) stack of
start points in lockstep, each row with its own time and generator, and
builds one stacked frame per multistep step (four per RK4 step).  A
fixed-time check (``pullback_check``, ``reparametrization_check``) is
its start rows plus the reduction of their endpoints to a residual, so
``run_flows`` can integrate a recorded trajectory and several checks as
one stack; ``pullback_metric_deviation`` integrates the pullback check
alone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import hermgeo
from .errors import CertificateError, FlowExitError
from .hermgeo import _per_point, _transpose
from .jets import as_integer, as_point, as_points

MAX_HORIZON = 10.0


@dataclass(frozen=True)
class VectorFieldAt:
    """Components V^a (including the factor i) and norm data at a point."""

    point: np.ndarray
    components: np.ndarray
    norm: float  # |V|_omega = e^(K phi/(n+1)) |dphi|_half


def _gradient_parts(p, z, order=2):
    frame = hermgeo.metric_from_potential(p, z, order=order)
    phi_z = frame.jet.holo_gradient()
    phi_up = frame.raise_index(phi_z)
    return frame, phi_z, phi_up


def _exp_factor(p, value):
    """e^(K phi/(n+1)) of a value (a float back) or an array of values."""
    return _per_point(
        np.exp(p.ricci_constant * np.asarray(value) / (p.domain.n + 1)))


def vector_field(p, z, certificate) -> VectorFieldAt:
    """V at z.  ``certificate`` is the passing constant-gradient-length
    certificate of ``p`` (``certify_constant_length``); the construction is
    only guaranteed to be holomorphic in that case.  ``None`` skips the
    check."""
    if certificate is not None:
        if certificate.label != p.label:
            raise CertificateError(
                f"certificate of {certificate.label} given for {p.label}"
            )
        certificate.require()
    z = as_point(z)
    frame, phi_z, phi_up = _gradient_parts(p, z)
    factor = _exp_factor(p, frame.jet.value())
    length = float(np.sqrt(max(hermgeo.gradient_length_sq(frame), 0.0)))
    return VectorFieldAt(
        point=z,
        components=1j * factor * phi_up,
        norm=factor * length,
    )


def dbar_defect(p, z):
    """|nabla'' V|^2 at z, from

        V^a_{;bbar} = e^(K phi/(n+1)) ( (K/(n+1)) phi_bbar phi^a
                                        + g^{a mbar} conj(phi_{m;b}) ).

    Works for any potential (no certificate needed): for non-constant
    gradient length it measures how far the construction is from being
    holomorphic at z.  ``z`` is a point (a float back) or an (N, n) stack
    (an array of N back, from one order-3 frame of the stack).
    """
    frame, phi_z, phi_up = _gradient_parts(p, z, order=3)
    K = p.ricci_constant
    H = hermgeo.covariant_hessian(frame)
    # [a, b] = g^{a mbar} conj(H[m, b])
    raised_conj_hessian = _transpose(frame.g_inv) @ np.conj(H)
    T = ((K / (frame.dim + 1))
         * (phi_up[..., :, None] * np.conj(phi_z)[..., None, :])
         + raised_conj_hessian)
    T = np.asarray(_exp_factor(p, frame.jet.value()))[..., None, None] * T
    # |T|^2 with the upper index lowered by g and the barred one raised:
    val = np.sum(frame.g * (T @ frame.g_inv @ np.conj(_transpose(T))),
                 axis=(-2, -1))
    return _per_point(np.real(val))


def dbar_defect_closed_form(p, z):
    """e^(2K phi/(n+1)) ((K/(n+1)) |dphi|_half^2 - 1)^2 at z.

    Equals ``dbar_defect`` exactly when the gradient length is the constant
    (n+1)/K (both sides are then zero).  The law is derived from two
    identities that hold only in that case: the key equation
    phi_{a;b} phi^a = -phi_b and |Hess phi|^2 = K|dphi|^2_half - n = 1.  For
    other potentials it is a formal expression, not the actual defect: for
    the ball's defining potential phi_rho the law is identically 1, while
    V^a = i z^a is holomorphic and the defect is 0.  ``z`` is a point (a
    float back) or an (N, n) stack (an array of N back, from one order-2
    frame of the stack).
    """
    frame = hermgeo.metric_from_potential(p, z, order=2)
    L = hermgeo.gradient_length_sq(frame)
    K = p.ricci_constant
    # float_power is the C pow that a float's ** calls; an array's ** 2 is
    # x * x, which can differ from it by an ulp
    return _per_point(np.float_power(_exp_factor(p, frame.jet.value()), 2)
                      * np.float_power(K / (frame.dim + 1) * L - 1.0, 2))


def level_set_tangency(p, z):
    """|(Re W) phi| at z with W = i grad(phi): i (phi^a phi_a) - conj(...).

    Algebraically zero for every potential since phi^a phi_a is real; the
    return value is pure floating-point noise.  ``z`` is a point (a float
    back) or an (N, n) stack (an array of N back).
    """
    frame, phi_z, phi_up = _gradient_parts(p, z)
    a = np.sum(phi_up * phi_z, axis=-1)
    return _per_point(np.abs(1j * a - 1j * np.conj(a)))


# ---------------------------------------------------------------------------
# flows

def _velocity(p, z, re_v):
    """Re W, or Re V on the rows where ``re_v`` holds, at an (M, n) stack.

    Re V is the Re W velocity i phi^a times e^(K phi/(n+1)); one stacked
    frame serves every row.
    """
    frame = hermgeo.metric_from_potential(p, z, order=2)
    phi_up = frame.raise_index(frame.jet.holo_gradient())
    n = p.domain.n
    factor = np.where(re_v, np.exp(p.ricci_constant * frame.jet.value()
                                   / (n + 1)), 1.0)
    return (1j * factor)[:, None] * phi_up


#: Adams–Bashforth weights of order 6, beta_j = AB6_NUMERATORS[j] / 1440
#: for the velocity j steps back (Hairer, Nørsett and Wanner, *Solving
#: ODEs I*, §III.1)
AB6_NUMERATORS = (4277, -7923, 9982, -7298, 2877, -475)
AB6_DENOMINATOR = 1440
# read-only complex 0-d arrays: a float weight is cast to this complex value
# before it multiplies a complex array, so the products keep their bits and
# skip the cast (a numpy scalar would take the slow scalar path)
_AB6 = tuple(np.array(b / AB6_DENOMINATOR, dtype=complex)
             for b in AB6_NUMERATORS)
for _weight in _AB6:
    _weight.setflags(write=False)
_HISTORY = len(_AB6)


def _lockstep(p, z0, t, dt, generator, record_every=0):
    """Lockstep sixth-order Adams–Bashforth of an (M, n) stack of start
    points.

    Row i runs steps_i = round(|t_i|/dt) steps of h_i = t_i/steps_i under
    its own generator and then freezes; a row with t_i != 0 runs at least
    one step.  Step k >= 6 is z_k = z_{k-1} + h sum_j beta_j f_{k-1-j}
    with one stacked frame, f_{k-1}, over the rows still running; steps 1
    to 5 are RK4 (four frames each), and their first stage fills the
    history of velocities.  The weights are summed elementwise in a fixed
    order, so a row's result does not depend on the stack it runs in.
    The running rows and their history step as one compacted stack; rows
    only ever drop, and only at a step after some row's last step or after
    an exit, so the stack is gathered again only then.
    ``t`` and ``generator`` are one value for all rows or one per row.
    Returns the (M, n) endpoints and the trajectory of row 0 as
    [(time, point)]: its start, the point after every ``record_every``-th
    of its own steps and after its last (``record_every`` is an integer,
    ``as_integer``; 0 records the start and the end only).

    Every accepted step is checked for membership, in one stacked
    ``contains`` call over the running rows.  Rows that leave the
    domain stop; the others run on while they could still leave earlier,
    and the earliest exit (the lowest row on ties) is raised as a
    ``FlowExitError`` carrying that row's exit time.
    """
    m = len(z0)
    t = np.broadcast_to(np.asarray(t, dtype=float), (m,))
    generator = np.broadcast_to(np.asarray(generator), (m,))
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    record_every = as_integer(record_every, "record_every")
    if record_every < 0:
        raise ValueError(f"record_every must be >= 0, got {record_every}")
    for ti in t:
        if not abs(ti) <= MAX_HORIZON:
            raise ValueError(f"t must be finite with |t| <= {MAX_HORIZON}, "
                             f"got {ti}")
    for g in generator.tolist():
        if g not in ("re_w", "re_v"):
            raise ValueError(f"unknown generator {g!r}; use re_w or re_v")
    d = p.domain
    outside = np.flatnonzero(~d.contains(z0))
    if outside.size:
        raise FlowExitError(
            f"initial point {z0[outside[0]]!r} outside {d.label}", 0.0)
    steps = np.array([max(int(round(abs(ti) / dt)), 1) if ti else 0
                      for ti in t])
    h = np.array([ti / s if s else 0.0 for ti, s in zip(t, steps)])
    abs_h = np.abs(h)
    re_v = generator == "re_v"

    drops = set(steps.tolist())  # the running set changes after these
    z = z0.copy()
    # the running rows, their points, steps, generators and velocities;
    # history[(k - 1) % 6] is f_{k-1}, the velocity at the start of step k,
    # a ring of the arrays _velocity returned (None before they exist)
    run = np.arange(m)
    zr, hr, rv = z, h[:, None], re_v
    history = [None] * _HISTORY
    record = [(0.0, z[0].copy())]
    last = int(steps[0])  # row 0's last step
    exits = []  # (|exit time|, row, exit time)
    earliest = np.inf
    left = np.zeros(m, dtype=bool)
    for k in range(1, int(steps.max()) + 1):
        if k - 1 in drops or exits:
            new = np.flatnonzero((steps >= k) & ~left
                                 & (k * abs_h <= earliest))
            if new.size < run.size:
                z[run] = zr
                keep = np.searchsorted(run, new)
                run, zr, hr, rv = new, zr[keep], hr[keep], rv[keep]
                history = [f if f is None else f[keep] for f in history]
                if not run.size:
                    break
        k1 = _velocity(p, zr, rv)
        history[(k - 1) % _HISTORY] = k1
        if k < _HISTORY:
            k2 = _velocity(p, zr + 0.5 * hr * k1, rv)
            k3 = _velocity(p, zr + 0.5 * hr * k2, rv)
            k4 = _velocity(p, zr + hr * k3, rv)
            zr = zr + (hr / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        else:
            # one add at a time: a sum over the history axis takes numpy's
            # pairwise path on a lone row in C^1, which rounds differently
            step = _AB6[0] * k1
            for j in range(1, _HISTORY):
                step += _AB6[j] * history[(k - 1 - j) % _HISTORY]
            zr = zr + hr * step
        inside = d.contains(zr)
        if not inside.all():
            for i in run[~inside]:
                tk = float(k * h[i])
                exits.append((abs(tk), i, tk))
                earliest = min(earliest, abs(tk))
                left[i] = True
        if k <= last and run[0] == 0 and (k == last or (
                record_every and k % record_every == 0)):
            record.append((k * h[0], zr[0].copy()))
    z[run] = zr
    if exits:
        _, i, tk = min(exits)
        row = f" (row {i})" if m > 1 else ""
        raise FlowExitError(f"trajectory{row} left {d.label} at t={tk:.6f}",
                            tk)
    return z, record


def integrate_flow(p, z0, t, dt: float = 1e-3, generator="re_w") -> np.ndarray:
    """Endpoint of the integrated trajectory of Re W or Re V from z0.

    ``z0`` is a point (n,) or a stack (M, n) of start points, integrated
    in lockstep; ``t`` and ``generator`` are one value for every row or
    one per row.  Leaving the domain raises ``FlowExitError`` with the
    exit time (the earliest one in a stack).  ``dt`` is the step; a
    nonzero ``t`` takes at least one.
    """
    z = as_points(z0)
    ends, _ = _lockstep(p, np.atleast_2d(z), t, dt, generator)
    return ends if z.ndim == 2 else ends[0]


class FlowCheck(NamedTuple):
    """A fixed-time flow check: its start rows, their time and generator
    (one value or one per row) and the map from the rows' endpoints to the
    check's residual."""

    starts: np.ndarray
    t: object
    generator: object
    residual: Callable[[np.ndarray], float]


def run_flows(p, trajectory, checks, dt: float = 1e-3,
              record_every: int = 1):
    """A recorded trajectory and fixed-time checks in one lockstep stack.

    ``trajectory`` is (z0, t, generator) of the recorded row, row 0 of the
    stack; the rows of every ``FlowCheck`` in ``checks`` follow it.
    Returns the trajectory as ``flow_trajectory`` does and the residual of
    each check.  Leaving the domain from any row raises ``FlowExitError``
    with the earliest exit time.
    """
    z0, t, generator = trajectory
    rows = [(as_point(z0)[None], t, generator)] + [c[:3] for c in checks]
    starts = np.concatenate([s for s, _, _ in rows])
    ts = np.concatenate([np.broadcast_to(np.asarray(t, dtype=float), len(s))
                         for s, t, _ in rows])
    generators = np.concatenate([np.broadcast_to(np.asarray(g), len(s))
                                 for s, _, g in rows])
    ends, record = _lockstep(p, starts, ts, dt, generators, record_every)
    bounds = np.cumsum([len(s) for s, _, _ in rows])
    points = [z for _, z in record]
    traj = {"times": np.array([time for time, _ in record]),
            "points": points, "values": np.array([p(z) for z in points])}
    return traj, [check.residual(e) for check, e in
                  zip(checks, np.split(ends, bounds[:-1])[1:])]


def flow_trajectory(p, z0, t: float, dt: float = 1e-3,
                    generator: str = "re_w", record_every: int = 1) -> dict:
    """Integrate one trajectory and optionally record it.

    Returns {"times": array, "points": list of coordinate vectors,
    "values": array of phi along the way}.  ``record_every=0`` records
    only the endpoints.
    """
    return run_flows(p, (z0, t, generator), [], dt, record_every)[0]


def trajectory_to_csv(traj: dict, path) -> None:
    """Write (t, Re z^1, Im z^1, ..., phi) rows."""
    n = len(traj["points"][0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["t"]
        for a in range(n):
            header += [f"re_z{a + 1}", f"im_z{a + 1}"]
        header.append("phi")
        writer.writerow(header)
        for t, z, v in zip(traj["times"], traj["points"], traj["values"]):
            row = [f"{t:.10g}"]
            for a in range(n):
                row += [f"{z[a].real:.17g}", f"{z[a].imag:.17g}"]
            row.append(f"{v:.17g}")
            writer.writerow(row)


def exact_re_v_flow(z0, t) -> np.ndarray:
    """The Re V flow of ``rescaled_ball_potential`` (default q = -e_1) in
    closed form: V = i w (z + e_1), w = 1 + z^1, so w(t) = w0/(1 - i w0 t)
    and z^a(t) = z^a_0 w(t)/w0.  The Re W flow is this map at time
    t e^(-K phi(z0)/(n+1)).  ``t`` is a time ((n,) back) or T times
    ((T, n) back)."""
    z0 = as_point(z0)
    iwt = 1j * (1.0 + z0[0]) * np.asarray(t, dtype=float)
    ratio = 1.0 / (1.0 - iwt)  # w(t)/w0
    z = ratio[..., None] * z0
    z[..., 0] = (z0[0] + iwt) * ratio  # w(t) - 1 without cancellation
    return z


#: the central-difference step of ``pullback_check``'s Jacobian
JAC_STEP = 1e-4


def pullback_check(p, z0, t: float) -> FlowCheck:
    """Isometry at z0: max entrywise |(flow_t)^* g - g| for the Re V flow.

    The flow of a holomorphic field is holomorphic in the initial point,
    so its complex Jacobian J (by central differences) suffices:
    (flow^* g)_{a bbar} = J^T g(flow(z)) conj(J).  Rows 2b and 2b+1 start
    at z0 + and - ``JAC_STEP`` e_b, row 2n at z0.
    """
    z0 = as_point(z0)
    n = len(z0)
    starts = np.repeat(z0[None], 2 * n + 1, axis=0)
    for b in range(n):
        starts[2 * b, b] += JAC_STEP
        starts[2 * b + 1, b] -= JAC_STEP

    def residual(ends):
        J = np.zeros((n, n), dtype=complex)
        for b in range(n):
            J[:, b] = (ends[2 * b] - ends[2 * b + 1]) / (2.0 * JAC_STEP)
        g0 = hermgeo.metric_from_potential(p, z0, order=2).g
        g1 = hermgeo.metric_from_potential(p, ends[2 * n], order=2).g
        pulled = J.T @ g1 @ np.conj(J)
        return float(np.max(np.abs(pulled - g0)))

    return FlowCheck(starts, t, "re_v", residual)


def reparametrization_check(p, z0, t: float) -> FlowCheck:
    """Reparametrization at z0: |flow_V(t, z0) - flow_W(s t, z0)| with
    s = e^(K c/(n+1)), c = phi(z0).

    Both flows stay on the level set {phi = c}, where V = s W, so the
    trajectories coincide up to the constant time rescaling.
    """
    z0 = as_point(z0)
    s = _exp_factor(p, p(z0))
    return FlowCheck(np.stack([z0, z0]), [t, s * t], ["re_v", "re_w"],
                     lambda ends: float(np.max(np.abs(ends[0] - ends[1]))))


def pullback_metric_deviation(p, z0, t: float, dt: float = 1e-3) -> float:
    """The ``pullback_check`` residual, integrated on its own."""
    check = pullback_check(p, z0, t)
    return check.residual(integrate_flow(p, check.starts, t, dt=dt,
                                         generator=check.generator))
