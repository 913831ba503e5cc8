"""Hermitian geometry of a potential at a point or a stack of points.

Conventions, with G the matrix G[a, b] = g_{a bbar} = d^2 phi / dz^a dzbar^b:

* ``g_inv`` is the plain matrix inverse, so g_inv[b, c] = g^{bbar c} and
  raising an index reads  phi^a = conj(g_inv @ phi_z)[a].
* gradient length   |dphi|_half^2 := phi_a g^{a bbar} phi_bbar
                                   = phi_z^H g_inv phi_z   (real, >= 0);
  the full 1-form length is twice that.
* Christoffels      Gamma^l_{ab} = g^{l mbar} d_a g_{b mbar}, from the
  potential's third derivatives, hence exactly symmetric in (a, b); only
  ``covariant_hessian`` reads them, and builds them itself.
* covariant Hessian phi_{a;b} = d_b d_a phi - Gamma^l_{ab} phi_l.
* Laplacian on scalars  Delta f = g^{a bbar} d_a dbar_b f = tr(F g_inv).
* Ricci tensor      Ric = -d dbar log det G.

Curvature comes from one order-4 frame of a whole stack, whatever the
potential: Ric = -g^{i jbar} phi_{i jbar a bbar} + g^{i lbar} g^{k jbar}
phi_{i jbar a} phi_{k lbar bbar} (``ricci_from_frame``) and
Delta |dphi|_half^2 by the product rule (``length_laplacian_from_frame``).
The frame's jet is closed form or FD as ``PotentialField.jet`` picks.
``ricci`` (an outer central difference of log det g over order-2 frames)
and ``laplacian`` (FD of a scalar field such as ``gradient_length_field``)
read only values; they are the oracle the contractions are tested against.

The identity residuals take a point (a float back) or an (N, n) stack (an
array of N back).

Two identities tie these together on a Kaehler-Einstein metric with
Ric = -K g and any local potential phi of it:

    Delta |dphi|_half^2 = |Hess phi|^2 + n - K |dphi|_half^2

and, when |dphi|_half^2 is constant,

    phi_{a;b} phi^a = -phi_b        (gradient is a unit eigenvector),

which forces |dphi|_half^2 >= (n+1)/K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError
from .jets import MAX_ORDER, Jet, as_integer, fd_jet

_PD_TOL = 1e-12
_HERMITIAN_TOL = 1e-8


@dataclass(frozen=True)
class MetricFrame:
    """Metric data derived from a potential at one point or a stack: the
    metric, its inverse and log-det, and the jet they came from.

    Metric-only consumers (lengths, Laplacians, Ricci stencils) request
    order 2; the covariant Hessian needs order 3 and curvature order 4.
    A frame of a stack of N points carries a leading axis of N on every
    field (``log_det_g`` is then an array).
    """

    point: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    log_det_g: float
    jet: Jet

    @property
    def dim(self) -> int:
        return self.point.shape[-1]

    def raise_index(self, covector: np.ndarray) -> np.ndarray:
        """phi^a from phi_a (holomorphic components of a real 1-form)."""
        return np.conj((self.g_inv @ covector[..., None])[..., 0])


def _reject(bad, z, message):
    """Raise DegenerateMetricError for the first point where ``bad`` holds;
    ``message(i, point)`` describes row i of the stack."""
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise DegenerateMetricError(message(i, z[i] if z.ndim == 2 else z))


def metric_from_potential(p, z, order: int = 3) -> MetricFrame:
    """Build the metric, inverse and log-det at ``z``.

    ``z`` is a point (n,) or a stack of points (N, n); every check applies
    to each point.  Raises ``DegenerateMetricError`` naming the point where
    the complex Hessian of the potential fails to be Hermitian or positive
    definite.  ``order`` is that of the jet taken, 2..``MAX_ORDER``; the
    covariant Hessian needs 3, for the third derivatives and the unbarred
    Hessian (2, 0).

    ``p.jet`` checks the points, and each point is checked once.  A
    closed-form (1, 1) tensor is exactly Hermitian (``field._emit_jet``
    averages it with its mirror), so the tolerance test and the average
    0.5 (g + g^H) run only where g differs from g^H: the average of an
    exactly Hermitian g is g bit for bit.  FD jets and NaN take them.
    """
    order = as_integer(order, "order")
    if not 2 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 2..{MAX_ORDER}, got {order}")
    jet = p.jet(z, order)
    z = jet.point
    g = jet.mixed_hessian()
    if z.ndim == 1:
        g = g[None]
    gh = np.conj(g.transpose(0, 2, 1))
    defect = g - gh
    if defect.any():
        herm_defect = np.abs(defect).max(axis=(1, 2))
        _reject(~(herm_defect <= _HERMITIAN_TOL), z, lambda i, point: (
            f"complex Hessian not Hermitian at {point!r} "
            f"(defect {herm_defect[i]:.2e})"))
        g = 0.5 * (g + gh)
    eigs, vecs = np.linalg.eigh(g)
    definite = eigs[:, 0] > _PD_TOL
    if not definite.all():
        _reject(~definite, z, lambda i, point: (
            f"metric not positive definite at {point!r}: "
            f"min eigenvalue {eigs[i, 0]:.3e}"))
    g_inv = (vecs / eigs[:, None, :]) @ np.conj(vecs.transpose(0, 2, 1))
    log_det = np.log(eigs).sum(axis=1)
    if z.ndim == 1:
        return MetricFrame(point=z, g=g[0], g_inv=g_inv[0],
                           log_det_g=float(log_det[0]), jet=jet)
    return MetricFrame(point=z, g=g, g_inv=g_inv, log_det_g=log_det, jet=jet)


def _per_point(val):
    """A float for a one-point result, the array of N for a stacked one."""
    return float(val) if np.ndim(val) == 0 else val


def gradient_length_sq(frame: MetricFrame):
    """phi_a g^{a bbar} phi_bbar at the frame's point (half the 1-form norm).

    A float for a one-point frame, an array of N for a stacked one.
    """
    phi_z = frame.jet.holo_gradient()
    raised = (frame.g_inv @ phi_z[..., None])[..., 0]
    return _per_point(np.real(np.sum(np.conj(phi_z) * raised, axis=-1)))


def covariant_hessian(frame: MetricFrame) -> np.ndarray:
    """phi_{a;b} = d_b d_a phi - Gamma^l_{ab} phi_l (symmetric), with the
    Christoffels Gamma^l_{ab} = g^{l mbar} phi_{a b mbar} built here from
    the frame's third derivatives."""
    jet = frame.jet
    if jet.order < 3:
        raise ValueError("covariant Hessian needs a frame built to order >= 3")
    # third_tensor()[a, b, m] = phi_{a b mbar} and g^{l mbar} = g_inv[m, l]
    gamma = np.einsum("...ml,...abm->...lab", frame.g_inv, jet.third_tensor())
    return jet.pure_hessian() - np.einsum("...lab,...l->...ab", gamma,
                                          jet.holo_gradient())


def hessian_norm_sq(frame: MetricFrame):
    """|Hess phi|^2 = phi_{a;b} conj(phi_{l;m}) g^{a lbar} g^{b mbar} >= 0."""
    H = covariant_hessian(frame)
    gi = frame.g_inv
    val = np.sum(H * (_transpose(gi) @ np.conj(H) @ gi), axis=(-2, -1))
    return _per_point(np.real(val))


def _transpose(m):
    return np.swapaxes(m, -1, -2)


def laplacian(f, frame: MetricFrame):
    """Laplace-Beltrami of a scalar field at the frame's points, by FD.

    ``f`` maps an (M, n) stack of points to M values; its mixed Hessian is
    one ``fd_jet`` over the frame's points, so this oracle reads only
    values of ``f``.  On scalars the covariant mixed second derivative
    equals the partial one.
    """
    F = fd_jet(f, frame.point, 2).mixed_hessian()
    return _per_point(np.real(np.trace(F @ frame.g_inv, axis1=-2, axis2=-1)))


def gradient_length_field(p):
    """The scalar field z -> |dphi|_half^2(z), for use under ``laplacian``.

    It takes a point or a stack of points, and builds order-2 frames.
    """

    def field(z):
        return gradient_length_sq(metric_from_potential(p, z, order=2))

    return field


def ricci(p, z) -> np.ndarray:
    """Ricci tensor -d dbar log det g via an outer central difference.

    The oracle of ``ricci_from_frame``: one ``fd_jet`` of z -> log det g
    of order-2 frames over a point or a stack.  With closed-form inner
    jets the log-det carries ~1e-14 noise; the step 2e-3 keeps both
    noise/h^2 and the h^4 truncation small.
    """
    def log_det(w):
        return metric_from_potential(p, w, order=2).log_det_g

    return -fd_jet(log_det, z, 2, step=2e-3).mixed_hessian()


# ---------------------------------------------------------------------------
# curvature from an order-4 frame

def _order_four(frame: MetricFrame):
    if frame.jet.order < 4:
        raise ValueError("curvature needs an order-4 frame")
    t = frame.jet.tensors
    return t[(2, 0)], t[(2, 1)], t[(2, 2)]


def ricci_from_frame(frame: MetricFrame) -> np.ndarray:
    """Ric_{a bbar} = -g^{i jbar} phi_{i jbar a bbar}
                      + g^{i lbar} g^{k jbar} phi_{i jbar a} phi_{k lbar bbar}.

    From the frame's fourth derivatives, exact for a closed-form jet;
    g_inv[j, i] = g^{jbar i} is contracted with the third-derivative
    tensor first.
    """
    _, T21, T22 = _order_four(frame)
    gi = frame.g_inv
    first = np.einsum("...ji,...iajb->...ab", gi, T22)
    left = np.einsum("...li,...iaj->...laj", gi, T21)
    left = np.einsum("...laj,...jk->...lak", left, gi)
    second = np.einsum("...lak,...lbk->...ab", left, np.conj(T21))
    return second - first


def length_laplacian_from_frame(frame: MetricFrame):
    """Delta |dphi|_half^2 = tr(F g^-1) from an order-4 frame, where
    F_cd = d_c dbar_d (phi_z^H g^-1 phi_z).

    The product rule with d g^-1 = -g^-1 (d g) g^-1 gives, with
    w = g^-1 phi_z, u = phi_z^H g^-1, X_cj = u_i phi_{c i jbar},
    C_ci = phi_{c i jbar} w_j - phi_{ci} (= -phi_{c;i}) and
    S_cd = u_i phi_{c i jbar dbar} w_j,

        F = g + X g^-1 X^H + C (g^-1)^T C^H - S

    (the terms with a third derivative of phi against w or u cancel in
    pairs).  Against g^-1, g traces to n and the C term to |Hess phi|^2.
    Every contraction is pairwise, vectors first.
    """
    T20, T21, T22 = _order_four(frame)
    M = frame.g_inv
    phi_z = frame.jet.holo_gradient()
    w = (M @ phi_z[..., None])[..., 0]
    u = (np.conj(phi_z)[..., None, :] @ M)[..., 0, :]
    X = np.einsum("...i,...cij->...cj", u, T21)
    C = np.einsum("...cij,...j->...ci", T21, w) - T20
    S = np.einsum("...i,...cijd->...cjd", u, T22)
    S = np.einsum("...cjd,...j->...cd", S, w)
    F = (frame.g + X @ M @ np.conj(_transpose(X))
         + C @ _transpose(M) @ np.conj(_transpose(C)) - S)
    return _per_point(np.real(np.einsum("...cd,...dc->...", F, M)))


# ---------------------------------------------------------------------------
# identity residuals (shared by tests and the verification suites); each
# takes a point (a float back) or an (N, n) stack (an array of N back)

def einstein_residual(p, z):
    """max entrywise |Ric + K g| at z, K the potential's Ricci constant."""
    frame = metric_from_potential(p, z, order=4)
    ric = ricci_from_frame(frame)
    return _per_point(np.max(np.abs(ric + p.ricci_constant * frame.g),
                             axis=(-2, -1)))


def key_equation_residual(p, z):
    """max_b |phi_{a;b} phi^a + phi_b| (zero for constant gradient length)."""
    frame = metric_from_potential(p, z)
    phi_z = frame.jet.holo_gradient()
    phi_up = frame.raise_index(phi_z)
    H = covariant_hessian(frame)
    contraction = np.einsum("...ab,...a->...b", H, phi_up)
    return _per_point(np.max(np.abs(contraction + phi_z), axis=-1))


def delta_identity_residual(p, z):
    """|Delta |dphi|^2_half - |Hess phi|^2 - n + K |dphi|^2_half| at z."""
    frame = metric_from_potential(p, z, order=4)
    lap = length_laplacian_from_frame(frame)
    K = p.ricci_constant
    L = gradient_length_sq(frame)
    H2 = hessian_norm_sq(frame)
    return _per_point(np.abs(lap - H2 - frame.dim + K * L))
