"""Hermitian geometry of a potential at a point.

Conventions, with G the matrix G[a, b] = g_{a bbar} = d^2 phi / dz^a dzbar^b:

* ``g_inv`` is the plain matrix inverse, so g_inv[b, c] = g^{bbar c} and
  raising an index reads  phi^a = conj(g_inv @ phi_z)[a].
* gradient length   |dphi|_half^2 := phi_a g^{a bbar} phi_bbar
                                   = phi_z^H g_inv phi_z   (real, >= 0);
  the full 1-form length is twice that.
* Christoffels      Gamma^l_{ab} = g^{l mbar} d_a g_{b mbar}, built from the
  potential's third derivatives, hence exactly symmetric in (a, b).
* covariant Hessian phi_{a;b} = d_b d_a phi - Gamma^l_{ab} phi_l.
* Laplacian on scalars  Delta f = g^{a bbar} d_a dbar_b f = tr(F g_inv).
* Ricci tensor      Ric = -d dbar log det G, evaluated by an outer central
  difference over the (analytic where available) inner metric.  The inner
  evaluation is stacked: the whole stencil's log det g comes from one
  ``metric_from_potential`` call on an (N, n) stack of points.

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
from .jets import Jet, as_point, as_points, fd_jet, stack_capable

_PD_TOL = 1e-12
_HERMITIAN_TOL = 1e-8


@dataclass(frozen=True)
class MetricFrame:
    """Metric data derived from a potential at one point or a stack.

    ``christoffel`` is present only when the frame was built to order >= 3;
    metric-only consumers (lengths, Laplacians, Ricci stencils) request
    order 2 and skip it.  A frame of a stack of N points carries a leading
    axis of N on every field (``log_det_g`` is then an array).
    """

    point: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    christoffel: np.ndarray | None  # [l, a, b] = Gamma^l_{ab}, sym in (a, b)
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
    """Build the metric, inverse, Christoffels and log-det at ``z``.

    ``z`` is a point (n,) or a stack of points (N, n); every check applies
    to each point.  Raises ``DegenerateMetricError`` naming the point where
    the complex Hessian of the potential fails to be Hermitian or positive
    definite.
    """
    z = as_points(z)
    Z = z.reshape(-1, z.shape[-1])
    jet = p.jet(Z, order)
    g = jet.mixed_hessian()
    gh = np.conj(g.transpose(0, 2, 1))
    herm_defect = np.abs(g - gh).max(axis=(1, 2))
    _reject(~(herm_defect <= _HERMITIAN_TOL), z, lambda i, point: (
        f"complex Hessian not Hermitian at {point!r} "
        f"(defect {herm_defect[i]:.2e})"))
    g = 0.5 * (g + gh)
    eigs, vecs = np.linalg.eigh(g)
    _reject(~(eigs[:, 0] > _PD_TOL), z, lambda i, point: (
        f"metric not positive definite at {point!r}: "
        f"min eigenvalue {eigs[i, 0]:.3e}"))
    g_inv = (vecs / eigs[:, None, :]) @ np.conj(vecs.transpose(0, 2, 1))
    christoffel = None
    if order >= 3:
        third = jet.third_tensor()  # [a, b, m] = phi_{a b mbar}
        # Gamma^l_{ab} = g^{l mbar} phi_{a b mbar};  g^{l mbar} = g_inv[m, l]
        christoffel = np.einsum("Nml,Nabm->Nlab", g_inv, third)
    log_det = np.log(eigs).sum(axis=1)
    if z.ndim == 1:
        return MetricFrame(
            point=z, g=g[0], g_inv=g_inv[0],
            christoffel=None if christoffel is None else christoffel[0],
            log_det_g=float(log_det[0]), jet=jet.at(0),
        )
    return MetricFrame(
        point=z, g=g, g_inv=g_inv, christoffel=christoffel,
        log_det_g=log_det, jet=jet,
    )


def gradient_length_sq(frame: MetricFrame):
    """phi_a g^{a bbar} phi_bbar at the frame's point (half the 1-form norm).

    A float for a one-point frame, an array of N for a stacked one.
    """
    phi_z = frame.jet.holo_gradient()
    raised = (frame.g_inv @ phi_z[..., None])[..., 0]
    val = np.real(np.sum(np.conj(phi_z) * raised, axis=-1))
    return float(val) if val.ndim == 0 else val


def d_length_sq(frame: MetricFrame) -> float:
    """Full squared length of the 1-form d(phi): twice the half norm."""
    return 2.0 * gradient_length_sq(frame)


def covariant_hessian(frame: MetricFrame) -> np.ndarray:
    """phi_{a;b} = d_b d_a phi - Gamma^l_{ab} phi_l (symmetric)."""
    if frame.christoffel is None:
        raise ValueError("covariant Hessian needs a frame built to order >= 3")
    phi_z = frame.jet.holo_gradient()
    pure = frame.jet.pure_hessian()
    return pure - np.einsum("lab,l->ab", frame.christoffel, phi_z)


def hessian_norm_sq(frame: MetricFrame) -> float:
    """|Hess phi|^2 = phi_{a;b} conj(phi_{l;m}) g^{a lbar} g^{b mbar} >= 0."""
    H = covariant_hessian(frame)
    gi = frame.g_inv
    val = np.sum(H * (gi.T @ np.conj(H) @ gi))
    return float(np.real(val))


def laplacian(f, frame: MetricFrame, step: float | None = None) -> float:
    """Laplace-Beltrami of a scalar field at the frame's point.

    ``f`` may be a plain callable (finite differences) or anything exposing
    ``jet`` (closed form when available).  On scalars the covariant mixed
    second derivative equals the partial one.
    """
    if hasattr(f, "jet"):
        jf = f.jet(frame.point, 2, step=step)
    else:
        jf = fd_jet(f, frame.point, 2, step=step)
    F = jf.mixed_hessian()
    return float(np.real(np.trace(F @ frame.g_inv)))


def gradient_length_field(p, order: int = 2):
    """The scalar field z -> |dphi|_half^2(z), for use under ``laplacian``.

    It takes a point or a stack of points.
    """

    @stack_capable
    def field(z):
        frame = metric_from_potential(p, z, order=order)
        return gradient_length_sq(frame)

    return field


def ricci(p, z, step: float | None = None) -> np.ndarray:
    """Ricci tensor -d dbar log det g via an outer central difference.

    The inner evaluation z -> log det g uses the potential's analytic
    second derivatives when declared, which keeps the outer stencil noise
    near machine level; FD-only potentials fall back to nested differences
    with a larger outer step.
    """
    z = as_point(z)
    if step is None:
        # the inner log-det carries ~1e-14 noise on the analytic path and
        # ~1e-10 on the nested-FD path; these steps keep noise/h^2 small
        # while h^4 truncation stays below the respective targets
        step = 2e-3 if p.analytic_order >= 2 else 4e-3

    @stack_capable
    def log_det(w):
        return metric_from_potential(p, w, order=2).log_det_g

    jet = fd_jet(log_det, z, 2, step=step)
    return -jet.mixed_hessian()


# ---------------------------------------------------------------------------
# identity residuals (shared by tests and the verification suites)

def einstein_residual(p, z, K: float | None = None,
                      step: float | None = None) -> float:
    """max entrywise |Ric + K g| at z."""
    K = p.ricci_constant if K is None else K
    frame = metric_from_potential(p, z, order=2)
    ric = ricci(p, z, step=step)
    return float(np.max(np.abs(ric + K * frame.g)))


def key_equation_residual(p, z) -> float:
    """max_b |phi_{a;b} phi^a + phi_b| (zero for constant gradient length)."""
    frame = metric_from_potential(p, z)
    phi_z = frame.jet.holo_gradient()
    phi_up = frame.raise_index(phi_z)
    H = covariant_hessian(frame)
    contraction = np.einsum("ab,a->b", H, phi_up)
    return float(np.max(np.abs(contraction + phi_z)))


def delta_identity_residual(p, z, step: float | None = None) -> float:
    """|Delta |dphi|^2_half - |Hess phi|^2 - n + K |dphi|^2_half| at z."""
    frame = metric_from_potential(p, z)
    n = frame.dim
    K = p.ricci_constant
    L = gradient_length_sq(frame)
    H2 = hessian_norm_sq(frame)
    lap = laplacian(gradient_length_field(p), frame, step=step)
    return float(abs(lap - H2 - n + K * L))
