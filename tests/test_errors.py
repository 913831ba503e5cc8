"""Raise sites no other test reaches: each raises its typed error with a
message that says what is wrong."""

import numpy as np
import pytest

from kelab.chengyau import RadialPotential, boundary_limit_estimate, shoot
from kelab.domains import (
    DomainModel,
    ball,
    bergman_potential,
    cayley,
    gauge,
    polydisc,
    product,
    siegel_log_kernel_on_polydisc_slice,
    type_iii,
    type_iv,
)
from kelab.errors import (
    BracketingError,
    ResolutionError,
    SingularTransformError,
    UnsupportedDomainError,
    UnsupportedPointError,
)
from kelab.field import PotentialField
from kelab.potentials import product_potential, rescaled_ball_potential
from kelab.sampling import sample_interior

#: a kind no constructor makes
BOGUS = DomainModel("bogus", (2,), rank=1, a=0, b=1)

#: a potential with finite differences only
FD_ONLY = PotentialField(domain=ball(2), ricci_constant=1.0, parts=None,
                         label="fd-only", fn=lambda Z: np.zeros(len(Z)))

#: the grid ends past 1 - 1e-3 but holds one point in its last decade
SPARSE = RadialPotential(n=2, K=3.0, grid=np.array([0.0, 0.5, 0.9995]),
                         phi=np.zeros(3), dphi=np.ones(3))

NEAR_MINUS_ONE = -(1 - 1e-15)


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: shoot(2, 3.0, phi0_bracket=(3.0, -1.0)),
                 BracketingError, "empty bracket", id="shoot-empty-bracket"),
    pytest.param(lambda: ball(0), ValueError, "ball dimension", id="ball(0)"),
    pytest.param(lambda: polydisc(0), ValueError, "polydisc rank",
                 id="polydisc(0)"),
    pytest.param(lambda: type_iii(0), ValueError, "type III",
                 id="type_iii(0)"),
    pytest.param(lambda: product(), ValueError, "at least one factor",
                 id="product()"),
    pytest.param(lambda: cayley(ball(2), [NEAR_MINUS_ONE, 0]),
                 SingularTransformError, "z1 = -1", id="cayley-ball"),
    pytest.param(lambda: cayley(polydisc(1), [NEAR_MINUS_ONE]),
                 SingularTransformError, "z = -1", id="cayley-polydisc"),
    pytest.param(lambda: siegel_log_kernel_on_polydisc_slice(
                     type_iv(3), [-1, 0, 0]),
                 UnsupportedDomainError, "type4(3)", id="slice-type4"),
    pytest.param(lambda: siegel_log_kernel_on_polydisc_slice(
                     ball(2), [-1, 0, 0]),
                 UnsupportedPointError, "expected 2 coordinates",
                 id="slice-coordinates"),
    pytest.param(lambda: ball(2).contains([0, 0, 0]), ValueError,
                 "expects 2 coordinates", id="contains-coordinates"),
    pytest.param(lambda: rescaled_ball_potential(0, 3.0), ValueError,
                 "dimension must be >= 1", id="rescaled-dimension"),
    pytest.param(lambda: rescaled_ball_potential(
                     2, 3.0, boundary_point=[0.5, 0]),
                 ValueError, "unit vector", id="rescaled-boundary-point"),
    pytest.param(lambda: product_potential(FD_ONLY, bergman_potential(ball(1))),
                 UnsupportedDomainError, "analytic summands",
                 id="product-potential-fd-only"),
    pytest.param(lambda: sample_interior(ball(2), np.random.default_rng(0),
                                         1, shrink=0),
                 ValueError, "shrink must be in (0, 1]", id="shrink-0"),
    pytest.param(lambda: sample_interior(ball(2), np.random.default_rng(0),
                                         1, shrink=1.5),
                 ValueError, "shrink must be in (0, 1]", id="shrink-1.5"),
    pytest.param(lambda: gauge(BOGUS, [0, 0]), UnsupportedDomainError,
                 "no Minkowski gauge", id="gauge-unknown-kind"),
    pytest.param(lambda: bergman_potential(BOGUS), UnsupportedDomainError,
                 "no kernel potential for 'bogus'",
                 id="bergman-unknown-kind"),
    pytest.param(lambda: boundary_limit_estimate(SPARSE), ResolutionError,
                 "too few grid points", id="boundary-limit-sparse"),
    pytest.param(lambda: FD_ONLY.scaled(2.0), ValueError,
                 "fd-only: only a potential with parts", id="scaled-fd-only"),
    pytest.param(lambda: FD_ONLY.jet([0, 0], 0), ValueError,
                 "order must be in 1..4", id="jet-fd-only-order-0"),
])
def test_raise_site_gives_its_typed_error(call, error, fragment):
    with pytest.raises(error) as err:
        call()
    assert fragment in str(err.value)
