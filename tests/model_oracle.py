"""Reference oracles for the model's closed forms, independent of them.

jet_reduced_record reduces the model to the canonical slow-fast template
by generic jet operations: translate the fold to the origin, rescale
X = (x - x_M)/s_x, Y = (y - y_M)/s_y, tau = Q*t with
Q = sqrt(alpha*x_M*y_M), s_x = Q/(sqrt(m)-1), s_y = alpha*y_M/(sqrt(m)-1),
and read the record off the transformed jets.  sweep_row_reference
evaluates one sweep row from that record with the scalar functions.
hand_jacobian is the model's Jacobian as it was written by hand before
allee compiled it from JACOBIAN_SOURCE, frozen as the compiled one's bit
oracle.
"""

import math

from canard.allee import AlleeParams, fold_point, psi_case_analysis
from canard.errors import NumericsError
from canard.jet import Jet, jet_mul
from canard.normalform import (
    NormalFormCoefficients,
    compute_A,
    omega2_term_groups,
    omega_coefficients,
)


def hand_jacobian(x, y, p: AlleeParams):
    """(fx, fy, gx, gy) of the model, elementwise over arrays x, y too."""
    fx = (2.0 * x * p.m + x * x) / (p.m + x) ** 2 - p.n - 2.0 * x - y
    fy = -x
    gx = p.eps * p.alpha * y
    gy = p.eps * (p.alpha * x - p.beta - 2.0 * p.gamma * y)
    return fx, fy, gx, gy


def F_derivative(x: float, m: float, k: int) -> float:
    """k-th derivative of the critical branch F(x) = x/(m+x) - n - x for
    k >= 2: (-1)^(k+1) k! m / (m+x)^(k+1)."""
    return (-1.0) ** (k + 1) * math.factorial(k) * m / (m + x) ** (k + 1)


def jet_reduced_record(p: AlleeParams) -> NormalFormCoefficients:
    xM, yM = fold_point(p.m, p.n)
    Q = math.sqrt(p.alpha * xM * yM)
    sx = Q / (math.sqrt(p.m) - 1.0)
    sy = p.alpha * yM / (math.sqrt(p.m) - 1.0)
    deg = 4

    # fast part: f(x_M+u, y_M+v) = (x_M+u) * (sum_{k>=2} F^(k)/k! u^k - v),
    # then u = s_x X, v = s_y Y and division by s_x*Q
    fseries = {(k, 0): F_derivative(xM, p.m, k) / math.factorial(k) * sx ** k
               for k in range(2, deg + 1)}
    fseries[(0, 1)] = -sy
    shell = Jet(2, deg, {(0, 0): xM, (1, 0): sx})
    fast = jet_mul(shell, Jet(2, deg, fseries))
    fast = Jet(2, deg, {k: v / (sx * Q) for k, v in fast.coeffs.items()})

    # slow part over (X, Y, L) where L is the template unfolding
    # parameter: beta - beta* = L * alpha * Q / (sqrt(m) - 1)
    lam_scale = p.alpha * Q / (math.sqrt(p.m) - 1.0)
    pred_shell = Jet(3, deg, {(0, 0, 0): yM, (0, 1, 0): sy})
    pred_lin = Jet(3, deg, {
        (1, 0, 0): p.alpha * sx, (0, 1, 0): -p.gamma * sy, (0, 0, 1): -lam_scale})
    slow = jet_mul(pred_shell, pred_lin)
    slow = Jet(3, deg, {k: v / (sy * Q) for k, v in slow.coeffs.items()})

    for got, want, what in ((fast.coeff((0, 1)), -1.0, "fast Y"),
                            (fast.coeff((2, 0)), 1.0, "fast X^2"),
                            (slow.coeff((1, 0, 0)), 1.0, "slow X"),
                            (slow.coeff((0, 0, 1)), -1.0, "slow L"),
                            (slow.coeff((0, 0, 2)), 0.0, "slow L^2")):
        if abs(got - want) > 1e-10:
            raise NumericsError(f"template normalization failed: {what} = {got}, want {want}")

    # the fast field has no eps-dependent block: every c entry is 0, and
    # the degree-4 guard entries are beyond the template order
    return NormalFormCoefficients.from_dict({
        "a10": -fast.coeff((1, 1)),
        "a01": -fast.coeff((0, 2)),
        "a20": -fast.coeff((2, 1)),
        "a11": -fast.coeff((1, 2)),
        "a02": -fast.coeff((0, 3)),
        "b10": fast.coeff((3, 0)),
        "d10": slow.coeff((2, 0, 0)),
        "d20": slow.coeff((3, 0, 0)),
        "e10": -slow.coeff((1, 0, 1)),
        "e01": -slow.coeff((0, 1, 1)),
        "e20": -slow.coeff((2, 0, 1)),
        "e11": -slow.coeff((1, 1, 1)),
        "e02": -slow.coeff((0, 2, 1)),
        "e30": -slow.coeff((3, 0, 1)),
        "f00": slow.coeff((0, 1, 0)),
        "f10": slow.coeff((1, 1, 0)),
        "f01": slow.coeff((0, 2, 0)),
        "f20": slow.coeff((2, 1, 0)),
        "f11": slow.coeff((1, 2, 0)),
        "f02": slow.coeff((0, 3, 0)),
    })


def sweep_row_reference(p: AlleeParams) -> dict:
    """One sweep row from the jet-reduced record, with the scale of the
    terms each value sums (for a tolerance relative to them)."""
    nf = jet_reduced_record(p)
    om = omega_coefficients(nf)
    # the slow damping from the model Jacobian at the fold: g_y / (eps Q)
    xM, yM = fold_point(p.m, p.n)
    a5 = hand_jacobian(xM, yM, p)[3] / (p.eps * math.sqrt(p.alpha * xM * yM))
    A = compute_A(nf)
    scale_A = abs(nf.a10) + 3.0 * abs(nf.b10) + 2.0 * abs(nf.d10) + 2.0 * abs(nf.f00)
    half = abs(a5 / 2.0) + scale_A / 8.0
    return {
        "values": {"A": A, "omega1": om.omega1, "omega2": om.omega2,
                   "lambda_h": -(a5 / 2.0) * p.eps,
                   "lambda_c": -(a5 / 2.0 + A / 8.0) * p.eps},
        "scales": {"A": scale_A, "omega1": scale_A,
                   "omega2": sum(abs(g) for g in omega2_term_groups(nf)),
                   "lambda_h": abs(a5 / 2.0) * p.eps, "lambda_c": half * p.eps},
        "case": psi_case_analysis(p.m, p.n, p.alpha, p.gamma).tag,
    }
