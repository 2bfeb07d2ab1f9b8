"""The multidimensional Stein equation, solved numerically and checked.

U0g solves  g(x) - E g(Z) = <x, grad f(x)> - <C, Hess f(x)>_HS  for
Z ~ N(0, C).  The demo evaluates U0g by quadrature, confirms two closed
forms, measures the equation residual on a grid, and checks the Hessian
sup-bound prefactor(C) * Lip(g) for the registered test functions.  The
registered functions carry a joint gradient-Hessian oracle, so the derivatives
of U0g are exact derivatives of the quadrature; a function without one falls
back to finite differences.
"""

import numpy as np

from gaussapprox import QuadratureSpec, TestFunction, u0_apply, stein_residual
from gaussapprox.linalg import CovarianceMatrix
from gaussapprox.stein import grid_points, hessian_bound_check, lipschitz_test_functions

C = CovarianceMatrix.from_matrix([[1.0, 0.5], [0.5, 1.0]])
QUAD = QuadratureSpec()  # the default time rule and Gauss-Hermite order

print("closed forms:")
g_lin = TestFunction("linear", lambda x: 2.0 * x[..., 0] - x[..., 1])
x = np.array([0.7, -1.2])
print(f"  U0(linear g)({x}) = {u0_apply(g_lin, C, x, QUAD):.10f}  vs g(x) = {float(g_lin(x)):.10f}")

g_sq = TestFunction("x1 squared", lambda x: x[..., 0] ** 2)
print(f"  U0(x1^2)({x})     = {u0_apply(g_sq, C, x, QUAD):.10f}"
      f"  vs (x1^2 - c11)/2 = {(x[0]**2 - 1.0) / 2:.10f}")

print("\nequation residual of sin(x1 + x2) on a 3x3 grid in [-2, 2]^2:")
g_sin = [g for g in lipschitz_test_functions(2) if g.name == "sin_of_sum"][0]
g_sin_fd = TestFunction("sin of sum", g_sin.fn, lipschitz=g_sin.lipschitz)
for g, how in ((g_sin, "exact derivatives of the quadrature"),
               (g_sin_fd, "finite differences of the quadrature")):
    worst = max(stein_residual(g, C, p, QUAD) for p in grid_points(-2.0, 2.0, 3))
    print(f"  max residual = {worst:.2e} ({how})")

print("\nHessian sup-bound ||Hess U0g||_HS <= prefactor(C) * Lip(g):")
pts = grid_points(-3.0, 3.0, 11)
for g in lipschitz_test_functions(2):
    chk = hessian_bound_check(g, C, pts, QUAD)
    print(f"  {g.name:24s} max {chk.max_hs_norm:.4f} <= {chk.rhs:.4f}  pass={chk.passed}")
