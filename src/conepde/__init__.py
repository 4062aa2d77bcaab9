"""Numerical laboratory for a cone-degenerate p-Laplace equation.

The domain is the stretched cone (0, 1) x X with X an axis-aligned box.
All discrete calculus happens in the flattened coordinates (a, x) with
a = ln t, where the cone gradient and Hessian become the plain gradient
and Hessian and the singular measure dt/t dx becomes Lebesgue measure.
"""
