"""
Bracketing the spectral gap of the quartic diffusion
====================================================

Walks every bound method over dU = x^3 dx (the measure exp(-x^4/4)) and
checks the assembled bracket against the finite-difference eigensolver.
"""

import math

import diffgap.bounds as bd
import diffgap.expr as ex
import diffgap.gallery as gal
import diffgap.model as md
import diffgap.oracle as orc

m = gal.gallery_model("quartic")
print(f"model: {m.name}, drift b = {ex.to_string(m.drift)}")

# Lower bound from the slope family Z = eps*x: the killing rate is
# V = eps + x^6/4 + (3/2 - eps^2) x^2, and the best slope solves
# 16 eps^4 - 24 eps^2 - 3 = 0, a bit beyond sqrt(3/2).
cw = bd.chen_wang_lower(m, md.WeightSpec.z_form(ex.parse("eps*x")),
                        bd.OptConfig(box={"eps": (0.1, 3.0)}))
print(f"slope family:   lambda1 >= {cw.value:.6f} at eps = {cw.params['eps']:.6f}")
print(f"  (the convenient slope sqrt(3/2) = {math.sqrt(1.5):.6f} is not the optimum)")

# Upper bound from the odd power family f = sign(x) |x|^eps.
ray = bd.rayleigh_upper(m, ex.parse("x*(x^2)^((eps-1)/2)"),
                        bd.OptConfig(box={"eps": (0.55, 2.0)}))
print(f"trial family:   lambda1 <= {ray.value:.6f} at eps = {ray.params['eps']:.6f}")

# Two-sided bracket from tail/core integrals around the median.
mk_lo, mk_hi = bd.muckenhoupt(m)
print(f"tail-core:      {mk_lo.value:.6f} <= lambda1 <= {mk_hi.value:.6f}"
      f"  (B = {mk_lo.params['B']:.6f} at x = {mk_lo.params['x_plus']:.4f})")

# Independent reference value.
g = orc.spectral_gap_fd(m, n=4096)
print(f"eigensolver:    lambda1 = {g.value:.8f} +/- {g.err_est:.1e}")

doc = bd.assemble_report(m, [cw, ray, mk_lo, mk_hi], g)
lo, hi = doc["targets"]["lambda1"]["bracket"]
print(f"assembled:      [{lo:.6f}, {hi:.6f}], violations: {doc['violations'] or 'none'}")
