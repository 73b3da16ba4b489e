"""Brute-force oracles versus the closed-form approximations.

Three independent checks anchor the approximations:
  * the four exact quartic wavenumbers versus the perturbative shifts,
  * explicit summation of the multiple-reflection series versus the
    closed-form coefficients,
  * the exact eight-amplitude boundary solve (all interference phases
    kept), thickness-phase-averaged, versus the incoherent bookkeeping.
"""
from pumpslab import (
    channel_report,
    epsilon_roots,
    pdc_resonance,
    quartic_wavenumbers,
    series_sum,
    thickness_averaged_intensities,
)
from pumpslab.presets import reference_scenario

# quartic roots vs perturbative shifts, first order in g
print("exact quartic pair roots vs perturbative shifts (omega = 0.4):")
for g in (1e-3, 1e-4):
    s = reference_scenario(g=g)
    res = pdc_resonance(s, 0.4)
    k = quartic_wavenumbers(s, res)
    eps = epsilon_roots(s, res)
    err = max(
        abs(k[0] - res.Omega1 - eps.eps1) / abs(eps.eps1),
        abs(k[1] - res.Omega1 - eps.eps2) / abs(eps.eps2),
    )
    print(f"  g = {g:g}: worst relative deviation = {err:.3e}")
print("  (a tenfold smaller coupling shrinks the deviation tenfold)")

# series summation vs closed forms
s = reference_scenario(g=1e-5, l=3000.0)
rep = channel_report(s, 0.5, kind="pdc")
summed = series_sum(rep.r10, rep.r20, rep.gamma, 0.5, 1.0)
print()
print("40-term reflection series vs closed forms:")
for name, closed, oracle in zip(("r1", "t1", "r2", "t2"),
                                (rep.r1, rep.t1, rep.r2, rep.t2), summed):
    print(f"  {name}: closed {closed:.12e}  summed {oracle:.12e}  "
          f"diff {abs(closed - oracle):.1e}")

# exact boundary solve, thickness-phase averaged
res = pdc_resonance(s, 0.5)
avg = thickness_averaged_intensities(s, 0.5, res.p, "pdc")
measured = avg["t1"] + avg["r1"] - 1.0
predicted = rep.gamma / (1.0 + rep.r10)
print()
print("exact boundary solve (64-phase thickness average):")
print(f"  measured excess  t1 + r1 - 1 = {measured:.6e}")
print(f"  predicted        gamma/(1+r10) = {predicted:.6e}")
print(f"  relative gap = {abs(measured - predicted) / predicted:.2%}")
print(f"  backward conjugate intensity {avg['r2']:.3e} "
      f"vs closed-form r2 {rep.r2:.3e}")
