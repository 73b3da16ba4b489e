"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all)
and then asserts, so the suite doubles as a human-readable checklist.
"""
import math
import time

import numpy as np

from pumpslab import (
    CrystalScenario,
    calibrate_degenerate_angle,
    channel_report,
    degenerate_closed_forms,
    epsilon_roots,
    fresnel_step,
    longitudinal,
    pdc_resonance,
    puc_resonance,
    quartic_wavenumbers,
    rainbow_split,
    slab_coefficients,
    thickness_averaged_intensities,
)
from pumpslab.presets import blue_red_scenario, reference_scenario


def _report(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {num}: {status} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def scenario_for(theta_d_deg, mu2, g=1e-4, l=100.0):
    model = calibrate_degenerate_angle(math.radians(theta_d_deg), mu2)
    return CrystalScenario(omega0=1.0, g=g, l=l, dispersion=model)


def test_criterion_1_linear_slab_unitarity_and_series():
    start = time.perf_counter()
    worst_unitarity = 0.0
    worst_series = 0.0
    for r0 in np.arange(0.0, 0.5 + 1e-12, 1e-3):
        ratio = (1.0 + math.sqrt(r0)) / (1.0 - math.sqrt(r0))
        step = fresnel_step(1.0, ratio)
        r, t = slab_coefficients(step)
        worst_unitarity = max(worst_unitarity, abs(r + t - 1.0))
        t0 = 1.0 - step.r0
        series_r = step.r0 + sum(
            step.r0 ** (2 * n - 1) * t0 * t0 for n in range(1, 41)
        )
        series_t = sum(t0 * t0 * step.r0 ** (2 * n) for n in range(41))
        worst_series = max(worst_series, abs(r - series_r), abs(t - series_t))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "linear slab: r + t = 1 to 1e-14 and closed forms match the "
        "40-term series to 1e-12 in under a second",
        worst_unitarity < 1e-14 and worst_series < 1e-12 and elapsed < 1.0,
        f"unitarity {worst_unitarity:.2e}, series {worst_series:.2e}, "
        f"{elapsed:.2f}s",
    )


def _identity_sweep(kind, seed):
    # keep g*l large enough that the pump-induced excess stays well above
    # double-precision cancellation noise in t1 + r1 - 1
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        scenario = scenario_for(
            theta_d_deg=rng.uniform(2.0, 14.0),
            mu2=rng.uniform(1.3, 1.7),
            g=10 ** rng.uniform(-3.0, -2.05),
            l=rng.uniform(20.0, 300.0),
        )
        omega = rng.uniform(0.3, 0.7)
        report = channel_report(scenario, omega, kind=kind)
        worst = max(worst, report.identity_residual())
    return worst


def test_criterion_2_pdc_flux_identity():
    worst = _identity_sweep("pdc", seed=2024)
    _report(
        2,
        "down-conversion flux identity residual < 1e-10 over a 1000-point "
        "random sweep",
        worst < 1e-10,
        f"worst {worst:.2e}",
    )


def test_criterion_3_puc_flux_identity():
    worst = _identity_sweep("puc", seed=2025)
    _report(
        3,
        "up-conversion flux identity residual < 1e-10 over a 1000-point "
        "random sweep",
        worst < 1e-10,
        f"worst {worst:.2e}",
    )


def test_criterion_4_rainbow_angles():
    scenario = reference_scenario()
    theta_d = pdc_resonance(scenario, 0.5).theta_deg
    theta_u = puc_resonance(scenario, 0.5).theta_deg
    mu = scenario.dispersion.mu
    _, q_u_exact, q_u_quad = degenerate_closed_forms(mu(0.5), mu(1.0), mu(1.5))
    gap = abs(q_u_quad - q_u_exact) / q_u_exact
    _report(
        4,
        "calibrated angles: theta_d = 10.000 +- 0.001 deg, theta_u = 25.0 "
        "+- 0.5 deg, quadratic vs exact q_u gap < 1%",
        abs(theta_d - 10.0) < 1e-3 and abs(theta_u - 25.0) < 0.5 and gap < 0.01,
        f"theta_d {theta_d:.4f}, theta_u {theta_u:.3f}, gap {gap:.2e}",
    )


def test_criterion_5_puc_to_pdc_intensity_ratio():
    scenario = reference_scenario()
    pdc = channel_report(scenario, 0.5, kind="pdc")
    puc = channel_report(scenario, 0.5, kind="puc")
    ratio = puc.flux_omega / pdc.flux_omega
    _report(
        5,
        "up-to-down conversion intensity ratio at omega0/2 within "
        "[0.02, 0.05] on the calibrated scenario",
        0.02 <= ratio <= 0.05,
        f"ratio {ratio:.5f}",
    )


def test_criterion_6_channel_flux_ratio():
    worst = 0.0
    for theta_d, mu2, omega in ((10.0, 1.51, 0.4), (8.0, 1.4, 0.55),
                                (14.0, 1.6, 0.33)):
        scenario = scenario_for(theta_d, mu2)
        rep = channel_report(scenario, omega, kind="pdc")
        res = pdc_resonance(scenario, omega)
        cos_ratio = (res.Omega20 / rep.partner) / (res.Omega10 / rep.omega)
        worst = max(worst, abs(rep.ratio - cos_ratio) / cos_ratio)
    blue_red = blue_red_scenario()
    rep = channel_report(blue_red, 0.4, kind="pdc")
    _report(
        6,
        "channel flux ratio equals the cosine ratio to 1e-12 and the "
        "blue-red example sits in [1.01, 1.06]",
        worst < 1e-12 and 1.01 <= rep.ratio <= 1.06,
        f"identity worst {worst:.2e}, blue-red ratio {rep.ratio:.4f}",
    )


def test_criterion_7_forward_rainbow_fraction():
    results = {}
    for r_target, expected in ((0.022, 0.96), (0.04, 0.92)):
        root = math.sqrt(r_target)
        cos_theta = math.cos(math.radians(10.0))
        mu2 = cos_theta * (1.0 + root) / (1.0 - root)
        scenario = scenario_for(10.0, mu2)
        rep = channel_report(scenario, 0.5, kind="pdc")
        assert abs(rep.r10 - r_target) < 1e-12
        assert abs(rep.r20 - r_target) < 1e-12
        forward, _ = rainbow_split(rep)
        results[r_target] = (forward, abs(forward - expected) <= 0.01)
    _report(
        7,
        "forward-rainbow share is 0.96 +- 0.01 at r10 = r20 = 0.022 and "
        "0.92 +- 0.01 at 0.04",
        all(flag for _, flag in results.values()),
        ", ".join(f"r0={k}: {v[0]:.4f}" for k, v in results.items()),
    )


def test_criterion_8_oracle_equivalence():
    # (a) exact quartic roots converge on the perturbative shifts at first
    # order in g, measured root-wise between g = 1e-3 and 1e-4 at a
    # nondegenerate resonance (the pair product cancels the O(g) term)
    convergence_ok = True
    details = []
    for kind, omega in (("pdc", 0.4), ("puc", 0.5)):
        errs = {}
        for g in (1e-3, 1e-4):
            scenario = reference_scenario(g=g)
            res = (pdc_resonance if kind == "pdc" else puc_resonance)(
                scenario, omega
            )
            kin = longitudinal(scenario, omega, res.p, kind)
            k = quartic_wavenumbers(scenario, kin)
            eps = epsilon_roots(scenario, res)
            errs[g] = max(
                abs(k[0] - kin.Omega1 - eps.eps1) / abs(eps.eps1),
                abs(k[1] - kin.Omega1 - eps.eps2) / abs(eps.eps2),
            )
        convergence_ok &= errs[1e-4] < 0.3 * errs[1e-3] and errs[1e-4] < 1e-3
        details.append(f"{kind} {errs[1e-3]:.1e}->{errs[1e-4]:.1e}")
    # (b) thickness-phase-averaged exact solve matches the first-order
    # intensity bookkeeping within 2% for r10 <= 0.05, gamma <= 1e-4
    # (mu2 = 1.45 keeps the up-conversion interface inside the r10 bound)
    exact_ok = True
    for kind in ("pdc", "puc"):
        scenario = scenario_for(10.0, 1.45, g=9e-6, l=3000.0)
        rep = channel_report(scenario, 0.5, kind=kind)
        assert rep.r10 <= 0.05 and rep.gamma <= 1e-4
        res = (pdc_resonance if kind == "pdc" else puc_resonance)(scenario, 0.5)
        avg = thickness_averaged_intensities(scenario, 0.5, res.p, kind)
        measured = avg["t1"] + avg["r1"] - 1.0
        if kind == "puc":
            measured = -measured
        predicted = rep.gamma / (1.0 + rep.r10)
        rel = abs(measured - predicted) / predicted
        exact_ok &= rel < 2e-2
        details.append(f"exact {kind} {rel:.2%}")
    _report(
        8,
        "quartic roots converge on the perturbative shifts at first order "
        "in g; the averaged exact boundary solve matches the intensity "
        "coefficients within 2%",
        convergence_ok and exact_ok,
        ", ".join(details),
    )


def test_criterion_9_puc_sign_structure():
    all_ok = True
    worst = None
    for theta_d in (5.0, 8.0, 10.0, 12.0, 15.0):
        for mu2 in (1.4, 1.51, 1.65):
            for omega in (0.35, 0.5, 0.65):
                rep = channel_report(scenario_for(theta_d, mu2), omega,
                                     kind="puc")
                ok = rep.flux_omega > 0.0 and rep.flux_partner < 0.0
                all_ok &= ok
                if not ok:
                    worst = (theta_d, mu2, omega)
    _report(
        9,
        "up-conversion flux is positive in the input channel and negative "
        "in the up-shifted channel for every sampled calibrated scenario",
        all_ok,
        "45 scenario/frequency combinations" if all_ok else f"failed {worst}",
    )
