"""Real refractive-index models mu(omega) over a validity band.

Units follow the c = 1 convention throughout: frequencies carry inverse
length, so omega * mu(omega) is directly a wavenumber.  Three model kinds
are supported:

``constant``
    mu(omega) = value everywhere in the band.
``rational``
    mu(omega)^2 = a + b / (c - omega^2), a single-pole Sellmeier-like
    form with the pole kept outside the band.
``tabulated``
    monotone cubic (PCHIP) interpolation of mu^2 through sample points;
    band is the sampled interval.  The slopes follow Fritsch and Carlson:
    zero where the neighbouring secants are flat or change sign, else
    their weighted harmonic mean, and a shape-preserving one-sided
    three-point rule at both ends (Moler, *Numerical Computing with
    MATLAB*, sec. 3.6, ``pchiptx``).

Models are immutable after construction and validated up front: mu must
be real and >= 1 everywhere in the band, and evaluation outside the band
is an error, never an extrapolation.
"""
import math

import numpy as np

from .errors import CalibrationError, OutOfBandError

_KINDS = ("constant", "rational", "tabulated")
_VALIDATION_SAMPLES = 1024
_MU_FLOOR = 1.0 - 1e-12


class DispersionModel:
    """Evaluable refractive index mu(omega) with a hard validity band."""

    def __init__(self, kind, parameters, band):
        if kind not in _KINDS:
            raise ValueError(f"unknown dispersion kind {kind!r}")
        lo, hi = float(band[0]), float(band[1])
        if not (0.0 < lo < hi):
            raise ValueError(f"band must satisfy 0 < lo < hi, got ({lo}, {hi})")
        self.kind = kind
        self.parameters = dict(parameters)
        self.band = (lo, hi)
        self._interp = None
        if kind == "tabulated":
            omegas = np.asarray(self.parameters["omegas"], dtype=float)
            mu_sq = np.asarray(self.parameters["mu_squared"], dtype=float)
            if omegas.ndim != 1 or omegas.size < 2 or omegas.size != mu_sq.size:
                raise ValueError("tabulated model needs matching 1-d samples")
            if np.any(np.diff(omegas) <= 0):
                raise ValueError("tabulated sample frequencies must increase")
            if not (math.isclose(omegas[0], lo) and math.isclose(omegas[-1], hi)):
                raise ValueError("tabulated band must span the sample points")
            if not (omegas[0] <= lo and hi <= omegas[-1]):
                raise ValueError("tabulated band must lie within the sample points")
            if not (np.all(np.isfinite(omegas)) and np.all(np.isfinite(mu_sq))):
                raise ValueError("tabulated samples must be finite")
            self._interp = _Pchip(omegas, mu_sq)
        self._validate()

    # -- constructors ------------------------------------------------------
    @classmethod
    def constant(cls, value, band=(1e-12, 1e12)):
        return cls("constant", {"value": float(value)}, band)

    @classmethod
    def rational(cls, a, b, c, band):
        return cls("rational", {"a": float(a), "b": float(b), "c": float(c)}, band)

    @classmethod
    def tabulated(cls, omegas, mu_squared):
        omegas = [float(w) for w in omegas]
        return cls(
            "tabulated",
            {"omegas": omegas, "mu_squared": [float(m) for m in mu_squared]},
            (omegas[0], omegas[-1]),
        )

    # -- evaluation --------------------------------------------------------
    def _mu_squared_raw(self, omega):
        p = self.parameters
        if self.kind == "constant":
            return np.full_like(omega, p["value"] ** 2, dtype=float)
        if self.kind == "rational":
            return p["a"] + p["b"] / (p["c"] - omega * omega)
        return self._interp(omega)

    def mu(self, omega):
        """Refractive index at omega (scalar or array), band-checked."""
        w = np.asarray(omega, dtype=float)
        lo, hi = self.band
        outside = ~((w >= lo) & (w <= hi))  # NaN is outside too
        if outside.any():
            # name the first offender only: a sweep passes hundreds at once
            count = f" ({np.count_nonzero(outside)} of {w.size} outside)" if w.ndim else ""
            raise OutOfBandError(
                f"frequency {float(w[outside][0])!r} outside dispersion band "
                f"[{lo:g}, {hi:g}]{count}"
            )
        out = np.sqrt(self._mu_squared_raw(w))
        return float(out) if np.ndim(omega) == 0 else out

    def _validate(self):
        lo, hi = self.band
        w = np.linspace(lo, hi, _VALIDATION_SAMPLES)
        if self.kind == "rational":
            c = self.parameters["c"]
            if lo * lo <= c <= hi * hi:
                raise ValueError("rational-model pole lies inside the band")
        m2 = self._mu_squared_raw(w)
        if not np.all(np.isfinite(m2)) or np.any(m2 < _MU_FLOOR**2):
            raise ValueError("mu(omega) must be real and >= 1 across the band")

    # -- serialization -----------------------------------------------------
    def to_record(self):
        """Flat key=value text record, round-trip stable to full precision."""
        lines = [
            f"kind={self.kind}",
            f"band_lo={self.band[0]:.17g}",
            f"band_hi={self.band[1]:.17g}",
        ]
        for key, value in sorted(self.parameters.items()):
            if isinstance(value, (list, tuple)):
                joined = ",".join(f"{v:.17g}" for v in value)
                lines.append(f"{key}={joined}")
            else:
                lines.append(f"{key}={value:.17g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_record(cls, text):
        fields = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
        try:
            kind = fields.pop("kind")
            band = (float(fields.pop("band_lo")), float(fields.pop("band_hi")))
        except KeyError as exc:
            raise ValueError(f"model record missing field: {exc}") from exc
        params = {}
        for key, value in fields.items():
            if "," in value:
                params[key] = [float(v) for v in value.split(",")]
            else:
                params[key] = float(value)
        return cls(kind, params, band)

    def __repr__(self):
        lo, hi = self.band
        return f"DispersionModel(kind={self.kind!r}, band=({lo:g}, {hi:g}))"


class _Pchip:
    """Monotone cubic Hermite interpolant through (x, y); NaN off [x0, xn].

    Operation for operation this is the arithmetic of scipy 1.17's
    ``PchipInterpolator(x, y, extrapolate=False)``, so values agree to the
    last bit: Fritsch-Carlson slopes (see the module docstring), the
    Hermite power coefficients c0..c3 of each interval, and evaluation on
    x[i] <= w < x[i+1], closed at the right end, as
    c3 + c2*s + c1*(s*s) + c0*(s*s*s) with s = w - x[i].
    """

    def __init__(self, x, y):
        h = np.diff(x)
        m = np.diff(y) / h
        d = self._slopes(h, m)
        t = (d[:-1] + d[1:] - 2 * m) / h
        # One column per interval: c0..c3 and the left breakpoint x[i];
        # scipy starts its sum from 0.0, which makes c3 +0.0 where y is -0.0.
        columns = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], 0.0 + y[:-1], x[:-1]))
        nan = np.full((5, 1), np.nan)
        self._table = np.hstack((nan, columns, nan))
        # searchsorted(..., "right") maps w < x0 to the first NaN column,
        # x[i] <= w < x[i+1] to column i + 1, w == xn to the last interval
        # and w > xn (or NaN) to the last NaN column.
        self._edges = np.append(x[:-1], np.nextafter(x[-1], np.inf))

    @staticmethod
    def _slopes(h, m):
        if m.size == 1:
            return np.array([m[0], m[0]])
        sign = np.sign(m)
        flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
            end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        d = np.empty(m.size + 1)
        d[1:-1] = np.where(flat, 0.0, inner)
        overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
        d[[0, -1]] = np.where(
            np.sign(end) != np.sign(m0), 0.0, np.where(overshoot, 3.0 * m0, end)
        )
        return d

    def __call__(self, w):
        # One gather, then c3 + c2*s + c1*(s*s) + c0*(s*s*s) summed left to
        # right, in place on the gathered copy (+ and * commute exactly).
        c0, c1, c2, c3, left = self._table.take(
            np.searchsorted(self._edges, w, "right"), axis=1
        )
        s = w - left
        c2 *= s
        c2 += c3
        s2 = s * s
        c1 *= s2
        c2 += c1
        s2 *= s
        s2 *= c0
        c2 += s2
        return c2


def calibrate_degenerate_angle(theta_d, mu2, omega0=1.0, band=None):
    """Build a model whose collinear-pair emission peaks at exterior angle
    theta_d (radians) for the half-pump frequency.

    The returned model pins mu at omega0/2, omega0 and 3*omega0/2 so that

        mu(omega0/2)^2 - mu(omega0)^2 = sin(theta_d)^2
        mu(3*omega0/2)^2 = mu(omega0)^2 - sin(theta_d)^2

    and continues the same straight line in mu^2 across the band, which the
    monotone interpolation reproduces exactly.
    """
    if not 0.0 <= theta_d < math.pi / 2:
        raise CalibrationError("target angle must lie in [0, 90) degrees")
    if mu2 <= 1.0:
        raise CalibrationError("pump-frequency index mu2 must exceed 1")
    if band is None:
        band = (0.05 * omega0, 2.5 * omega0)
    lo, hi = band
    if not (0.0 < lo <= 0.5 * omega0 and hi >= 1.5 * omega0):
        raise CalibrationError("band must cover [omega0/2, 3*omega0/2]")
    q_d = math.sin(theta_d) ** 2

    def mu_squared(w):
        return mu2 * mu2 + 2.0 * q_d * (1.0 - w / omega0)

    anchors = sorted({lo, 0.5 * omega0, omega0, 1.5 * omega0, hi})
    values = [mu_squared(w) for w in anchors]
    if min(values) < 1.0:
        raise CalibrationError(
            f"target angle {math.degrees(theta_d):.3f} deg forces mu < 1 "
            f"inside band [{lo:g}, {hi:g}]"
        )
    return DispersionModel.tabulated(anchors, values)
