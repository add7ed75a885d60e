"""Input-side domain types, unit conventions, and dataset validation.

Canonical units throughout: tonnes CO2, GW, GWh, yen, km, years.

Per-technology data are arrays with the technology axis in `TECH_ORDER`, all
zero for a technology a region cannot deploy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

EARTH_RADIUS_KM = 6371.0


TECH_ORDER = ("solar", "wind")
NUM_TECH = len(TECH_ORDER)

DEFAULT_ALPHA = (0.31, 0.69)  # in TECH_ORDER


class ValidationError(ValueError):
    """Carries the full list of rule violations found in an instance."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class Horizon:
    start_year: int = 2018
    num_years: int = 33

    @property
    def years(self):
        return range(self.start_year, self.start_year + self.num_years)


@dataclass
class Region:
    id: str
    baseline_emissions: float  # C_i(0), tonnes/year
    ccs_capacity: float  # total storable tonnes over horizon; 0 => no storage
    location: tuple | None = None  # (lat, lon) degrees


@dataclass
class GlobalParams:
    cp: np.ndarray  # carbon price [yen/t]
    ccsp: np.ndarray  # CCS capture+storage unit cost [yen/t]
    gt: np.ndarray  # CCS transport unit cost [yen/(t*km)]
    cap: np.ndarray  # national yearly emission ceiling [t]; np.inf = unbounded
    sp: np.ndarray  # (K, T) FIT price [yen/GWh]
    alpha: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_ALPHA))  # (K,) mix shares


@dataclass
class ModelInstance:
    horizon: Horizon
    regions: list
    globals: GlobalParams
    g: np.ndarray  # (n, K, T) conversion ratio [t CO2 per GW]
    rp: np.ndarray  # (n, K, T) unit investment cost [yen per GW] (learning curve)
    h: np.ndarray  # (n, K) GW -> GWh/year conversion factor
    potential: np.ndarray  # (n, K) total economically feasible capacity [GW]
    distances: np.ndarray | None = None  # given d[j][i] in km; see `distance_km`

    @property
    def n(self) -> int:
        return len(self.regions)

    @property
    def T(self) -> int:
        return self.horizon.num_years

    @cached_property
    def sellers(self) -> np.ndarray:
        """Ascending indices of the regions in V_s (physical storage capability)."""
        return np.flatnonzero([r.ccs_capacity > 0 for r in self.regions])

    @cached_property
    def buyers(self) -> np.ndarray:
        """Ascending indices of the regions in V_b (no physical storage)."""
        return np.flatnonzero([not r.ccs_capacity > 0 for r in self.regions])

    @cached_property
    def distance_km(self) -> np.ndarray:
        """(n, n) kilometres from region j to region i: `distances` when it is
        given, otherwise the great-circle distance between the two locations."""
        if self.distances is not None:
            return np.asarray(self.distances, dtype=float)
        missing = [r.id for r in self.regions if r.location is None]
        if missing:
            raise ValueError(f"no distance available: no matrix is given and regions {missing} have no location")
        return np.array([[great_circle_km(a.location, b.location) for b in self.regions] for a in self.regions])

    @cached_property
    def baseline_total(self) -> float:
        return float(sum(r.baseline_emissions for r in self.regions))


def great_circle_km(a: tuple, b: tuple) -> float:
    """Haversine distance between two (lat, lon) points in degrees."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    s = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def _as_series(values, T, path, errors):
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        errors.append(f"{path}: not an array of numbers")
        return None
    if arr.ndim != 1 or arr.shape[0] != T:
        errors.append(f"{path}: series length {arr.shape[0] if arr.ndim == 1 else arr.shape} ≠ horizon {T}")
        return arr
    if not np.all(np.isfinite(arr)):
        errors.append(f"{path}: non-finite value in series")
    elif np.any(arr < 0):
        errors.append(f"{path}: negative value {arr[arr < 0][0]!r}")
    return arr


def _shaped(values, shape, path, errors):
    """`values` as a float array of `shape`, or None after recording an error."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        errors.append(f"{path}: not an array of numbers")
        return None
    if arr.shape != shape:
        errors.append(f"{path}: shape {arr.shape} ≠ {shape}")
        return None
    return arr


def _check_scalar(value, path, errors):
    """float(value) (NaN if not a number), recording an error unless finite and >= 0."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        errors.append(f"{path}: not a number: {value!r}")
        return math.nan
    if not math.isfinite(number):
        errors.append(f"{path}: non-finite value {number!r}")
    elif number < 0:
        errors.append(f"{path}: negative value {number!r}")
    return number


def alpha_errors(alpha: np.ndarray) -> list:
    """Violations of the mix rule's shares: each positive, summing to 1."""
    total = float(alpha.sum())
    errors = [] if abs(total - 1.0) <= 1e-9 else [f"globals.alpha: alpha sums to {total:g}"]
    for k, share in zip(TECH_ORDER, alpha):
        if not share > 0:
            errors.append(f"globals.alpha[{k}]: must be > 0 when resilience is enabled")
    return errors


def validate_instance(raw: ModelInstance) -> ModelInstance:
    """Check every invariant of the data contract and return a canonical copy.

    Raises ValidationError listing all violated rules (with a path to the
    offending field). Validation never returns a partially valid instance.
    Canonicalisation is idempotent: validating a validated instance changes
    no value. The alpha mix shares are checked where the mix rule's rows are
    built (`alpha_errors`), since only scenarios with that rule use them.
    """
    errors = []
    T = raw.horizon.num_years
    if T < 1:
        errors.append(f"horizon.num_years: {T} < 1")
        raise ValidationError(errors)

    if not raw.regions:
        errors.append("regions: no region given")
    seen = set()
    for r in raw.regions:
        if r.id in seen:
            errors.append(f"regions[{r.id}]: duplicate region id")
        # bundles write ids as bare CSV cells; repr keeps a CR or LF off the error line
        if any(ch in r.id for ch in ',"\r\n'):
            errors.append(f"regions[{r.id!r}]: id contains a comma, double quote, CR or LF")
        seen.add(r.id)

    gp = raw.globals
    n, K = len(raw.regions), NUM_TECH
    shape_errors = []  # the checks below index each array by region and tech
    g = _shaped(raw.g, (n, K, T), "g", shape_errors)
    rp = _shaped(raw.rp, (n, K, T), "rp", shape_errors)
    h = _shaped(raw.h, (n, K), "h", shape_errors)
    potential = _shaped(raw.potential, (n, K), "potential", shape_errors)
    sp = _shaped(gp.sp, (K, T), "globals.sp", shape_errors)
    alpha = _shaped(gp.alpha, (K,), "globals.alpha", shape_errors)
    if shape_errors:
        raise ValidationError(errors + shape_errors)

    cp = _as_series(gp.cp, T, "globals.cp", errors)
    ccsp = _as_series(gp.ccsp, T, "globals.ccsp", errors)
    gt = _as_series(gp.gt, T, "globals.gt", errors)
    cap = _shaped(gp.cap, (T,), "globals.cap", errors)
    if cap is not None and not np.all(cap >= 0):
        errors.append("globals.cap: negative or NaN value (use +inf for an unbounded year)")

    for k, kind in enumerate(TECH_ORDER):
        _as_series(sp[k], T, f"globals.sp[{kind}]", errors)

    regions = []
    for i, r in enumerate(raw.regions):
        c0 = _check_scalar(r.baseline_emissions, f"regions[{r.id}].baseline_emissions", errors)
        ccs_capacity = _check_scalar(r.ccs_capacity, f"regions[{r.id}].ccs_capacity", errors)
        location = None
        latlon = None if r.location is None else _shaped(r.location, (2,), f"regions[{r.id}].location", errors)
        if latlon is not None:
            location = tuple(latlon.tolist())
            for name, value, limit in zip(("lat", "lon"), location, (90.0, 180.0)):
                if not abs(value) <= limit:
                    errors.append(f"regions[{r.id}].location.{name}: {value!r} outside [-{limit:g}, {limit:g}]")
        for k, kind in enumerate(TECH_ORDER):
            path = f"regions[{r.id}].tech[{kind}]"
            _as_series(g[i, k], T, f"{path}.g", errors)
            _as_series(rp[i, k], T, f"{path}.rp", errors)
            _check_scalar(h[i, k], f"{path}.h", errors)
            _check_scalar(potential[i, k], f"{path}.potential", errors)
        regions.append(
            Region(
                id=r.id,
                baseline_emissions=c0,
                ccs_capacity=ccs_capacity,
                location=location,
            )
        )

    if regions and sum(r.baseline_emissions for r in regions) == 0:
        errors.append("regions: total baseline emissions is 0, so no reduction can be measured against it")

    dist = None
    if raw.distances is not None:
        nn = len(raw.regions)
        dist = _shaped(raw.distances, (nn, nn), "distances", errors)
        if dist is not None:
            for j, i in np.argwhere(~(np.isfinite(dist) & (dist >= 0)))[:1]:  # the first, by region ids
                errors.append(f"distances[{raw.regions[j].id}][{raw.regions[i].id}]: {dist[j, i]:g} km; "
                              "entries must be finite and >= 0")
            if np.any(np.diag(dist) != 0):
                errors.append("distances: diagonal must be 0")
    else:
        for r in raw.regions:
            if r.location is None:
                errors.append(
                    f"regions[{r.id}].location: missing (required when no explicit distance matrix is given)"
                )

    if errors:
        raise ValidationError(errors)

    return ModelInstance(
        horizon=raw.horizon,
        regions=regions,
        globals=GlobalParams(cp=cp, ccsp=ccsp, gt=gt, cap=cap, sp=sp, alpha=alpha),
        g=g, rp=rp, h=h, potential=potential,
        distances=dist,
    )
