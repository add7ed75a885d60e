"""Input-side domain types, unit conventions, and dataset validation.

Canonical units throughout: tonnes CO2, GW, GWh, yen, km, years.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

EARTH_RADIUS_KM = 6371.0


class TechKind(str, Enum):
    SOLAR = "solar"
    WIND = "wind"


TECH_ORDER = (TechKind.SOLAR, TechKind.WIND)
NUM_TECH = len(TECH_ORDER)

DEFAULT_ALPHA = {TechKind.SOLAR: 0.31, TechKind.WIND: 0.69}


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

    def year_of(self, t: int) -> int:
        """Calendar year of 1-based year index t."""
        return self.start_year + t - 1


@dataclass
class RegionTech:
    """Per region-and-technology data.

    g:  conversion ratio series [t CO2 per GW], length T
    rp: unit investment cost series [yen per GW], length T (learning curve)
    h:  GW -> GWh/year conversion factor
    potential: total economically feasible capacity [GW]
    """

    g: np.ndarray
    rp: np.ndarray
    h: float
    potential: float


def zero_tech(num_years: int) -> RegionTech:
    """Placeholder for a technology a region cannot deploy."""
    z = np.zeros(num_years)
    return RegionTech(g=z.copy(), rp=z.copy(), h=0.0, potential=0.0)


@dataclass
class Region:
    id: str
    baseline_emissions: float  # C_i(0), tonnes/year
    tech: dict
    ccs_capacity: float  # total storable tonnes over horizon; 0 => no storage
    location: tuple | None = None  # (lat, lon) degrees

    @property
    def has_storage(self) -> bool:
        return self.ccs_capacity > 0


@dataclass
class GlobalParams:
    cp: np.ndarray  # carbon price [yen/t]
    ccsp: np.ndarray  # CCS capture+storage unit cost [yen/t]
    gt: np.ndarray  # CCS transport unit cost [yen/(t*km)]
    cap: np.ndarray  # national yearly emission ceiling [t]; np.inf = unbounded
    sp: dict  # TechKind -> FIT price series [yen/GWh]
    alpha: dict = field(default_factory=lambda: dict(DEFAULT_ALPHA))


@dataclass
class ModelInstance:
    horizon: Horizon
    regions: list
    globals: GlobalParams
    distances: np.ndarray | None = None  # explicit d[j][i] in km, wins over locations

    @property
    def n(self) -> int:
        return len(self.regions)

    @property
    def T(self) -> int:
        return self.horizon.num_years

    @cached_property
    def sellers(self) -> tuple:
        """Indices of regions in V_s (physical storage capability)."""
        return tuple(i for i, r in enumerate(self.regions) if r.has_storage)

    @cached_property
    def buyers(self) -> tuple:
        """Indices of regions in V_b (no physical storage)."""
        return tuple(i for i, r in enumerate(self.regions) if not r.has_storage)

    @cached_property
    def region_index(self) -> dict:
        return {r.id: i for i, r in enumerate(self.regions)}

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


def distance(j: int, i: int, instance: ModelInstance) -> float:
    """Kilometres from region j to region i.

    An explicit distance matrix takes precedence; otherwise the great-circle
    distance is derived from region locations.
    """
    if instance.distances is not None:
        return float(instance.distances[j, i])
    if j == i:
        return 0.0
    rj, ri = instance.regions[j], instance.regions[i]
    if rj.location is None or ri.location is None:
        raise ValueError(
            f"no distance available between {rj.id!r} and {ri.id!r}: "
            "neither an explicit matrix nor both locations are present"
        )
    return great_circle_km(rj.location, ri.location)


def _as_series(values, T, path, errors):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != T:
        errors.append(f"{path}: series length {arr.shape[0] if arr.ndim == 1 else arr.shape} ≠ horizon {T}")
        return arr
    if not np.all(np.isfinite(arr)):
        errors.append(f"{path}: non-finite value in series")
    elif np.any(arr < 0):
        errors.append(f"{path}: negative value {arr[arr < 0][0]!r}")
    return arr


def _check_scalar(value, path, errors):
    if not math.isfinite(value):
        errors.append(f"{path}: non-finite value {value!r}")
    elif value < 0:
        errors.append(f"{path}: negative value {value!r}")


def alpha_errors(alpha: dict) -> list:
    """Violations of the mix rule's shares: each positive, summing to 1."""
    total = sum(alpha.get(k, 0.0) for k in TECH_ORDER)
    errors = [] if abs(total - 1.0) <= 1e-9 else [f"globals.alpha: alpha sums to {total:g}"]
    for k in TECH_ORDER:
        if not alpha.get(k, 0.0) > 0:
            errors.append(f"globals.alpha[{k.value}]: must be > 0 when resilience is enabled")
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

    seen = set()
    for r in raw.regions:
        if r.id in seen:
            errors.append(f"regions[{r.id}]: duplicate region id")
        seen.add(r.id)

    g = raw.globals
    cp = _as_series(g.cp, T, "globals.cp", errors)
    ccsp = _as_series(g.ccsp, T, "globals.ccsp", errors)
    gt = _as_series(g.gt, T, "globals.gt", errors)
    cap = np.asarray(g.cap, dtype=float)
    if cap.shape != (T,):
        errors.append(f"globals.cap: series length {cap.shape[0] if cap.ndim == 1 else cap.shape} ≠ horizon {T}")
    elif np.any(np.nan_to_num(cap, nan=-1.0) < 0) or np.any(np.isnan(cap)):
        errors.append("globals.cap: negative or NaN value (use +inf for an unbounded year)")

    sp = {}
    for k in TECH_ORDER:
        if k not in g.sp:
            errors.append(f"globals.sp[{k.value}]: missing series")
            sp[k] = np.zeros(T)
        else:
            sp[k] = _as_series(g.sp[k], T, f"globals.sp[{k.value}]", errors)

    alpha = {k: float(g.alpha.get(k, 0.0)) for k in TECH_ORDER}

    regions = []
    for r in raw.regions:
        _check_scalar(r.baseline_emissions, f"regions[{r.id}].baseline_emissions", errors)
        _check_scalar(r.ccs_capacity, f"regions[{r.id}].ccs_capacity", errors)
        if r.location is not None:
            for name, value, limit in zip(("lat", "lon"), r.location, (90.0, 180.0)):
                if not abs(value) <= limit:
                    errors.append(f"regions[{r.id}].location.{name}: {value!r} outside [-{limit:g}, {limit:g}]")
        tech = {}
        for k in TECH_ORDER:
            rt = r.tech.get(k)
            if rt is None:
                tech[k] = zero_tech(T)
                continue
            path = f"regions[{r.id}].tech[{k.value}]"
            gs = _as_series(rt.g, T, f"{path}.g", errors)
            rps = _as_series(rt.rp, T, f"{path}.rp", errors)
            _check_scalar(rt.h, f"{path}.h", errors)
            _check_scalar(rt.potential, f"{path}.potential", errors)
            tech[k] = RegionTech(g=gs, rp=rps, h=float(rt.h), potential=float(rt.potential))
        regions.append(
            Region(
                id=r.id,
                baseline_emissions=float(r.baseline_emissions),
                tech=tech,
                ccs_capacity=float(r.ccs_capacity),
                location=tuple(r.location) if r.location is not None else None,
            )
        )

    dist = None
    if raw.distances is not None:
        dist = np.asarray(raw.distances, dtype=float)
        nn = len(raw.regions)
        if dist.shape != (nn, nn):
            errors.append(f"distances: shape {dist.shape} ≠ ({nn}, {nn})")
        else:
            if np.any(dist < 0) or not np.all(np.isfinite(dist)):
                errors.append("distances: entries must be finite and >= 0")
            if np.any(np.diag(dist) != 0):
                errors.append("distances: diagonal must be 0")
    else:
        for r in regions:
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
        distances=dist,
    )
