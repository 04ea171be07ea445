"""Seeded sampling: room counts, functions, areas and the footprint.

The stages hand on plain values: a room program is a tuple of ``RoomEntry``
(id, kind, target area), one per room in id order, and the footprint is the
float ``(0.0, 0.0, width, height)`` the treemap lays rooms out in.

All randomness in the package flows through :class:`RandomStream`, a
counter-based SplitMix64 generator.  It is fixed here rather than delegated to
``random`` so that a (seed, config) pair produces byte-identical plans on any
platform or Python build.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import AbstractSet, Mapping, NamedTuple

from .geometry import GRID, MAX_COORD, MAX_EXACT, Cut, _mm, snap

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_SUBSTREAM_GAMMA = 0xD1B54A32D192ED03


class ConfigError(ValueError):
    """Bad configuration file or inconsistent GenConfig."""


class SamplingError(RuntimeError):
    """A sampling stage produced an unusable draw; caller may retry."""


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RandomStream:
    """Deterministic SplitMix64 stream over a 64-bit seed and draw counter.

    Draw ``k`` is ``mix64(seed + k * 0x9E3779B97F4A7C15)`` with the standard
    SplitMix64 finalizer, so the sequence is a pure function of (seed, k) and
    identical on every platform.  ``substream`` derives an independent stream
    for retry attempts without disturbing the parent counter.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK64
        self.counter = 0

    def next_u64(self) -> int:
        self.counter += 1
        return _mix64(self.seed + self.counter * _GAMMA)

    # random and uniform are the hottest draws, so they spell out next_u64
    # and _mix64 rather than call them; the tests pin them to that formula.

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        self.counter += 1
        z = (self.seed + self.counter * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        self.counter += 1
        z = (self.seed + self.counter * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return low + (high - low) * (((z ^ (z >> 31)) >> 11) * 2.0**-53)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return (self.next_u64() * n) >> 64

    def substream(self, index: int) -> "RandomStream":
        return RandomStream(_mix64(self.seed + (index + 1) * _SUBSTREAM_GAMMA))


class RoomKind(str, Enum):
    OUTSIDE = "outside"
    LIVING_ROOM = "living_room"
    KITCHEN = "kitchen"
    DINING_ROOM = "dining_room"
    MASTER_BEDROOM = "master_bedroom"
    BEDROOM = "bedroom"
    BATHROOM = "bathroom"
    LAUNDRY = "laundry"
    PANTRY = "pantry"
    STORAGE = "storage"

    @property
    def category(self) -> str:
        return _CATEGORY[self]


# Functional areas: service, private, social.
_CATEGORY = {
    RoomKind.OUTSIDE: "social",
    RoomKind.LIVING_ROOM: "social",
    RoomKind.DINING_ROOM: "social",
    RoomKind.KITCHEN: "service",
    RoomKind.LAUNDRY: "service",
    RoomKind.PANTRY: "service",
    RoomKind.STORAGE: "service",
    RoomKind.MASTER_BEDROOM: "private",
    RoomKind.BEDROOM: "private",
    RoomKind.BATHROOM: "private",
}

BEDROOM_KINDS = frozenset({RoomKind.MASTER_BEDROOM, RoomKind.BEDROOM})

# Census joint counts: rows = bedrooms 0-4, columns = rooms 1-10.
_DEFAULT_JOINT_ROWS = (
    (8.0338e-3, 1.4385e-2, 6.3392e-4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 8.0221e-2, 4.3408e-2, 1.1586e-2, 3.4386e-3, 1.1857e-3, 5.8376e-4, 2.1361e-4, 1.0810e-4),
    (0.0, 0.0, 0.0, 9.6780e-2, 9.0908e-2, 3.9446e-2, 1.6442e-2, 8.5631e-3, 2.9806e-3, 1.5026e-3),
    (0.0, 0.0, 0.0, 0.0, 7.6431e-2, 1.0599e-1, 8.0343e-2, 5.4633e-2, 2.5820e-2, 2.5868e-2),
    (0.0, 0.0, 0.0, 0.0, 0.0, 1.4412e-2, 3.4647e-2, 5.2167e-2, 3.9863e-2, 6.9406e-2),
)


class JointCountTable:
    """Joint probability of (bedrooms 0-4, rooms 1-10), normalized on load.

    A house cannot have as many bedrooms as rooms (the living room always
    exists), so cells with bedrooms >= rooms must be zero.
    """

    __slots__ = ("rows", "_cum", "_support")

    def __init__(self, rows) -> None:
        # Plus 0.0 stores a cell of -0.0 as 0.0, which it equals but is not written as.
        rows = tuple(tuple(float(v) + 0.0 for v in row) for row in rows)
        if len(rows) != 5 or any(len(row) != 10 for row in rows):
            raise ConfigError("joint table must be 5 rows x 10 columns")
        total = 0.0
        for b, row in enumerate(rows):
            for r_index, value in enumerate(row):
                rooms = r_index + 1
                if not 0 <= value < math.inf:
                    raise ConfigError(f"joint table entry ({b},{rooms}) must be finite and >= 0")
                if value > 0 and b >= rooms:
                    raise ConfigError(f"joint table entry ({b},{rooms}) must be 0 (bedrooms >= rooms)")
                total += value
        if total <= 0:
            raise ConfigError("joint table sums to zero")
        if total == math.inf:
            raise ConfigError("joint table sum overflows")
        # Renormalizing an already-normalized table must not drift any bits,
        # or a config would change its own fingerprint on a round trip.
        if abs(total - 1.0) < 1e-9:
            self.rows = rows
        else:
            self.rows = tuple(tuple(v / total for v in row) for row in rows)
        cum, support = [], []
        acc = 0.0
        for b in range(5):
            for r_index in range(10):
                p = self.rows[b][r_index]
                if p > 0:
                    acc += p
                    cum.append(acc)
                    support.append((b, r_index + 1))
        self._cum = cum
        self._support = support

    @classmethod
    def default(cls) -> "JointCountTable":
        return cls(_DEFAULT_JOINT_ROWS)

    @classmethod
    def from_csv(cls, path: str | Path) -> "JointCountTable":
        with open(path, newline="") as handle:
            rows = [[float(v) for v in row] for row in csv.reader(handle) if row]
        return cls(rows)

    def probability(self, bedrooms: int, rooms: int) -> float:
        return self.rows[bedrooms][rooms - 1]

    def draw(self, rng: RandomStream) -> tuple[int, int]:
        u = rng.random() * self._cum[-1]
        return self._support[min(bisect_right(self._cum, u), len(self._support) - 1)]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, JointCountTable) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)


@dataclass(frozen=True)
class AreaDistribution:
    """Uniform(low, high) or a point mass (low == high)."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0 < self.low <= self.high <= MAX_COORD:
            raise ConfigError(f"bad area distribution [{self.low}, {self.high}]")

    def sample(self, rng: RandomStream) -> float:
        if self.low == self.high:
            return self.low
        return rng.uniform(self.low, self.high)

    def margin(self, value: float) -> float:
        """Distance from value to the nearer bound (slack for adjustments)."""
        return min(value - self.low, self.high - value)

    def to_json(self):
        if self.low == self.high:
            return {"constant": self.low}
        return {"uniform": [self.low, self.high]}

    @classmethod
    def from_json(cls, data) -> "AreaDistribution":
        if not isinstance(data, dict) or len(data) != 1:
            raise ConfigError(f"bad distribution spec: {data!r}")
        if "constant" in data:
            v = _number(data["constant"], "constant")
            return cls(v, v)
        if "uniform" in data:
            lo, hi = data["uniform"]
            return cls(_number(lo, "uniform bound"), _number(hi, "uniform bound"))
        raise ConfigError(f"unknown distribution kind: {list(data)[0]!r}")


class RoomEntry(NamedTuple):
    id: int
    kind: RoomKind
    target_area: float


_DEFAULT_PRIORITY = (
    RoomKind.OUTSIDE,
    RoomKind.LIVING_ROOM,
    RoomKind.KITCHEN,
    RoomKind.MASTER_BEDROOM,
    RoomKind.BATHROOM,
    RoomKind.BEDROOM,
    RoomKind.DINING_ROOM,
    RoomKind.BEDROOM,
    RoomKind.BATHROOM,
    RoomKind.LAUNDRY,
    RoomKind.PANTRY,
    RoomKind.STORAGE,
)


def _default_areas() -> dict[RoomKind, AreaDistribution]:
    areas = {}
    for kind in RoomKind:
        if kind is RoomKind.OUTSIDE:
            continue
        if kind in BEDROOM_KINDS:
            areas[kind] = AreaDistribution(8.0, 18.0)
        else:
            areas[kind] = AreaDistribution(3.0, 11.0)
    return areas


@dataclass(frozen=True)
class GenConfig:
    """Every knob of the generator, loadable from human-editable JSON.

    A config is frozen once its checks pass: fields cannot be assigned and
    ``areas`` is a read-only mapping, so build a variant with
    ``dataclasses.replace``, which checks it anew.  What the stages derive
    from it - the fingerprint and the lengths in millimetres - is computed
    once per config.
    """

    joint_table: JointCountTable = field(default_factory=JointCountTable.default)
    priority: tuple[RoomKind, ...] = _DEFAULT_PRIORITY
    areas: Mapping[RoomKind, AreaDistribution] = field(default_factory=_default_areas)
    footprint_aspect: AreaDistribution = AreaDistribution(1.0, 2.0)
    max_footprint_aspect: float = 2.0
    corridor_width: float = 1.0
    door_width: float = 0.9
    window_width: float = 1.2
    min_room_width: float = 1.8
    max_room_aspect: float = 4.0
    kitchen_via_dining_prob: float = 0.5
    optional_doors: tuple[tuple[RoomKind, RoomKind, float], ...] = (
        (RoomKind.KITCHEN, RoomKind.DINING_ROOM, 0.5),
        (RoomKind.LIVING_ROOM, RoomKind.DINING_ROOM, 0.5),
    )
    window_banned: tuple[RoomKind, ...] = (RoomKind.BATHROOM,)
    max_attempts: int = 32

    def __post_init__(self) -> None:
        for name in ("priority", "optional_doors", "window_banned"):
            # An unordered container lists its kinds in hash order, and the
            # fingerprint would list them so.
            if isinstance(getattr(self, name), (AbstractSet, Mapping)):
                raise ConfigError(f"{name} must be a list, not a {type(getattr(self, name)).__name__}")
        # Tuples, so that a config hashes and compares by value; priority is
        # also a memo key of assign_functions.  A float -0.0 equals 0.0 but is
        # written "-0.0", so the probabilities store it as 0.0 and equal configs
        # fingerprint alike; the other float fields are refused at zero.
        object.__setattr__(self, "priority", tuple(self.priority))
        doors = tuple((a, b, _unsigned(p)) for a, b, p in self.optional_doors)
        object.__setattr__(self, "optional_doors", doors)
        object.__setattr__(self, "window_banned", tuple(self.window_banned))
        object.__setattr__(self, "areas", MappingProxyType(dict(self.areas)))
        object.__setattr__(self, "kitchen_via_dining_prob", _unsigned(self.kitchen_via_dining_prob))
        if len(self.priority) < 2 or self.priority[0] is not RoomKind.OUTSIDE:
            raise ConfigError("priority list must start with outside")
        if self.priority[1] is not RoomKind.LIVING_ROOM:
            raise ConfigError("living room must immediately follow outside in the priority list")
        if self.priority.count(RoomKind.LIVING_ROOM) != 1 or self.priority.count(RoomKind.OUTSIDE) != 1:
            raise ConfigError("outside and living room appear exactly once in the priority list")
        for name in ("corridor_width", "door_width", "window_width", "min_room_width"):
            value = getattr(self, name)
            if not 0 < value <= MAX_COORD:
                raise ConfigError(f"{name} must be positive and at most {MAX_COORD:g} m")
            # Off the grid, the plan would write one length and place another.
            if snap(value) != value:
                raise ConfigError(f"{name} must be a whole number of millimetres, got {value}")
        if not (1 <= self.max_footprint_aspect < math.inf and 1 <= self.max_room_aspect < math.inf):
            raise ConfigError("aspect ratio bounds must be finite and >= 1")
        # A uniform draw lands on its low end with probability zero, so the
        # low end must lie below the cap unless the draw is a constant.
        low, high = self.footprint_aspect.low, self.footprint_aspect.high
        if low > self.max_footprint_aspect or high > low == self.max_footprint_aspect:
            raise ConfigError("footprint_aspect cannot draw a ratio within max_footprint_aspect")
        if not 0 <= self.kitchen_via_dining_prob <= 1:
            raise ConfigError("kitchen_via_dining_prob must be in [0, 1]")
        pairs = set()
        for a, b, p in self.optional_doors:
            if not 0 <= p <= 1:
                raise ConfigError(f"optional door probability for ({a.value}, {b.value}) must be in [0, 1]")
            # Only the first entry for a pair is ever drawn.
            if frozenset((a, b)) in pairs:
                raise ConfigError(f"optional_doors lists the pair ({a.value}, {b.value}) twice")
            pairs.add(frozenset((a, b)))
        for kind in self.window_banned:
            if self.window_banned.count(kind) > 1:
                raise ConfigError(f"window_banned lists {kind.value} twice")
        if type(self.max_attempts) is not int or self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be a whole number >= 1, got {self.max_attempts!r}")
        for kind in self.priority:
            if kind is not RoomKind.OUTSIDE and kind not in self.areas:
                raise ConfigError(f"no area distribution for {kind.value}")

    def to_json(self) -> dict:
        return {
            "joint_table": [list(row) for row in self.joint_table.rows],
            "priority": [k.value for k in self.priority],
            "areas": {k.value: d.to_json() for k, d in sorted(self.areas.items(), key=lambda kv: kv[0].value)},
            "footprint_aspect": self.footprint_aspect.to_json(),
            "max_footprint_aspect": self.max_footprint_aspect,
            "corridor_width": self.corridor_width,
            "door_width": self.door_width,
            "window_width": self.window_width,
            "min_room_width": self.min_room_width,
            "max_room_aspect": self.max_room_aspect,
            "kitchen_via_dining_prob": self.kitchen_via_dining_prob,
            "optional_doors": [[a.value, b.value, p] for a, b, p in self.optional_doors],
            "window_banned": [k.value for k in self.window_banned],
            "max_attempts": self.max_attempts,
        }

    def __reduce__(self):
        # A mappingproxy neither pickles nor deep-copies; rebuild through the constructor.
        args = {f.name: getattr(self, f.name) for f in fields(self)}
        args["areas"] = dict(self.areas)
        return type(self), tuple(args.values())

    def __hash__(self) -> int:
        # Over the values == compares, areas as sorted items; the fingerprint
        # would tell apart equal configs (a max_room_aspect of 4 and of 4.0).
        return hash(tuple(
            tuple(sorted(self.areas.items())) if f.name == "areas" else getattr(self, f.name)
            for f in fields(self)
        ))

    def fingerprint(self) -> str:
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        canonical = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    # The lengths the stages place and check, in millimetres.
    @cached_property
    def corridor_mm(self) -> int:
        return _mm(self.corridor_width)

    @cached_property
    def door_mm(self) -> int:
        return _mm(self.door_width)

    @cached_property
    def window_mm(self) -> int:
        return _mm(self.window_width)

    @cached_property
    def min_room_mm(self) -> int:
        return _mm(self.min_room_width)

    @classmethod
    def from_json(cls, data: dict, base_dir: str | Path | None = None) -> "GenConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config field: {sorted(unknown)[0]!r}")
        kwargs = {}
        try:
            if "joint_table" in data:
                table = data["joint_table"]
                if isinstance(table, str):
                    path = Path(table)
                    if base_dir is not None and not path.is_absolute():
                        path = Path(base_dir) / path
                    kwargs["joint_table"] = JointCountTable.from_csv(path)
                else:
                    kwargs["joint_table"] = JointCountTable(table)
            if "priority" in data:
                kwargs["priority"] = tuple(RoomKind(k) for k in _list(data, "priority"))
            if "areas" in data:
                if not isinstance(data["areas"], dict) or not data["areas"]:
                    raise ConfigError("areas must be a non-empty JSON object")
                areas = _default_areas()
                areas.update({RoomKind(k): AreaDistribution.from_json(d) for k, d in data["areas"].items()})
                kwargs["areas"] = areas
            if "footprint_aspect" in data:
                kwargs["footprint_aspect"] = AreaDistribution.from_json(data["footprint_aspect"])
            if "optional_doors" in data:
                kwargs["optional_doors"] = tuple(
                    (RoomKind(a), RoomKind(b), float(_number(p, "optional door probability")))
                    for a, b, p in _list(data, "optional_doors")
                )
            if "window_banned" in data:
                kwargs["window_banned"] = tuple(RoomKind(k) for k in _list(data, "window_banned"))
            for name in (
                "max_footprint_aspect", "corridor_width", "door_width", "window_width",
                "min_room_width", "max_room_aspect", "kitchen_via_dining_prob",
            ):
                if name in data:
                    kwargs[name] = float(_number(data[name], name))
            if "max_attempts" in data:
                kwargs["max_attempts"] = _number(data["max_attempts"], "max_attempts")
        except (TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"malformed config value: {exc}") from exc
        return cls(**kwargs)

    @classmethod
    def load(cls, path: str | Path) -> "GenConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_json(data, base_dir=path.parent)


def _unsigned(value):
    """``value``, with a float -0.0 as 0.0."""
    return 0.0 if type(value) is float and value == 0 else value


def _number(value, name: str) -> int | float:
    # JSON true is not a number, although Python's bool is an int.
    if type(value) not in (int, float):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return value


def _list(data: dict, name: str) -> list:
    # An object would be read as the list of its keys.
    if not isinstance(data[name], list):
        raise ConfigError(f"{name} must be a JSON list")
    return data[name]


def sample_counts(rng: RandomStream, table: JointCountTable) -> tuple[int, int]:
    """Draw (bedrooms, rooms) with the table's cell probabilities."""
    return table.draw(rng)


# Programs are immutable tuples, so attempts drawing the same counts share one; errors are not cached.
@lru_cache(maxsize=128)
def assign_functions(bedrooms: int, rooms: int, priority: tuple[RoomKind, ...]) -> tuple[RoomEntry, ...]:
    """Pick the N highest-priority feasible room functions, one program entry each.

    Walks the priority list reserving slots for the required bedrooms and,
    when the house has bedrooms and capacity allows, one bathroom; entries
    that would squeeze those out are skipped.  Extra bedroom entries are
    appended when the list runs short of them.  The first bedroom entry is
    the master bedroom.  Target areas come later, from ``sample_areas``.
    """
    if rooms < 1:
        raise ValueError("a program needs at least one room")
    if bedrooms < 0 or bedrooms > rooms - 1:
        raise ValueError(f"cannot fit {bedrooms} bedrooms in {rooms} rooms")
    slots = rooms
    beds = bedrooms
    bath_needed = bedrooms >= 1 and rooms >= bedrooms + 2
    kinds: list[RoomKind] = []
    for kind in priority:
        if slots == 0:
            break
        if kind is RoomKind.OUTSIDE:
            continue
        if kind in BEDROOM_KINDS:
            if beds > 0:
                kinds.append(kind)
                beds -= 1
                slots -= 1
            continue
        reserved = beds if kind is RoomKind.BATHROOM else beds + (1 if bath_needed else 0)
        if slots - 1 < reserved:
            continue
        kinds.append(kind)
        slots -= 1
        if kind is RoomKind.BATHROOM:
            bath_needed = False
    while beds > 0 and slots > 0:
        kinds.append(RoomKind.BEDROOM)
        beds -= 1
        slots -= 1
    if slots > 0:
        # The census table carries a sliver of mass on room counts the
        # priority list cannot staff (one cell, ~1e-4); that draw is
        # unusable rather than a caller bug, so the attempt is retried.
        raise SamplingError(f"priority list too short for {rooms} rooms")
    first_bed = True
    for i, kind in enumerate(kinds):
        if kind in BEDROOM_KINDS:
            kinds[i] = RoomKind.MASTER_BEDROOM if first_bed else RoomKind.BEDROOM
            first_bed = False
    return tuple(RoomEntry(i, kind, 0.0) for i, kind in enumerate(kinds))


def sample_areas(program: tuple[RoomEntry, ...], rng: RandomStream, cfg: GenConfig) -> tuple[RoomEntry, ...]:
    """Draw a target area for every entry from its kind's distribution."""
    entries = []
    for room_id, kind, _ in program:
        dist = cfg.areas.get(kind)
        if dist is None:
            raise ConfigError(f"no area distribution for {kind.value}")
        entries.append(RoomEntry(room_id, kind, snap(dist.sample(rng))))
    return tuple(entries)


def derive_footprint(
    program: tuple[RoomEntry, ...], rng: RandomStream, cfg: GenConfig
) -> tuple[Cut, tuple[RoomEntry, ...]]:
    """Derive the footprint ``(0, 0, width, height)`` whose area is the program's total area.

    width = sqrt(area * AR), height = area / width, both snapped to the grid.
    Snapping perturbs the footprint area by a fraction of a square
    millimetre per metre of side, so the residual is folded into the target
    with the most slack to its distribution bounds; the returned program sums
    exactly to the footprint area.
    """
    total = sum(e.target_area for e in program)
    for _ in range(4096):
        ratio = cfg.footprint_aspect.sample(rng)
        if ratio <= cfg.max_footprint_aspect:
            break
    else:
        raise SamplingError("footprint aspect draws all exceed the configured cap")
    width = snap(math.sqrt(total * ratio))
    height = snap(total / width) if width > 0 else 0.0
    # Snapping may push the realized ratio a hair past the cap; walk it back.
    for _ in range(16):
        if min(width, height) <= 0 or max(width, height) > MAX_EXACT:
            raise SamplingError(f"a footprint side snaps to 0 mm or exceeds {MAX_EXACT:g} m")
        if max(width, height) / min(width, height) <= cfg.max_footprint_aspect:
            break
        if width >= height:
            width = snap(width - GRID)
        else:
            height = snap(height - GRID)
        if width >= height:
            height = snap(total / width)
        else:
            width = snap(total / height)
    else:
        raise SamplingError("could not realize footprint aspect ratio on the grid")
    delta = width * height - total
    margins = [cfg.areas[kind].margin(area) for _, kind, area in program]
    i = margins.index(max(margins))
    room_id, kind, area = program[i]
    adjusted_area = area + delta
    if cfg.areas[kind].margin(adjusted_area) < 0:
        raise SamplingError("footprint rounding residual does not fit any room's distribution")
    adjusted = RoomEntry(room_id, kind, adjusted_area)
    return (0.0, 0.0, width, height), program[:i] + (adjusted,) + program[i + 1:]
