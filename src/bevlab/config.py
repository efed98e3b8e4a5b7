"""Plain-text run configuration.

One flat `key value` file drives every experiment. Parsing is typed off
the defaults table, dumps always write the full table (so a run directory
records exactly what it ran with, defaults included), and RunConfig is
the one place its fields become objects: rig, grid, and every model,
which nothing else constructs. Each setting has one default, its row in
DEFAULTS: scene generation and the trainers read the fields off the
config they are handed.
"""

import hashlib
import math

from .encoders import MapDecoder, StudentEncoder, TeacherEncoder
from .geometry import BevGrid, default_rig, extended_grid, standard_grid
from .scenegen import LANE_WIDTH
from .supervision import VARIANTS, MixAdapter


class ConfigError(RuntimeError):
    pass


# (name, default, caches) rows; the default's python type pins the parser.
# Tuples parse as space-separated lists: the ranges and teacher_widths
# take exactly as many values as their default (see _FIXED_ARITY), while
# seeds and lambda_factors take any number of values, with no repeats.
# `caches` names the caches a field feeds: changing it re-renders the
# corpus (_DATA), retrains the frozen teacher (_TEACH), both, or neither.
# The cache hashes digest their fields in this order, so moving a field or
# changing its scope orphans every cached corpus and teacher.
_DATA, _TEACH, _BOTH = ("dataset",), ("teacher",), ("dataset", "teacher")
DEFAULTS = (
    # corpus
    ("n_train", 256, _BOTH),
    ("n_val", 64, _BOTH),
    ("road_count", (1, 2), _BOTH),
    ("lane_count", (2, 4), _BOTH),
    ("curvature", 0.025, _BOTH),
    ("crossing_probability", 0.9, _BOTH),
    ("occluder_count", (2, 5), _BOTH),
    ("occluder_size", (1.0, 3.0), _BOTH),
    # rig
    ("cameras", 4, _DATA),
    ("cam_height", 1.6, _DATA),
    ("cam_pitch", 0.12, _DATA),
    ("cam_focal", 48.0, _DATA),
    ("image_width", 96, _DATA),
    ("image_height", 64, _DATA),
    # BEV grid the models run on (evaluation always scores both RoIs)
    ("roi", "extended", _BOTH),
    ("grid_rows", 24, _BOTH),
    ("grid_cols", 48, _BOTH),
    # encoder sizes
    ("c_feat", 16, _TEACH),
    ("teacher_widths", (12, 16, 24), _TEACH),
    ("student_width", 12, ()),
    ("downsample", 2, ()),
    ("n_queries", 12, _TEACH),
    ("n_points", 8, _TEACH),
    ("decoder_hidden", 8, _TEACH),
    # supervision
    ("variant", "norm_adapter", ()),
    ("lambda_bev", 1.0, ()),
    # optimization
    ("steps", 2000, ()),
    ("batch", 4, _TEACH),
    ("base_lr", 4e-3, _TEACH),
    ("min_lr", 1e-5, _TEACH),
    ("weight_decay", 1e-4, _TEACH),
    ("reg_weight", 0.05, _TEACH),
    ("teacher_steps", 2500, _TEACH),
    ("teacher_seed", 0, _TEACH),
    # study layout
    ("seed", 1, ()),
    ("seeds", (1, 2, 3), ()),
    ("lambda_factors", (0.0, 0.25, 0.5, 1.0, 2.0, 4.0), ()),
)

_DEFAULTS = {name: default for name, default, _ in DEFAULTS}


# tuple keys where the element count is part of the meaning (ranges and
# fixed pipeline depths); everything else (seeds, lambda_factors) is a list
# of distinct values
_FIXED_ARITY = ("road_count", "lane_count", "occluder_count", "occluder_size",
                "teacher_widths")


# the bound each numeric field must meet before any work starts; numpy
# seeds its generators from non-negative integers only
_BOUNDS = (
    ("positive", lambda v: v > 0,
     "n_train n_val cameras cam_height cam_focal image_width image_height c_feat "
     "teacher_widths student_width n_queries decoder_hidden steps batch base_lr "
     "teacher_steps"),
    ("at least 2", lambda v: v >= 2, "n_points"),
    ("nonnegative", lambda v: v >= 0,
     "curvature lambda_bev min_lr weight_decay reg_weight seed teacher_seed seeds "
     "lambda_factors"),
    ("within [0, 1]", lambda v: 0 <= v <= 1, "crossing_probability"),
)


def _values(value):
    return value if isinstance(value, tuple) else (value,)


def _parse_one(name, default, text):
    if isinstance(default, tuple):
        parts = text.split()
        if not parts:
            raise ConfigError(f"{name}: expected at least one value")
        if name in _FIXED_ARITY and len(parts) != len(default):
            raise ConfigError(f"{name}: expected {len(default)} values, "
                              f"got {len(parts)}")
        kind = type(default[0])
    else:
        parts, kind = [text], type(default)
    try:
        values = tuple(kind(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{name}: expected {kind.__name__}, got {text!r}") from None
    return values if isinstance(default, tuple) else values[0]


def _format_one(value):
    if isinstance(value, tuple):
        return " ".join(repr(v) if isinstance(v, float) else str(v)
                        for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


class RunConfig:
    """Typed view over the key-value table; unknown keys are errors."""

    def __init__(self, overrides=None):
        for name, default in _DEFAULTS.items():
            setattr(self, name, default)
        for name, value in (overrides or {}).items():
            if name not in _DEFAULTS:
                raise ConfigError(f"unknown config key {name!r}")
            setattr(self, name, value)
        self.validate()

    def validate(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.roi not in ("standard", "extended"):
            raise ConfigError(f"unknown roi {self.roi!r}")
        for name in _DEFAULTS:
            value = getattr(self, name)
            if any(isinstance(v, float) and not math.isfinite(v) for v in _values(value)):
                raise ConfigError(f"{name} must be finite, got {_format_one(value)}")
        for rule, holds, names in _BOUNDS:
            for name in names.split():
                value = getattr(self, name)
                if not all(map(holds, _values(value))):
                    raise ConfigError(f"{name} must be {rule}, got {_format_one(value)}")
        for name in ("seeds", "lambda_factors"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name}: expected at least one value")
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"{name}: repeated values "
                                  f"{_format_one(tuple(repeated))}")
        if self.downsample not in (2, 4):
            raise ConfigError(f"downsample must be 2 or 4, got {self.downsample}")
        if self.image_width % self.downsample or self.image_height % self.downsample:
            raise ConfigError("image size must divide by the downsample")
        if self.grid_rows % 8 or self.grid_cols % 8 or self.grid_rows < 8 or self.grid_cols < 8:
            # the teacher U-Net pools three times
            raise ConfigError(f"grid {self.grid_rows}x{self.grid_cols}: rows and cols "
                              "must be positive multiples of 8")
        for name, low in (("road_count", 1), ("lane_count", 1), ("occluder_count", 0),
                          ("occluder_size", 0.0)):
            lo, hi = getattr(self, name)
            if lo < low or lo > hi:
                raise ConfigError(f"{name}: range {lo} {hi} must be ordered and start at >= {low}")
        ext = extended_grid()  # both edges of every road run partly inside it
        diagonal = math.hypot(ext.x_max - ext.x_min, ext.y_max - ext.y_min)
        if self.lane_count[1] * LANE_WIDTH >= diagonal:
            raise ConfigError(f"lane_count: {self.lane_count[1]} lanes of {LANE_WIDTH} m reach the "
                              f"extended RoI's {diagonal:.1f} m diagonal, so no road fits")

    # -- file round trip ----------------------------------------------------

    def dump(self) -> str:
        lines = [f"{name} {_format_one(getattr(self, name))}"
                 for name in _DEFAULTS]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text):
        """Config from `key value` lines; whitespace of any kind separates
        the key from its value, and errors in a line name its number."""
        overrides = {}
        for ln, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            name, *rest = line.split(None, 1)
            if name not in _DEFAULTS:
                raise ConfigError(f"line {ln}: unknown config key {name!r}")
            if name in overrides:
                raise ConfigError(f"line {ln}: duplicate key {name!r}")
            try:
                overrides[name] = _parse_one(name, _DEFAULTS[name], "".join(rest))
            except ConfigError as e:
                raise ConfigError(f"line {ln}: {e}") from None
        return cls(overrides)

    @classmethod
    def load(cls, path):
        """``parse`` of a UTF-8 file; every error names the file."""
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 text (byte {e.start})") from None
        try:
            return cls.parse(text)
        except ConfigError as e:
            raise ConfigError(f"{path}: {e}") from None

    def with_overrides(self, **kw):
        """New config with the given fields replaced."""
        values = {name: getattr(self, name) for name in _DEFAULTS}
        values.update(kw)
        return RunConfig(values)

    # -- derived objects ----------------------------------------------------

    def rig(self):
        return default_rig(self.cam_height, self.cam_pitch, self.cam_focal,
                           self.image_width, self.image_height, self.cameras)

    def grid(self) -> BevGrid:
        make = standard_grid if self.roi == "standard" else extended_grid
        return make(self.grid_rows, self.grid_cols)

    # -- models: each draws its initial weights from rng --------------------

    def teacher(self, rng) -> TeacherEncoder:
        return TeacherEncoder(rng, c_feat=self.c_feat, widths=self.teacher_widths)

    def student(self, rng) -> StudentEncoder:
        return StudentEncoder(rng, c_feat=self.c_feat, width=self.student_width,
                              downsample=self.downsample)

    def decoder(self, rng) -> MapDecoder:
        return MapDecoder(rng, self.grid(), c_in=self.c_feat, n_queries=self.n_queries,
                          n_points=self.n_points, hidden=self.decoder_hidden)

    def adapter(self) -> MixAdapter:
        """The identity channel mix that only the norm_adapter arm trains."""
        return MixAdapter(self.c_feat)

    # -- cache keys ----------------------------------------------------------

    def _digest(self, cache=None) -> str:
        """Hash of the fields that feed ``cache``, or of every field."""
        h = hashlib.sha256()
        for name, _, caches in DEFAULTS:
            if cache is None or cache in caches:
                h.update(f"{name} {_format_one(getattr(self, name))}\n".encode())
        return h.hexdigest()[:16]

    def config_hash(self) -> str:
        return self._digest()

    def teacher_hash(self) -> str:
        return self._digest("teacher")

    def dataset_hash(self) -> str:
        return self._digest("dataset")
