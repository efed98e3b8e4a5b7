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
from .geometry import BevGrid, default_rig, extended_grid
from .mapeval import ROIS
from .scenegen import LANE_WIDTH
from .supervision import VARIANTS, MixAdapter


class ConfigError(RuntimeError):
    pass


# (name, default, caches, bound) rows; the default's python type pins the
# parser. Tuples parse as space-separated lists: _LISTS take any number of
# distinct values, every other tuple exactly as many as its default.
# `caches` names the caches a field feeds: changing it re-renders the
# corpus (_DATA), retrains the frozen teacher (_TEACH), both, or neither.
# The cache hashes digest their fields in this order, so moving a field or
# changing its scope orphans every cached corpus and teacher. `bound`
# names the _BOUNDS rule each of the field's values must meet before any
# work starts, or is None.
_DATA, _TEACH, _BOTH = ("dataset",), ("teacher",), ("dataset", "teacher")
DEFAULTS = (
    # corpus
    ("n_train", 256, _BOTH, "positive"),
    ("n_val", 64, _BOTH, "positive"),
    ("road_count", (1, 2), _BOTH, "positive"),
    ("lane_count", (2, 4), _BOTH, "positive"),
    ("curvature", 0.025, _BOTH, "nonnegative"),
    ("crossing_probability", 0.9, _BOTH, "within [0, 1]"),
    ("occluder_count", (2, 5), _BOTH, "nonnegative"),
    ("occluder_size", (1.0, 3.0), _BOTH, "nonnegative"),
    # rig
    ("cameras", 4, _DATA, "positive"),
    ("cam_height", 1.6, _DATA, "positive"),
    ("cam_pitch", 0.12, _DATA, None),
    ("cam_focal", 48.0, _DATA, "positive"),
    ("image_width", 96, _DATA, "positive"),
    ("image_height", 64, _DATA, "positive"),
    # BEV grid the models run on (evaluation always scores both RoIs)
    ("roi", "extended", _BOTH, None),
    ("grid_rows", 24, _BOTH, None),
    ("grid_cols", 48, _BOTH, None),
    # encoder sizes
    ("c_feat", 16, _TEACH, "positive"),
    ("teacher_widths", (12, 16, 24), _TEACH, "positive"),
    ("student_width", 12, (), "positive"),
    ("downsample", 2, (), "2 or 4"),
    ("n_queries", 12, _TEACH, "positive"),
    ("n_points", 8, _TEACH, "at least 2"),
    ("decoder_hidden", 8, _TEACH, "positive"),
    # supervision
    ("variant", "norm_adapter", (), None),
    ("lambda_bev", 1.0, (), "nonnegative"),
    # optimization
    ("steps", 2000, (), "positive"),
    ("batch", 4, _TEACH, "positive"),
    ("base_lr", 4e-3, _TEACH, "positive"),
    ("min_lr", 1e-5, _TEACH, "nonnegative"),
    ("weight_decay", 1e-4, _TEACH, "nonnegative"),
    ("reg_weight", 0.05, _TEACH, "nonnegative"),
    ("teacher_steps", 2500, _TEACH, "positive"),
    ("teacher_seed", 0, _TEACH, "nonnegative"),
    # study layout (numpy seeds its generators from nonnegative ints only)
    ("seed", 1, (), "nonnegative"),
    ("seeds", (1, 2, 3), (), "nonnegative"),
    ("lambda_factors", (0.0, 0.25, 0.5, 1.0, 2.0, 4.0), (), "nonnegative"),
)

_DEFAULTS = {name: default for name, default, _, _ in DEFAULTS}
_LISTS = ("seeds", "lambda_factors")
_BOUNDS = {
    "positive": lambda v: v > 0,
    "nonnegative": lambda v: v >= 0,
    "at least 2": lambda v: v >= 2,
    "within [0, 1]": lambda v: 0 <= v <= 1,
    "2 or 4": lambda v: v in (2, 4),
}


def _values(value):
    return value if isinstance(value, tuple) else (value,)


def _parse_one(name, default, text):
    if isinstance(default, tuple):
        parts = text.split()
        if not parts:
            raise ConfigError(f"{name}: expected at least one value")
        if name not in _LISTS and len(parts) != len(default):
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
        if self.roi not in ROIS:
            raise ConfigError(f"unknown roi {self.roi!r}")
        for name in _DEFAULTS:
            value = getattr(self, name)
            if any(isinstance(v, float) and not math.isfinite(v) for v in _values(value)):
                raise ConfigError(f"{name} must be finite, got {_format_one(value)}")
        for name, _, _, bound in DEFAULTS:
            value = getattr(self, name)
            if bound and not all(map(_BOUNDS[bound], _values(value))):
                raise ConfigError(f"{name} must be {bound}, got {_format_one(value)}")
        for name in _LISTS:
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name}: expected at least one value")
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"{name}: repeated values "
                                  f"{_format_one(tuple(repeated))}")
        if self.image_width % self.downsample or self.image_height % self.downsample:
            raise ConfigError("image size must divide by the downsample")
        if self.grid_rows % 8 or self.grid_cols % 8 or self.grid_rows < 8 or self.grid_cols < 8:
            # the teacher U-Net pools three times
            raise ConfigError(f"grid {self.grid_rows}x{self.grid_cols}: rows and cols "
                              "must be positive multiples of 8")
        for name in ("road_count", "lane_count", "occluder_count", "occluder_size"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ConfigError(f"{name}: range {lo} {hi} must be ordered")
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
        make_grid, _ = ROIS[self.roi]
        return make_grid(self.grid_rows, self.grid_cols)

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
        for name, _, caches, _ in DEFAULTS:
            if cache is None or cache in caches:
                h.update(f"{name} {_format_one(getattr(self, name))}\n".encode())
        return h.hexdigest()[:16]

    def config_hash(self) -> str:
        return self._digest()

    def teacher_hash(self) -> str:
        return self._digest("teacher")

    def dataset_hash(self) -> str:
        return self._digest("dataset")
