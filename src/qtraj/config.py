"""Flat key-value run configuration: parsing, validation, canonicalization.

Format: one `section.key = value` per line, `#` starts a comment, blank lines
ignored.  Validation is collected, not fail-fast: a bad config reports every
unknown key, duplicate, type error and unmet task prerequisite at once, each
with its line number.  There are no entropy defaults; run.base_seed is
mandatory so two runs of the same file can never differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .hilbert import (
    FockSpace,
    ModelSpec,
    build_kerr_oscillator,
    build_monitored_oscillator,
    build_thermal_oscillator,
    coherent_state,
    fock_state,
)

TASK_NAMES = (
    "master_oracle",
    "heisenberg_oracle",
    "duality",
    "ensemble",
    "equivalence",
    "ehrenfest",
    "regularity",
    "dissipativity",
    "stationary",
    "picard",
)

KINDS = ("linear", "nonlinear", "both")
BUILDERS = ("thermal", "kerr", "monitored")

# key -> (type tag, default); _REQUIRED means the key must appear,
# _BUILDER means required only for the matching model.builder.
_REQUIRED = object()
_BUILDER = object()

_SCHEMA: dict[str, tuple] = {
    "model.builder": ("choice:" + ",".join(BUILDERS), _REQUIRED),
    "model.dim": ("int", _REQUIRED),
    "model.rate": ("float", _BUILDER),
    "model.nu": ("float", _BUILDER),
    "model.p": ("int", 4),
    "model.beta1": ("float", 0.0),
    "model.beta2": ("float", 0.0),
    "model.beta3": ("float", 0.0),
    "model.alpha1": ("complex", 0.0),
    "model.alpha2": ("complex", 0.0),
    "model.alpha3": ("complex", 0.0),
    "model.alpha4": ("complex", 0.0),
    "model.alpha5": ("complex", 0.0),
    "model.alpha6": ("complex", 0.0),
    "model.mass": ("float", _BUILDER),
    "model.c": ("float", _BUILDER),
    "model.alpha": ("float", _BUILDER),
    "model.beta": ("float", _BUILDER),
    "run.kind": ("choice:" + ",".join(KINDS), "nonlinear"),
    "run.M": ("int", 256),
    "run.dt": ("float", 1e-3),
    "run.t_end": ("float", 1.0),
    "run.save_every": ("int", None),
    "run.base_seed": ("int", _REQUIRED),
    "run.initial": ("str", "fock:0"),
    "run.tasks": ("tasks", ("master_oracle",)),
    "stationary.burn_in": ("float", None),
    "stationary.window": ("float", 20.0),
    "stationary.stride": ("float", None),
    "stationary.M": ("int", None),
    "picard.n_iters": ("int", 8),
    "picard.t": ("float", None),
    "picard.quad_points": ("int", 129),
    "dissipativity.kind": ("choice:nonexplosion,affine", "affine"),
    "dissipativity.probes": ("int", 32),
    "output.dir": ("str", "out"),
}

# keys consumed only by specific builders; present-but-unused is an error
_BUILDER_KEYS = {
    "thermal": {"model.rate", "model.nu", "model.p"},
    "kerr": {
        "model.beta1",
        "model.beta2",
        "model.beta3",
        "model.alpha1",
        "model.alpha2",
        "model.alpha3",
        "model.alpha4",
        "model.alpha5",
        "model.alpha6",
        "model.p",
    },
    "monitored": {"model.mass", "model.c", "model.alpha", "model.beta"},
}
_BUILDER_REQUIRED = {
    "thermal": {"model.rate", "model.nu"},
    "kerr": set(),
    "monitored": {"model.mass", "model.c", "model.alpha", "model.beta"},
}


class ConfigError(ValueError):
    """All validation problems of one config, not just the first."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid config:\n  " + "\n  ".join(self.errors))


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description with every default resolved."""

    values: dict = field(repr=False)
    source_lines: dict = field(repr=False)

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def tasks(self) -> tuple:
        return self.values["run.tasks"]

    @property
    def builder(self) -> str:
        return self.values["model.builder"]

    def canonical_text(self) -> str:
        """Stable rendering of the resolved config, for hashing and records."""
        lines = []
        for key in sorted(self.values):
            val = self.values[key]
            if isinstance(val, tuple):
                rendered = ",".join(val)
            elif isinstance(val, float):
                rendered = format(val, ".17g")
            elif isinstance(val, complex):
                rendered = format(val.real, ".17g") + "+" + format(val.imag, ".17g") + "j"
            else:
                rendered = str(val)
            lines.append(f"{key} = {rendered}")
        return "\n".join(lines) + "\n"


def _convert(key: str, kind: str, raw: str, line_no: int, errors: list[str]):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "complex":
            return complex(raw.replace(" ", ""))
        if kind == "str":
            return raw
        if kind == "tasks":
            names = tuple(part.strip() for part in raw.split(",") if part.strip())
            bad = [n for n in names if n not in TASK_NAMES]
            if bad:
                errors.append(
                    f"line {line_no}: unknown task(s) {bad} for {key}; "
                    f"valid tasks: {', '.join(TASK_NAMES)}"
                )
                return None
            if len(set(names)) != len(names):
                errors.append(f"line {line_no}: duplicate task names in {key}")
                return None
            return names
        if kind.startswith("choice:"):
            choices = kind.split(":", 1)[1].split(",")
            if raw not in choices:
                errors.append(
                    f"line {line_no}: {key} must be one of {choices}, got {raw!r}"
                )
                return None
            return raw
    except ValueError:
        errors.append(f"line {line_no}: cannot parse {key} value {raw!r} as {kind}")
        return None
    raise AssertionError(f"unhandled schema kind {kind}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing every problem found."""
    errors: list[str] = []
    values: dict = {}
    source_lines: dict = {}

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {line_no}: expected 'section.key = value', got {raw_line!r}")
            continue
        key, _, raw_val = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            errors.append(f"line {line_no}: unknown key {key!r}")
            continue
        if key in values:
            errors.append(
                f"line {line_no}: duplicate key {key!r} (first set on line {source_lines[key]})"
            )
            continue
        kind = _SCHEMA[key][0]
        val = _convert(key, kind, raw_val, line_no, errors)
        if val is not None:
            values[key] = val
            source_lines[key] = line_no

    builder = values.get("model.builder")
    for key, (kind, default) in _SCHEMA.items():
        if key in values:
            continue
        if default is _REQUIRED:
            errors.append(f"missing mandatory key {key!r}")
        elif default is _BUILDER:
            if builder is not None and key in _BUILDER_REQUIRED.get(builder, set()):
                errors.append(f"missing key {key!r} required by model.builder={builder}")
        else:
            values[key] = default

    if builder is not None:
        allowed = _BUILDER_KEYS[builder]
        for key in source_lines:
            if key.startswith("model.") and key not in ("model.builder", "model.dim"):
                if key not in allowed:
                    errors.append(
                        f"line {source_lines[key]}: {key} is not used by "
                        f"model.builder={builder}"
                    )

    _validate_semantics(values, source_lines, errors)
    if errors:
        raise ConfigError(errors)
    return RunConfig(values=values, source_lines=source_lines)


def _validate_semantics(values: dict, source_lines: dict, errors: list[str]) -> None:
    def where(key):
        return f"line {source_lines[key]}: " if key in source_lines else ""

    dim = values.get("model.dim")
    if dim is not None and dim < 2:
        errors.append(f"{where('model.dim')}model.dim must be >= 2, got {dim}")
    for key in ("run.M", "stationary.M"):
        val = values.get(key)
        if val is not None and val < 1:
            errors.append(f"{where(key)}{key} must be >= 1")
    for key in ("run.dt", "run.t_end", "stationary.window"):
        val = values.get(key)
        if val is not None and val <= 0:
            errors.append(f"{where(key)}{key} must be positive")
    seed = values.get("run.base_seed")
    if seed is not None and seed < 0:
        errors.append(f"{where('run.base_seed')}run.base_seed must be nonnegative")

    initial = values.get("run.initial")
    if initial is not None:
        head, _, arg = initial.partition(":")
        if head == "fock":
            try:
                level = int(arg)
            except ValueError:
                level = -1
            if level < 0 or (dim is not None and level >= dim):
                errors.append(
                    f"{where('run.initial')}run.initial fock level must be in [0, dim)"
                )
        elif head == "coherent":
            try:
                complex(arg.replace(" ", ""))
            except ValueError:
                errors.append(
                    f"{where('run.initial')}run.initial coherent amplitude "
                    f"{arg!r} is not a complex number"
                )
        else:
            errors.append(
                f"{where('run.initial')}run.initial must be 'fock:<level>' or "
                f"'coherent:<amplitude>', got {initial!r}"
            )

    tasks = values.get("run.tasks", ())
    kind = values.get("run.kind")
    if tasks:
        if "equivalence" in tasks and kind != "both":
            errors.append(
                f"{where('run.tasks')}task 'equivalence' compares both unravelings "
                f"and needs run.kind = both (got {kind})"
            )
        if "stationary" in tasks and kind == "linear":
            errors.append(
                f"{where('run.tasks')}task 'stationary' averages the normalized "
                "unraveling and needs run.kind = nonlinear or both"
            )
        if "ehrenfest" in tasks and values.get("model.builder") != "monitored":
            errors.append(
                f"{where('run.tasks')}task 'ehrenfest' is defined for "
                "model.builder = monitored only"
            )


def build_model(config: RunConfig) -> ModelSpec:
    """Instantiate the configured model."""
    v = config.values
    space = FockSpace(v["model.dim"])
    builder = v["model.builder"]
    if builder == "thermal":
        return build_thermal_oscillator(space, v["model.rate"], v["model.nu"], p=v["model.p"])
    if builder == "kerr":
        return build_kerr_oscillator(
            space,
            v["model.beta1"],
            v["model.beta2"],
            v["model.beta3"],
            v["model.alpha1"],
            v["model.alpha2"],
            v["model.alpha3"],
            v["model.alpha4"],
            v["model.alpha5"],
            v["model.alpha6"],
            p=v["model.p"],
        )
    if builder == "monitored":
        return build_monitored_oscillator(
            space, v["model.mass"], v["model.c"], v["model.alpha"], v["model.beta"]
        )
    raise AssertionError(f"unreachable builder {builder}")


def initial_state(config: RunConfig, space: FockSpace):
    """The configured initial pure state as a vector."""
    head, _, arg = config.values["run.initial"].partition(":")
    if head == "fock":
        return fock_state(space, int(arg))
    return coherent_state(space, complex(arg.replace(" ", "")))
