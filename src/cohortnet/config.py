"""Run settings and their key=value file; the CLI applies flag > environment > file > default."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .errors import DataError, UsageError
from .io_formats import _lines, _text
from .model import (
    SymmetrizeRule,
    _check_bin_width,
    _check_thresholds,
    _checked_make,
)

OUT_DIR_ENV = "COHORTNET_OUT_DIR"


class _RunConfigFields(NamedTuple):
    high_t: float = 70.0
    low_t: float = 60.0
    k_max: int = 15
    bin_width: int = 5
    min_group: int = 1
    max_group: int = 18
    keep_low_subgroups: bool = True
    symmetrize: SymmetrizeRule = SymmetrizeRule.UNION
    out_dir: Path = Path("out")


class RunConfig(_RunConfigFields):
    __slots__ = ()
    _make = _checked_make

    def __new__(cls, *args: object, **kwargs: object) -> RunConfig:
        self = super().__new__(cls, *args, **kwargs)
        _check_thresholds(self.high_t, self.low_t)
        if self.k_max < 2:
            raise UsageError(f"k_max must be >= 2, got {self.k_max}")
        _check_bin_width(self.bin_width)
        if not 1 <= self.min_group <= self.max_group:
            raise UsageError(
                f"need 1 <= min_group <= max_group, got {self.min_group}..{self.max_group}"
            )
        return self


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# one parser per field, the type of its default (bool("false") would be True)
_PARSERS = {
    name: _parse_bool if isinstance(default, bool) else type(default)
    for name, default in RunConfig._field_defaults.items()
}


def load_config_file(path: Path) -> dict[str, object]:
    """Parse a plain `key=value` file; `#` lines and blanks are skipped.

    A file that is not UTF-8 is a DataError naming the path, line and byte offset.
    """
    try:
        text = _text(path.read_bytes())
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    values: dict[str, object] = {}
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _PARSERS[key](value.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values

