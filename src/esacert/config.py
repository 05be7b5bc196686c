"""Engine configuration: precision ladder, sector cutoff, series budgets.

An optional config file (simple ``key = value`` lines, ``#`` comments,
comma-separated lists) can override the defaults; its path is taken from
the ESACERT_CONFIG environment variable or passed explicitly.  Command-line
flags override the file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

ENV_VAR = "ESACERT_CONFIG"

DEFAULT_LADDER = (128, 256, 512, 1024, 2048, 4096)


@dataclass(frozen=True)
class EngineConfig:
    precision_ladder: tuple = DEFAULT_LADDER
    l_max: int = 50
    series_max_terms: int = 10 ** 6
    conjecture_m_cap: int = 12

    @property
    def precision_start(self) -> int:
        """First rung of the ladder: the starting precision of the trajectory
        root disks (`figure`) and the working precision of the basis
        exponents (`basis`).  No other rung is read."""
        return self.precision_ladder[0]


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key == "precision_ladder":
        return tuple(int(x.strip()) for x in raw.split(",") if x.strip())
    return int(raw)


def load_config(path: Optional[str] = None) -> EngineConfig:
    """Defaults, overlaid with the config file if one is present."""
    cfg = EngineConfig()
    if path is None:
        path = os.environ.get(ENV_VAR)
    if not path:
        return cfg
    text = Path(path).read_text()
    overrides = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in {"precision_ladder", "l_max", "series_max_terms",
                       "conjecture_m_cap"}:
            raise ValueError(f"unknown config key: {key!r}")
        overrides[key] = _parse_value(key, raw)
    return replace(cfg, **overrides)
