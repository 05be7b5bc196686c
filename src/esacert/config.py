"""Engine configuration: sector cutoff and conjecture cap.

An optional config file (simple ``key = value`` lines, ``#`` comments) can
override the defaults; its path is taken from the ESACERT_CONFIG
environment variable or passed explicitly.  Command-line flags override
the file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

ENV_VAR = "ESACERT_CONFIG"


@dataclass(frozen=True)
class EngineConfig:
    l_max: int = 50
    conjecture_m_cap: int = 12


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
        if key not in {"l_max", "conjecture_m_cap"}:
            raise ValueError(f"unknown config key: {key!r}")
        overrides[key] = int(raw.strip())
    return replace(cfg, **overrides)
