"""JSON schemas for the machine-readable CLI output.

Every numeric in a payload is either an exact rational string ("45",
"-3465/16") or carries an explicit enclosure (algebraic values ship their
defining polynomial plus an isolating interval; certified roots ship a disk
radius).  Timing never enters the payload, keeping repeated invocations
byte-identical.
"""

VALUE_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "type": {"const": "rational"},
                "value": {"type": "string"},
            },
            "required": ["type", "value"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "algebraic"},
                "defining": {"type": "array", "items": {"type": "string"}},
                "interval": {"type": "array", "items": {"type": "string"},
                             "minItems": 2, "maxItems": 2},
                "approx": {"type": "string"},
            },
            "required": ["type", "defining", "interval", "approx"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "infinity"},
                "sign": {"enum": [1, -1]},
            },
            "required": ["type", "sign"],
            "additionalProperties": False,
        },
    ]
}

ENVELOPE_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {"type": "array", "items": {"type": "string"}},
        "spec": {"type": "object"},
        "result": {"type": "object"},
        "certification": {
            "type": "object",
            "properties": {
                "l_max": {"type": ["integer", "null"]},
                "oracle_crosscheck": {"type": ["string", "null"]},
            },
        },
    },
    "required": ["command", "spec", "result", "certification"],
    "additionalProperties": False,
}

VERDICT_RESULT_SCHEMA = {
    "type": "object",
    "properties": {
        "spec": {"type": "object"},
        "verdict": {"enum": ["ESA", "NotESA"]},
        "count": {
            "type": "object",
            "properties": {
                "left": {"type": "integer"},
                "axis": {"type": "integer"},
                "right": {"type": "integer"},
                "exact": {"type": "boolean"},
            },
            "required": ["left", "axis", "right", "exact"],
        },
        "certificate": {"type": "object"},
    },
    "required": ["spec", "verdict", "count", "certificate"],
}

REGION_RESULT_SCHEMA = {
    "type": "object",
    "properties": {
        "m": {"type": "integer"},
        "n": {"type": "integer"},
        "l": {"type": "integer"},
        "certified_up_to_l": {"type": "integer"},
        "pieces": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {"lo": VALUE_SCHEMA, "hi": VALUE_SCHEMA},
                "required": ["lo", "hi"],
            },
        },
        "boundary_candidates": {"type": "array", "items": VALUE_SCHEMA},
        "warnings": {"type": "array", "items": {"type": "string"}},
        "oracle_checked": {"type": ["string", "null"]},
        "rendered": {"type": "string"},
    },
    "required": ["m", "n", "pieces", "rendered"],
}
