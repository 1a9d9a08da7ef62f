"""JSON schemas for job inputs.

Distribution files describe a triplet; kernel files describe one of the
built-in integrands.  Infinite interval endpoints are spelled "inf"/"-inf".
"""

SCHEMA_VERSION = "1"

DISTRIBUTION_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "idcalc distribution (Levy-Khintchine triplet)",
    "type": "object",
    "required": ["dim", "gamma", "nu"],
    "properties": {
        "schema_version": {"type": "string"},
        "dim": {"type": "integer", "minimum": 1},
        "A": {
            "oneOf": [
                {"type": "number", "minimum": 0},
                {"type": "array", "items": {"type": "array",
                                            "items": {"type": "number"}}},
            ]
        },
        "gamma": {"type": "array", "items": {"type": "number"}},
        "nu": {"$ref": "#/$defs/measure"},
    },
    "$defs": {
        "direction": {
            "type": "object",
            "required": ["xi", "weight"],
            "properties": {
                "xi": {"type": "array", "items": {"type": "number"}},
                "weight": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "measure": {
            "type": "object",
            "required": ["type"],
            "properties": {"type": {"enum": [
                "zero", "atomic", "stable", "gamma",
                "compound_poisson_empirical", "sum"]}},
            "allOf": [
                {"if": {"properties": {"type": {"const": "atomic"}}},
                 "then": {"required": ["atoms"], "properties": {"atoms": {
                     "type": "array", "items": {
                         "type": "object", "required": ["x", "mass"],
                         "properties": {
                             "x": {"type": "array",
                                   "items": {"type": "number"}},
                             "mass": {"type": "number",
                                      "exclusiveMinimum": 0}}}}}}},
                {"if": {"properties": {"type": {"const": "stable"}}},
                 "then": {"required": ["alpha", "directions"], "properties": {
                     "alpha": {"type": "number", "exclusiveMinimum": 0,
                               "exclusiveMaximum": 2},
                     "directions": {"type": "array",
                                    "items": {"$ref": "#/$defs/direction"}}}}},
                {"if": {"properties": {"type": {"const": "gamma"}}},
                 "then": {"required": ["shape", "rate", "direction"],
                          "properties": {
                              "shape": {"type": "number", "exclusiveMinimum": 0},
                              "rate": {"type": "number", "exclusiveMinimum": 0},
                              "direction": {"type": "array",
                                            "items": {"type": "number"}}}}},
                {"if": {"properties": {"type": {
                    "const": "compound_poisson_empirical"}}},
                 "then": {"required": ["jumps"], "properties": {
                     "rate": {"type": "number", "exclusiveMinimum": 0},
                     "jumps": {"type": "array", "items": {
                         "type": "array", "items": {"type": "number"}}}}}},
                {"if": {"properties": {"type": {"const": "sum"}}},
                 "then": {"required": ["parts"], "properties": {
                     "parts": {"type": "array",
                               "items": {"$ref": "#/$defs/measure"}}}}},
            ],
        },
    },
}

KERNEL_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "idcalc kernel",
    "type": "object",
    "required": ["type"],
    "properties": {
        "schema_version": {"type": "string"},
        "type": {"enum": ["exp", "log_inv", "power", "power_at_zero",
                          "double_exp", "log_power", "sinc", "indicator",
                          "from_tau"]},
        "rate": {"type": "number", "exclusiveMinimum": 0},
        "alpha": {"type": "number", "exclusiveMinimum": 0},
        "exponent": {"type": "number", "exclusiveMinimum": 0},
        "beta": {"type": "number"},
        "at_zero": {"type": "boolean"},
        "height": {"type": "number"},
        "b": {"type": "number", "exclusiveMinimum": 0},
        "interval": {"type": "array", "minItems": 2, "maxItems": 2,
                     "items": {"oneOf": [{"type": "number"},
                                         {"enum": ["inf", "-inf"]}]}},
        "tau": {
            "type": "object",
            "required": ["family"],
            "properties": {"family": {"enum": ["exponential", "gaussian",
                                               "atoms"]}},
            "allOf": [
                {"if": {"properties": {"family": {"const": "exponential"}}},
                 "then": {"properties": {
                     "rate": {"type": "number", "exclusiveMinimum": 0}}}},
                {"if": {"properties": {"family": {"const": "atoms"}}},
                 "then": {"required": ["atoms"], "properties": {"atoms": {
                     "type": "array", "minItems": 1, "items": {
                         "type": "object", "required": ["u", "mass"],
                         "properties": {
                             "u": {"type": "number"},
                             "mass": {"type": "number",
                                      "exclusiveMinimum": 0}}}}}}},
            ],
        },
    },
}

JOB_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "idcalc report",
    "type": "object",
    "required": ["schema_version", "command", "status", "results"],
    "properties": {
        "schema_version": {"type": "string"},
        "command": {"type": "string"},
        "status": {"enum": ["completed", "inconclusive", "error"]},
        "inputs": {"type": "object"},
        "results": {"type": "object"},
        "generated_at": {"type": "string"},
    },
}
