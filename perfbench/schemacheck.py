"""Minimal JSON Schema (draft-07 subset) validator for the files in `schemas/`.

The benchmark is standard-library only, so it cannot use `jsonschema`.
This covers exactly the keywords the repository's schemas use and
refuses any other keyword, so a schema that grows past the subset fails
loudly instead of being half-checked.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

_IGNORED = {"$schema", "title", "description"}
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
}


class SchemaStore:
    """Loads schemas from one directory and resolves file-name `$ref`s."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self._cache = {}

    def load(self, name: str) -> dict:
        if name not in self._cache:
            self._cache[name] = json.loads((self.directory / name).read_text())
        return self._cache[name]

    def errors(self, name: str, value) -> list:
        """Every violation of schema file `name` by `value`, as messages."""
        out = []
        self._check(self.load(name), value, "$", out)
        return out

    def _check(self, schema, value, path, out):
        for key in schema:
            if key not in _IGNORED and key not in _KEYWORDS:
                raise ValueError(f"schema keyword {key!r} at {path} is not supported")
        if "$ref" in schema:
            self._check(self.load(schema["$ref"]), value, path, out)
        if "type" in schema:
            types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
            if not any(_TYPES[t](value) for t in types):
                out.append(f"{path}: expected {'/'.join(types)}, got {type(value).__name__}")
                return
        if "oneOf" in schema:
            matches = sum(1 for sub in schema["oneOf"] if not self._sub_errors(sub, value, path))
            if matches != 1:
                out.append(f"{path}: matches {matches} oneOf branches, expected 1")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if "minimum" in schema and value < schema["minimum"]:
                out.append(f"{path}: {value} < minimum {schema['minimum']}")
            if "maximum" in schema and value > schema["maximum"]:
                out.append(f"{path}: {value} > maximum {schema['maximum']}")
        if isinstance(value, list):
            if "minItems" in schema and len(value) < schema["minItems"]:
                out.append(f"{path}: {len(value)} items < minItems {schema['minItems']}")
            if "maxItems" in schema and len(value) > schema["maxItems"]:
                out.append(f"{path}: {len(value)} items > maxItems {schema['maxItems']}")
            if "items" in schema:
                for i, item in enumerate(value):
                    self._check(schema["items"], item, f"{path}[{i}]", out)
        if isinstance(value, dict):
            for key in schema.get("required", ()):
                if key not in value:
                    out.append(f"{path}: missing required {key!r}")
            props = schema.get("properties", {})
            patterns = schema.get("patternProperties", {})
            extra = schema.get("additionalProperties", True)
            for key, item in value.items():
                sub = f"{path}.{key}"
                matched = False
                if key in props:
                    matched = True
                    self._check(props[key], item, sub, out)
                for pattern, pschema in patterns.items():
                    if re.search(pattern, key):
                        matched = True
                        self._check(pschema, item, sub, out)
                if not matched:
                    if extra is False:
                        out.append(f"{path}: unexpected property {key!r}")
                    elif isinstance(extra, dict):
                        self._check(extra, item, sub, out)

    def _sub_errors(self, schema, value, path):
        out = []
        self._check(schema, value, path, out)
        return out


_KEYWORDS = {
    "$ref", "type", "oneOf", "minimum", "maximum", "minItems", "maxItems", "items",
    "required", "properties", "patternProperties", "additionalProperties",
}
