"""Validation of JSON documents against the packaged schemas.

The schemas in ``occert/schemas`` are the contract for spec files and
reports.  This module implements exactly the JSON Schema 2020-12
keywords they use (see ``KEYWORDS``), with the 2020-12 rules where Python
differs: ``bool`` is neither a number nor an integer, a float with an
integral value is an integer, ``items`` applies only past
``prefixItems``, and a comparison with NaN never fails.  The reported
error is picked by the usual relevance order, so messages read as they
always have: the shallowest path, then the last of sibling paths, then
the first in keyword order.  (That order's next rule, which prefers an
error whose instance misses its schema's ``type``, never decides here:
without composition keywords, all errors at one path come from one
schema.)  The schemas' enum and const values are strings and
``additionalProperties`` is always ``false``.
"""

from __future__ import annotations

import functools
import json
import numbers
import os

from .errors import SchemaError

KEYWORDS = frozenset({
    "type", "enum", "const", "required", "properties", "additionalProperties",
    "items", "prefixItems", "minItems", "maxItems", "minimum", "maximum",
    "exclusiveMinimum", "$schema", "$id", "title"})

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: ((isinstance(v, int) and not isinstance(v, bool))
                          or (isinstance(v, float) and v.is_integer())),
}


# the package data directory, shipped next to this module
_SCHEMA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "schemas")


@functools.cache                        # read once per process: do not modify the result
def load_schema(name: str) -> dict:
    with open(os.path.join(_SCHEMA_DIR, name)) as fh:
        return json.load(fh)


def validate(instance, schema: dict) -> None:
    """Raise ``SchemaError`` for the most relevant error, if any."""
    best = max(_errors(instance, schema, ()), default=None,
               key=lambda e: (-len(e[0]), e[0]))
    if best is not None:
        raise SchemaError(best[1], best[0])


def _errors(value, schema: dict, path: tuple):
    """(path, message) per error, in keyword order."""
    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    is_number = _TYPES["number"](value)
    for key, arg in schema.items():
        message = None
        if key == "type":
            types = [arg] if isinstance(arg, str) else arg
            if not any(_TYPES[t](value) for t in types):
                message = "%r is not of type %s" % (value, ", ".join(map(repr, types)))
        elif key == "enum":
            if value not in arg:
                message = "%r is not one of %r" % (value, arg)
        elif key == "const":
            if value != arg:
                message = "%r was expected" % (arg,)
        elif key == "required":
            for name in arg if is_object else ():
                if name not in value:
                    yield path, "%r is a required property" % (name,)
        elif key == "properties":
            for name, sub in arg.items() if is_object else ():
                if name in value:
                    yield from _errors(value[name], sub, path + (name,))
        elif key == "additionalProperties":
            known = schema.get("properties", {})
            extras = sorted((k for k in value if k not in known), key=str) \
                if is_object and arg is False else []
            if extras:
                message = ("Additional properties are not allowed (%s %s unexpected)"
                           % (", ".join(map(repr, extras)),
                              "was" if len(extras) == 1 else "were"))
        elif key == "items":
            start = len(schema.get("prefixItems", ()))
            for i in range(start, len(value) if is_array else 0):
                yield from _errors(value[i], arg, path + (i,))
        elif key == "prefixItems":
            for i, (item, sub) in enumerate(zip(value if is_array else (), arg)):
                yield from _errors(item, sub, path + (i,))
        elif key == "minItems":
            if is_array and len(value) < arg:
                message = "%r %s" % (value, "should be non-empty" if arg == 1
                                     else "is too short")
        elif key == "maxItems":
            if is_array and len(value) > arg:
                message = "%r %s" % (value, "is expected to be empty" if arg == 0
                                     else "is too long")
        elif key == "minimum":
            if is_number and value < arg:
                message = "%r is less than the minimum of %r" % (value, arg)
        elif key == "maximum":
            if is_number and value > arg:
                message = "%r is greater than the maximum of %r" % (value, arg)
        elif key == "exclusiveMinimum":
            if is_number and value <= arg:
                message = ("%r is less than or equal to the minimum of %r"
                           % (value, arg))
        elif key not in KEYWORDS:
            raise NotImplementedError("schema keyword %r is not supported" % key)
        if message is not None:
            yield path, message
