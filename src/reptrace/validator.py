"""A compiled checker for the JSON Schema subset the shipped schemas use.

``compile_schema`` turns a schema into nested closures once; the returned
check raises ``Violation`` at the first error it meets. It follows JSON
Schema's meanings: a bool is not a number, an integral float such as
``3.0`` is an integer, and in ``const``/``enum`` ``1 == 1.0`` but
``True != 1``. Unlike jsonschema, it takes no non-finite float for a
number, since JSON has none. An error is reported where the keyword that
failed applies, so ``required``, ``additionalProperties``,
``propertyNames`` and ``oneOf`` name the object or value they judge, not
a member of it.

Only the keywords in ``KEYWORDS`` are understood; any other keyword makes
``compile_schema`` raise, so a schema edit can never be skipped silently.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable

Check = Callable[[Any], None]

KEYWORDS = frozenset({
    "$schema", "$id", "title",  # annotations: they constrain nothing
    "type", "const", "enum", "minimum", "maximum", "exclusiveMinimum",
    "exclusiveMaximum", "minLength", "minItems", "maxItems", "minProperties",
    "required", "properties", "additionalProperties", "propertyNames", "items",
    "oneOf", "$ref", "$defs",
})

_DEFS_PREFIX = "#/$defs/"


class Violation(Exception):
    """A document breaks its schema; ``path`` leads from the root to the value."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message
        self._reversed_path: list = []

    @property
    def path(self) -> tuple:
        return tuple(reversed(self._reversed_path))


def _is_number(v) -> bool:
    # JSON has no infinite or NaN numbers, but ``json.loads`` turns a
    # literal that overflows, such as ``1e400``, into ``inf``.
    if isinstance(v, float):
        return math.isfinite(v)
    return isinstance(v, int) and not isinstance(v, bool)


def _is_integer(v) -> bool:
    if isinstance(v, float):
        return v.is_integer()
    return isinstance(v, int) and not isinstance(v, bool)


_TYPES = {
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": _is_number,
    "integer": _is_integer,
}

#: keyword: (the values it applies to, what it measures, the test, the message)
_LIMITS = {
    "minimum": (_is_number, None, operator.ge, "less than the minimum of"),
    "maximum": (_is_number, None, operator.le, "greater than the maximum of"),
    "exclusiveMinimum": (_is_number, None, operator.gt, "less than or equal to the minimum of"),
    "exclusiveMaximum": (_is_number, None, operator.lt, "greater than or equal to the maximum of"),
    "minLength": (_TYPES["string"], len, operator.ge, "shorter than the minimum length of"),
    "minItems": (_TYPES["array"], len, operator.ge, "shorter than the minimum length of"),
    "maxItems": (_TYPES["array"], len, operator.le, "longer than the maximum length of"),
    "minProperties": (_TYPES["object"], len, operator.ge, "smaller than the minimum size of"),
}


def _json_equal(a, b) -> bool:
    """JSON equality: numbers compare by value, but a bool equals only a bool."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    return a == b


def _descend(check: Check, value, step) -> None:
    try:
        check(value)
    except Violation as exc:
        exc._reversed_path.append(step)
        raise


def compile_schema(schema: dict) -> Check:
    """Compile ``schema`` into a check; raise ValueError on an unsupported one."""
    defs = schema.get("$defs", {})
    compiled: dict[str, Check] = {}

    def ref(target: str) -> Check:
        name = target[len(_DEFS_PREFIX):]
        if not target.startswith(_DEFS_PREFIX) or name not in defs:
            raise ValueError(f"unsupported $ref {target!r}")
        return lambda v: compiled[name](v)

    def build(sub) -> Check:
        if not isinstance(sub, dict):
            raise ValueError(f"unsupported subschema {sub!r}")
        unknown = sub.keys() - KEYWORDS
        if unknown:
            raise ValueError(f"unsupported schema keyword(s) {sorted(unknown)}")
        checks = []
        if "$ref" in sub:
            checks.append(ref(sub["$ref"]))
        if "type" in sub:
            checks.append(_type(sub["type"]))
        if "const" in sub:
            const = sub["const"]
            checks.append(_enum([const], lambda v: f"{const!r} was expected"))
        if "enum" in sub:
            enum = sub["enum"]
            checks.append(_enum(enum, lambda v: f"{v!r} is not one of {enum!r}"))
        checks += [_limit(sub[k], *_LIMITS[k]) for k in _LIMITS if k in sub]
        if "items" in sub:
            checks.append(_items(build(sub["items"])))
        if sub.keys() & {"required", "properties", "additionalProperties", "propertyNames"}:
            checks.append(_object(sub, build))
        if "oneOf" in sub:
            checks.append(_one_of([build(s) for s in sub["oneOf"]]))
        if len(checks) == 1:
            return checks[0]

        def check_all(v):
            for check in checks:
                check(v)

        return check_all

    for name, sub in defs.items():
        compiled[name] = build(sub)
    return build(schema)


def _type(names) -> Check:
    names = [names] if isinstance(names, str) else list(names)
    if not set(names) <= _TYPES.keys():
        raise ValueError(f"unsupported type {names!r}")
    tests = [_TYPES[n] for n in names]
    expected = ", ".join(map(repr, names))

    def check(v):
        for test in tests:
            if test(v):
                return
        raise Violation(f"{v!r} is not of type {expected}")

    return check


def _enum(values: list, describe: Callable[[Any], str]) -> Check:
    def check(v):
        for value in values:
            if _json_equal(v, value):
                return
        raise Violation(describe(v))

    return check


def _limit(limit, applies, measure, holds, phrase: str) -> Check:
    def check(v):
        if applies(v) and not holds(v if measure is None else measure(v), limit):
            raise Violation(f"{v!r} is {phrase} {limit!r}")

    return check


def _items(check_item: Check) -> Check:
    def check(v):
        if isinstance(v, list):
            for index, item in enumerate(v):
                _descend(check_item, item, index)

    return check


def _object(sub: dict, build) -> Check:
    required = sub.get("required", ())
    props = {k: build(s) for k, s in sub.get("properties", {}).items()}
    extra = sub.get("additionalProperties", True)
    if isinstance(extra, dict):
        extra = build(extra)
    names = build(sub["propertyNames"]) if "propertyNames" in sub else None

    def check(v):
        if not isinstance(v, dict):
            return
        for key in required:
            if key not in v:
                raise Violation(f"{key!r} is a required property")
        if extra is False:
            unexpected = [k for k in v if k not in props]
            if unexpected:
                listed = ", ".join(map(repr, unexpected))
                raise Violation(f"additional properties are not allowed ({listed})")
        for key, value in v.items():
            if names is not None:
                names(key)
            inner = props.get(key, extra)
            if inner is not True:
                _descend(inner, value, key)

    return check


def _one_of(branches: list[Check]) -> Check:
    def check(v):
        matched = 0
        for branch in branches:
            try:
                branch(v)
            except Violation:
                continue
            matched += 1
        if matched != 1:
            quantity = "none" if matched == 0 else matched
            raise Violation(f"{v!r} is valid under {quantity} of the given schemas, not one")

    return check
