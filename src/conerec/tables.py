"""One table reader for every outside JSON input: the config blocks of the
command front end and the conedata-v1 descriptor.

Each block has one table mapping every accepted key to a _Key:
check(value, name) returns the checked value or raises ConfigError naming
the key.  An absent key takes its default, checked like a given value; a
default of None leaves the key out, so the callee's own default holds,
and _REQUIRED makes the key mandatory.

The module imports no numpy, so the command front end can pin the BLAS
thread count before numpy loads.
"""

import math
from collections import namedtuple

from .errors import ConfigError

_REQUIRED = object()

_Key = namedtuple("_Key", "check default", defaults=[None])


def _nulled(node, where, found):
    """node with each non-finite float replaced by None; found gets (path, value)."""
    if isinstance(node, float) and not math.isfinite(node):
        found.append((where, node))
        return None
    if isinstance(node, dict):
        return {k: _nulled(v, f"{where}.{k}", found) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_nulled(v, f"{where}[{i}]", found) for i, v in enumerate(node)]
    return node


def _finite_json(doc, where):
    """doc, refused naming the first NaN, Infinity or overflowing literal
    (such as 1e999) that Python's JSON parser lets through."""
    found = []
    _nulled(doc, where, found)
    if found:
        raise ConfigError(f"{found[0][0]} is {found[0][1]!r}; NaN and Infinity "
                          "are not valid JSON numbers")
    return doc


def _known(cfg, keys, what):
    """Require a JSON object holding only the given keys: a misspelled key
    would otherwise be ignored and its default used without a word."""
    extra = set(_as_object(cfg, what)) - set(keys)
    if extra:
        raise ConfigError(f"unknown {what} keys {sorted(extra)}")


def _read(cfg, table, where, prefix=""):
    """The checked values of the block `where`: unknown keys first, then
    required keys, then each check in table order."""
    _known(cfg, table, where)
    for key, entry in table.items():
        if entry.default is _REQUIRED and key not in cfg:
            raise ConfigError(f"{where} needs {key!r}")
    return {key: entry.check(cfg.get(key, entry.default), prefix + key)
            for key, entry in table.items() if key in cfg or entry.default is not None}


def _check(ok, must, convert=None):
    """Check raising "<name> must be <must>" unless ok(value)."""
    def check(v, what):
        if not ok(v):
            raise ConfigError(f"{what} must be {must}, got {v!r}")
        return v if convert is None else convert(v)
    return check


def _list_of(check, non_empty=False, most=None):
    """Check of a list, of at most `most` entries when given, whose
    entries, named what[i], each pass check."""
    def read(v, what):
        _as_list(v, what)
        if most is not None and len(v) > most:
            raise ConfigError(f"{what} must hold at most {most} entries, got {len(v)}")
        items = [check(x, f"{what}[{i}]") for i, x in enumerate(v)]
        if non_empty and not items:
            raise ConfigError(f"{what} must be non-empty")
        return items
    return read


def _optional(check):
    """check, with null standing for an absent key."""
    return lambda v, what: None if v is None else check(v, what)


def _number(v):
    return not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)


def _count(most=None, json_int=False):
    """Check of a whole number from 1 to `most` (no bound when None);
    json_int refuses a float such as 12.0 as well."""
    def ok(v):
        whole = type(v) is int if json_int else _number(v) and v == int(v)
        return whole and 1 <= v and (most is None or v <= most)
    return _check(ok, "a positive integer" + ("" if most is None else f" at most {most}"),
                  int)


def _literal(want):
    """Check of the one value `want` (never a boolean)."""
    return _check(lambda v: not isinstance(v, bool) and v == want, repr(want))


_as_object = _check(lambda v: isinstance(v, dict), "a JSON object")
_as_list = _check(lambda v: isinstance(v, list), "a list")
_as_path = _check(lambda v: isinstance(v, str), "a path string")
_as_bool = _check(lambda v: isinstance(v, bool), "true or false")
_as_kind = _check(lambda v: v in ("spin", "dirac"), "'spin' or 'dirac'")
_as_finite = _check(_number, "a finite number", float)
_as_positive = _check(lambda v: _number(v) and v > 0, "a positive number", float)
