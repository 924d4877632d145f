"""The one way reports are written as JSON: `json_text`."""

from json.encoder import encode_basestring_ascii


def json_text(value, newline: str = "\n") -> str:
    """value as `json.dumps(value, sort_keys=True, indent=2)` writes it, for
    dicts with string keys, lists, strings, ints, booleans and None.

    The standard encoder's closures refer to themselves, so each dump would
    leave a reference cycle for the collector; this writer is one plain
    recursive function, and leaves none.  `newline` is the line break plus
    the indentation of the nesting level that value is written at.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items = (f"{encode_basestring_ascii(key)}: {json_text(value[key], inner)}" for key in sorted(value))
        return "{" + inner + ("," + inner).join(items) + newline + "}" if value else "{}"
    if isinstance(value, list):
        items = (json_text(item, inner) for item in value)
        return "[" + inner + ("," + inner).join(items) + newline + "]" if value else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
