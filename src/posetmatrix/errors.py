"""Shared exception types, and the JSON-file reader that raises them."""

import json


class InvariantError(ValueError):
    """A structural invariant of an input object was violated.

    `invariant` names the violated rule so that loaders can produce a
    diagnostic pointing at the exact condition that failed.
    """

    def __init__(self, invariant: str, detail: str):
        self.invariant = invariant
        super().__init__(f"{invariant}: {detail}")


class CapExceeded(RuntimeError):
    """An instance is larger than a configured search cap allows."""


def json_int(value, what: str) -> int:
    """value, an integer input field; a float or a bool (which int() would
    silently truncate) raises InvariantError naming `what`."""
    if type(value) is not int:
        raise InvariantError(f"integer {what}", repr(value))
    return value


def load_json_file(path, what: str, build):
    """build(obj) on the JSON document in the file at path.  Bad JSON or
    UTF-8, and a TypeError while building (a field of the wrong type), raise
    InvariantError naming `what`; these and build's own ValueErrors (its
    InvariantErrors among them) keep their type and one line, with the path
    put first, so that a run over many files names the bad one."""
    try:
        with open(path) as fh:
            try:
                obj = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise InvariantError(f"{what} file is valid JSON", str(exc)) from exc
        try:
            return build(obj)
        except TypeError as exc:
            raise InvariantError(f"{what} file field types", str(exc)) from exc
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
