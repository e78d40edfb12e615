"""The records' base and the stack refusal: what the numpy modules share, itself free of numpy."""


class ByIdentity:
    """Put before a ``namedtuple`` base with array fields: compare and hash as ``object`` does."""

    __slots__ = ()  # records too, but for those with a cached_property: it caches in __dict__
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def _refuse(bad, error: type, message: str, *values, **constants) -> None:
    """Raise ``error`` for the first entry of a stack that ``bad`` flags, formatting into ``message``
    that entry of each of ``values``, an array or a list alike, and ``constants`` by name; a single
    flag, a bool or 0-d, formats ``values`` whole. With no flag set it returns at once, unformatted."""
    if not getattr(bad, "ndim", 0):
        if bad:
            raise error(message.format(*values, **constants))
    elif bad.any():
        i = int(bad.argmax())
        raise error(message.format(*(v[i] for v in values), **constants))
