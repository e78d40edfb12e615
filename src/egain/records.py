"""Base for the package's records: named tuples, which cost little to define at import."""


class ByIdentity:
    """Put before a ``namedtuple`` base with array fields: compare and hash as ``object`` does."""

    __slots__ = ()  # records too, but for those with a cached_property: it caches in __dict__
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__
