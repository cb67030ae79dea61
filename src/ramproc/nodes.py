"""Frozen value classes.  `node` builds every immutable value class of the
package but `MemState`: terms, descriptors, programs and measure records.
A node hashes its compared fields when it is built, not at its first
`hash()`, so they must be hashable then (tuples, frozensets, functions; a
list raises `TypeError`).  Nodes do not pickle or copy.
"""


def node(cls):
    """Build the slotted, frozen node class that `cls` declares by
    annotations, in argument order.  A hidden field (named `_...`) is no
    argument, neither compared nor shown, and starts at its declared default
    (None if none).  Argument fields named in `cls.uncompared` are not compared.

    The generated `__init__` stores the fields, runs the class's check (its
    `__post_init__`, if any) and keeps `hash((cls, *compared fields))` in a
    hidden `_hash` slot: one frame per node, two with a check.  States embed
    whole specs, so hashing afresh on every lookup would cost the term's
    size; children are hashed before their parent, so each hash reads kept
    hashes one level down and any depth hashes without recursion.  The
    generated `__eq__` compares the compared fields as one tuple, falling
    back to `_deep_eq` on a stack overflow.  It does not check the kept
    hash first: dict and set lookups have matched it before they compare.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    shown = tuple(n for n in names if not n.startswith("_"))
    compared = tuple(n for n in shown if n not in cls.__dict__.get("uncompared", ()))
    ns = {k: v for k, v in cls.__dict__.items() if k not in names + ("__dict__", "__weakref__")}
    ns.update(__slots__=names + ("_hash",), __match_args__=shown, _compared=compared,
              __hash__=_kept_hash, __repr__=_node_repr, __setattr__=_frozen, __delattr__=_frozen)
    built = type(cls.__name__, cls.__bases__, ns)
    code = {"_node_cls": built, "_node_hash": hash, "_node_check": ns.get("__post_init__"),
            "_set_hash": built._hash.__set__, "_deep_eq": _deep_eq}
    params = ["self"] + [n if n not in cls.__dict__ else "%s=_default_%s" % (n, n) for n in shown]
    body = []
    for n in names:
        code["_set_" + n], code["_default_" + n] = getattr(built, n).__set__, cls.__dict__.get(n)
        body.append("_set_%s(self, %s)" % (n, n if n in shown else "_default_" + n))
    if code["_node_check"] is not None:
        body.append("_node_check(self)")
    body.append("_set_hash(self, _node_hash((_node_cls, %s)))" % "".join(n + ", " for n in compared))
    mine, theirs = ("".join("%s.%s, " % (obj, n) for n in compared) for obj in ("self", "other"))
    exec("def __init__(%s):\n    %s\n" % (", ".join(params), "\n    ".join(body))
         + "def __eq__(self, other):\n"
         "    if other.__class__ is not self.__class__:\n        return NotImplemented\n"
         "    try:\n        return (%s) == (%s)\n"
         "    except RecursionError:\n        return _deep_eq(self, other)\n"
         % (mine, theirs), code)
    for name in ("__init__", "__eq__"):
        code[name].__qualname__ = "%s.%s" % (built.__qualname__, name)
        setattr(built, name, code[name])
    return built


def _kept_hash(self):
    return self._hash


def _node_repr(self):
    """`Cls(field=value, ...)` over the shown fields.  Nodes and the tuples
    that hold them are spelled out with an explicit stack, so any depth
    prints; other values print by `repr`."""
    out, todo = [], [(self,)]  # a str is text to emit, a 1-tuple a value
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        x = item[0]
        if hasattr(type(x), "_compared"):
            parts = ["%s(" % type(x).__qualname__]
            for k, n in enumerate(x.__match_args__):
                parts += ["%s%s=" % (", " if k else "", n), (getattr(x, n),)]
            todo += reversed(parts + [")"])
        elif type(x) is tuple:
            parts = ["("]
            for k, y in enumerate(x):
                parts += [", ", (y,)] if k else [(y,)]
            todo += reversed(parts + [",)" if len(x) == 1 else ")"])
        else:
            out.append(repr(x))
    return "".join(out)


def _frozen(self, name, *value):
    from dataclasses import FrozenInstanceError  # loaded only when a node is changed
    raise FrozenInstanceError("cannot %s field %r" % ("assign to" if value else "delete", name))


def _deep_eq(a, b):
    """`a == b` by the generated `__eq__`'s compares, walked with an
    explicit stack, so that terms of any depth compare.  A node pair whose
    kept hashes differ is unequal at once, which bounds the walk on unequal
    deep terms."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        cls = type(a)
        if cls is tuple and type(b) is tuple:
            if len(a) != len(b):
                return False
            todo.extend(zip(a, b))
        elif cls is type(b) and hasattr(cls, "_compared"):
            if a._hash != b._hash:
                return False
            todo.extend((getattr(a, n), getattr(b, n)) for n in cls._compared)
        elif not a == b:
            return False
    return True
