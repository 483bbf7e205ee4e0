"""One spec grammar, one kind-spec base, one registry: what an axis is made of.

Every sweepable axis of the toolkit -- fault models, preconditioners,
precisions, communicator backends, the campaign runner's own chaos --
speaks the same ``kind:key=value`` vocabulary and is indexed the same
way.  This module owns that vocabulary once, and imports nothing but
the standard library, so any layer may declare an axis without pulling
in another:

* the **grammar** -- :func:`parse_kind_params` / :func:`format_kind_params`
  for one ``KIND[:NAME=VALUE,...]`` token, :func:`split_composed` for
  ``"+"``-joined tokens, :func:`parse_spec_value` /
  :func:`format_spec_value` for the value forms;
* :class:`KindSpec` -- the frozen ``(kind, params)`` base every spec
  class extends with a kinds table and a value hook, and which owns
  ``"+"`` composition for the classes that declare it;
* :class:`Registry` -- the name-keyed index every registry extends with
  a noun, its listing columns and its builtin entries
  (:class:`RegisteredSpec` is the entry shape the spec-named axes share);
* :class:`Axis` -- one record per axis tying the three together, which
  is what ``campaign list``, the ``spec-strings`` lint in ``tests/`` and the
  axis contract test iterate (:func:`repro.axes.declared_axes`), and
  which resolves a value to a spec (:meth:`Axis.parse`).

String grammar (see CAMPAIGNS.md for the full manual)::

    SPEC      := SINGLE ( "+" SINGLE )*        # "+" composes (faults, chaos)
    SINGLE    := KIND [ ":" PARAM ("," PARAM)* ]
    PARAM     := NAME "=" VALUE
    VALUE     := int | float | bool | "none" | NAME
               | VALUE ".." VALUE               # inclusive range -> tuple
               | VALUE (";" VALUE)+ [";"]       # list -> tuple; a trailing
                                                # ";" marks a 1-element list

Parsing and formatting round-trip exactly (floats use ``repr``, kinds
are case-folded, parameters are sorted by name), so equal specs have
one string form -- which is what makes them usable as campaign
scenario-key material.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from functools import lru_cache
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    ClassVar,
    Collection,
    Dict,
    Generic,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

__all__ = [
    "parse_spec_value",
    "format_spec_value",
    "parse_kind_params",
    "format_kind_params",
    "split_composed",
    "COMPOSE_KIND",
    "KindSpec",
    "Registry",
    "RegisteredSpec",
    "Axis",
]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

# Composition separator: a "+" introducing the next spec's kind name.
# A kind always starts with a letter/underscore while a float
# exponent's "+" ("1e+16") is always followed by a digit, so the two
# never collide.
_COMPOSE_SPLIT = re.compile(r"\+(?=\s*[A-Za-z_])")

#: The kind of a ``"+"`` composition; a spec class whose ``KINDS``
#: lists it (with no parameters) composes.
COMPOSE_KIND = "compose"


# ----------------------------------------------------------------------
# Grammar
# ----------------------------------------------------------------------
def _parse_scalar(text: str) -> Any:
    """Parse one scalar token: int, float, bool, none, or bare name."""
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if _NAME_RE.match(text):
        return text
    raise ValueError(f"cannot parse spec value {text!r}")


def parse_spec_value(text: str) -> Any:
    """Parse a parameter value token of the spec-string grammar."""
    text = text.strip()
    if not text:
        raise ValueError("empty spec value")
    if ";" in text:
        parts = text.split(";")
        if parts[-1].strip() == "":
            # A trailing ";" marks a single-element list ("times=1.5;").
            parts = parts[:-1]
        if not parts or any(not part.strip() for part in parts):
            raise ValueError(f"malformed list value {text!r}")
        return tuple(_parse_scalar(part.strip()) for part in parts)
    if ".." in text:
        lo, _, hi = text.partition("..")
        return (_parse_scalar(lo.strip()), _parse_scalar(hi.strip()))
    return _parse_scalar(text)


def _format_scalar(value: Any) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # "1e+16" -> "1e16": parses identically, and keeps "+" free to
        # act as the composition separator (see _COMPOSE_SPLIT).
        return repr(value).replace("e+", "e")
    if isinstance(value, str):
        if not _NAME_RE.match(value):
            raise ValueError(
                f"string spec values must be bare names, got {value!r}"
            )
        return value
    raise TypeError(f"unsupported spec value type {type(value).__name__}")


def format_spec_value(value: Any) -> str:
    """Format a parameter value in the spec-string grammar."""
    if isinstance(value, (tuple, list)):
        if not value:
            raise ValueError("empty list spec values are unsupported")
        if len(value) == 1:
            # Trailing ";" keeps one-element lists round-trippable.
            return _format_scalar(value[0]) + ";"
        if len(value) == 2 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
        ):
            return f"{_format_scalar(value[0])}..{_format_scalar(value[1])}"
        return ";".join(_format_scalar(v) for v in value)
    return _format_scalar(value)


def _normalize_value(value: Any) -> Any:
    """Canonicalize a parameter value (lists -> tuples, numpy -> python)."""
    if isinstance(value, (list, tuple)):
        return tuple(_normalize_value(v) for v in value)
    if hasattr(value, "item") and type(value).__module__ == "numpy":
        return value.item()
    return value


def parse_kind_params(text: str, label: str = "spec") -> Tuple[str, Dict[str, Any]]:
    """Parse one ``KIND[:NAME=VALUE,...]`` token into ``(kind, params)``.

    ``label`` names the spec flavour in error messages.
    """
    kind, _, tail = text.partition(":")
    kind = kind.strip()
    if not kind:
        raise ValueError(f"malformed {label} string {text!r}")
    params: Dict[str, Any] = {}
    if tail.strip():
        for item in tail.split(","):
            name, sep, value = item.partition("=")
            if not sep:
                raise ValueError(
                    f"malformed parameter {item!r} in {label} {text!r}"
                )
            params[name.strip()] = parse_spec_value(value)
    return kind, params


def format_kind_params(kind: str, params: Mapping[str, Any]) -> str:
    """Format ``(kind, params)`` as one ``KIND[:NAME=VALUE,...]`` token.

    Inverse of :func:`parse_kind_params`.
    """
    if not params:
        return kind
    body = ",".join(
        f"{name}={format_spec_value(value)}" for name, value in params.items()
    )
    return f"{kind}:{body}"


def split_composed(text: str, label: str = "spec") -> List[str]:
    """Split a spec string on the ``+`` composition separator.

    Returns the non-empty single-spec tokens; raises on malformed
    strings (empty components).  :meth:`KindSpec.parse` calls it for
    the spec classes that compose (faults and chaos).
    """
    parts = [part.strip() for part in _COMPOSE_SPLIT.split(text)]
    if not parts or any(not part for part in parts):
        raise ValueError(f"malformed {label} string {text!r}")
    return parts


# ----------------------------------------------------------------------
# The kind-spec base
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KindSpec:
    """One declarative ``(kind, params)`` configuration of some axis.

    A subclass is a declaration: it names the axis (:attr:`NOUN`),
    lists its kinds with the parameter names each takes
    (:attr:`KINDS`), and validates parameter *values* in
    :meth:`_check_values`.  Everything else is shared -- construction
    case-folds the kind and checks it against the table, sorts and
    normalizes the parameters and checks their names, and the three
    wire forms round-trip:

    * **compact strings** -- ``"ssor:omega=1.2"`` -- what campaigns
      sweep and humans type;
    * **dicts** -- ``{"kind": "ssor", "params": {"omega": 1.2}}``, or
      the loose ``{"kind": "ssor", "omega": 1.2}`` -- what JSON stores;
    * **spec objects** -- what builders consume.

    A class whose ``KINDS`` lists :data:`COMPOSE_KIND` composes:
    ``"a:p=1+b:q=2"`` parses to a ``"compose"`` spec whose
    :attr:`children` are the parts, in the dict form ``{"kind":
    "compose", "children": [...]}``.

    Attributes
    ----------
    kind:
        The case-folded kind name.
    params:
        Parameters sorted by name (values are scalars or tuples of
        scalars), as a read-only view: a spec never changes after
        construction, so a parse may be cached; derive a changed spec
        with :meth:`with_params`.
    children:
        The composed specs of a ``"compose"`` spec; empty otherwise.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict, hash=False)
    children: Tuple["KindSpec", ...] = ()

    #: What the axis calls one of its things ("preconditioner").
    NOUN: ClassVar[str] = "spec"
    #: kind -> the parameter names it takes.
    KINDS: ClassVar[Mapping[str, Collection[str]]] = {}
    #: Wording of the unknown-parameter error; formatted with ``noun``,
    #: ``kind``, ``name`` (the first offender), ``names`` (all of them)
    #: and ``allowed``.
    PARAM_ERROR: ClassVar[str] = (
        "{noun} kind {kind!r} does not take parameter {name!r} (valid: {allowed})"
    )

    def __post_init__(self):
        kind = self.kind.lower() if isinstance(self.kind, str) else self.kind
        if kind not in self.KINDS:
            raise ValueError(
                f"unknown {self.NOUN} kind {self.kind!r} "
                f"(known: {sorted(self.KINDS)})"
            )
        allowed = self.KINDS[kind]
        params = {}
        for name in sorted(self.params):
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid parameter name {name!r}")
            if name not in allowed:
                raise ValueError(
                    self.PARAM_ERROR.format(
                        noun=self.NOUN, kind=kind, name=name,
                        names=sorted(set(self.params) - set(allowed)),
                        allowed=sorted(allowed),
                    )
                )
            params[name] = _normalize_value(self.params[name])
        children = tuple(self.children)
        if kind == COMPOSE_KIND and len(children) < 2:
            raise ValueError("compose specs need at least two children")
        if kind != COMPOSE_KIND and children:
            raise ValueError(f"only {COMPOSE_KIND!r} specs may have children")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "children", children)
        self._check_values(params)
        object.__setattr__(self, "params", MappingProxyType(params))

    def __reduce__(self):
        # A mappingproxy neither pickles nor deep-copies; rebuild from
        # the field values with a plain dict.
        values = (getattr(self, f.name) for f in fields(self))
        return (type(self), tuple(
            dict(value) if isinstance(value, MappingProxyType) else value for value in values
        ))

    def _check_values(self, params: Dict[str, Any]) -> None:
        """Axis hook: raise on bad parameter values (may canonicalize them).

        Runs with ``self.kind`` already case-folded and ``params`` the
        sorted, normalized, name-checked dict about to be stored.
        """

    @classmethod
    def _label(cls) -> str:
        return f"{cls.NOUN} spec"

    # -- parsing -------------------------------------------------------
    @classmethod
    def parse(cls, value):
        """Coerce a string, mapping or spec object into a spec object."""
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        if isinstance(value, str):
            label = cls._label()
            if COMPOSE_KIND not in cls.KINDS:
                return cls(*parse_kind_params(value, label))
            return cls.compose(*(
                cls(*parse_kind_params(part, label))
                for part in split_composed(value, label)
            ))
        raise TypeError(
            f"cannot parse a {cls._label()} from {type(value).__name__}"
        )

    @classmethod
    def compose(cls, *specs):
        """Compose several specs into one (``kind="compose"``).

        Nested compositions are flattened, so ``compose(a, compose(b,
        c))`` equals ``compose(a, b, c)``, and one spec composes to
        itself.
        """
        children = [part for spec in specs for part in cls.parse(spec).components]
        if len(children) == 1:
            return children[0]
        return cls(COMPOSE_KIND, {}, tuple(children))

    @property
    def components(self) -> Tuple["KindSpec", ...]:
        """The single specs this one stands for: its children, or itself."""
        return self.children or (self,)

    # -- serialization -------------------------------------------------
    def to_string(self) -> str:
        """Compact spec-string form; inverse of :meth:`parse`."""
        if self.children:
            return "+".join(child.to_string() for child in self.children)
        return format_kind_params(self.kind, self.params)

    def to_dict(self) -> dict:
        """JSON-compatible dict form; inverse of :meth:`from_dict`."""
        data: Dict[str, Any] = {"kind": self.kind}
        if self.params:
            data["params"] = {
                name: list(value) if isinstance(value, tuple) else value
                for name, value in self.params.items()
            }
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    @classmethod
    def from_dict(cls, data: Mapping):
        """Rebuild a spec from :meth:`to_dict` output (or a loose dict)."""
        if "kind" not in data:
            raise ValueError(f"{cls._label()} dicts need a 'kind' entry")
        keys = set(data)
        if "children" in keys and keys <= {"kind", "params", "children"}:
            children = tuple(map(cls.from_dict, data["children"]))
            return cls(str(data["kind"]), dict(data.get("params") or {}), children)
        if keys - {"kind", "params"}:
            # Loose form: {"kind": "ssor", "omega": 1.2}.
            return cls(str(data["kind"]), {k: data[k] for k in data if k != "kind"})
        return cls(str(data["kind"]), dict(data.get("params") or {}))

    # -- convenience ---------------------------------------------------
    def with_params(self, **overrides: Any):
        """Return a copy with ``overrides`` merged into the parameters.

        ``None`` overrides are dropped (they mean "keep the default"),
        so callers can forward optional driver arguments verbatim.  A
        composition has no parameters of its own to override.
        """
        if self.children:
            raise ValueError(
                "cannot override parameters of a compose spec; "
                "override its children instead"
            )
        merged = dict(self.params)
        merged.update({k: v for k, v in overrides.items() if v is not None})
        return type(self)(self.kind, merged)

    def get(self, name: str, default: Any = None) -> Any:
        """Parameter lookup with a default."""
        return self.params.get(name, default)

    def __str__(self) -> str:
        return self.to_string()


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
T = TypeVar("T")


class Registry(Generic[T]):
    """Name-keyed, case-insensitive index of one axis's entries.

    A subclass is a declaration: :attr:`NOUN` (error messages and the
    listing title), :attr:`COLUMNS` (the ``campaign list`` header; each
    entry renders its own ``row()``) and :attr:`builtin` (the entries a
    registry built without arguments starts with).
    """

    NOUN: ClassVar[str] = "entry"
    COLUMNS: ClassVar[Tuple[str, ...]] = ()
    builtin: ClassVar[Callable[[], Sequence]] = staticmethod(lambda: ())

    def __init__(self, entries: Optional[Sequence[T]] = None):
        self._by_name: Dict[str, T] = {}
        for entry in entries if entries is not None else self.builtin():
            self.add(entry)

    @classmethod
    def default(cls):
        """The process-wide registry of this axis's builtin entries."""
        if "_default" not in cls.__dict__:
            cls._default = cls()
        return cls._default

    def add(self, entry: T) -> None:
        key = entry.name.lower()
        if key in self._by_name:
            raise ValueError(f"duplicate {self.NOUN} name {key!r}")
        self._by_name[key] = entry

    def get(self, name: str) -> T:
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise KeyError(
                f"unknown {self.NOUN} {name!r} (known: {', '.join(self.names())})"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._by_name)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._by_name

    def __iter__(self) -> Iterator[T]:
        return iter(sorted(self._by_name.values(), key=lambda entry: entry.name))

    def __len__(self) -> int:
        return len(self._by_name)


@dataclass(frozen=True)
class RegisteredSpec:
    """One named spec: the entry shape of the spec-named axes.

    Attributes
    ----------
    name:
        Stable registry key (``"bitflip_exponent"``, ``"bjacobi8"``, ...).
    spec:
        The declarative configuration the name stands for.
    title:
        One-line human description.
    """

    name: str
    spec: KindSpec
    title: str

    def row(self) -> tuple:
        return (self.name, self.spec.to_string(), self.title)


# ----------------------------------------------------------------------
# The axis record
# ----------------------------------------------------------------------
# Strings and specs are both immutable, so every caller may share one parse.
@lru_cache(maxsize=1024)
def _parse_string(spec: Type[KindSpec], text: str) -> KindSpec:
    return spec.parse(text)


@dataclass(frozen=True)
class Axis:
    """One declared axis: what iterates axes iterates these.

    Attributes
    ----------
    name:
        Short flavour name (``"fault"``, ``"precond"``, ...), as the
        ``spec-strings`` rule prints it.
    spec:
        The axis's :class:`KindSpec` class (``None``: entries are not
        spec-named -- the solver axis).
    registry:
        Accessor of the process-wide :class:`Registry`, whose entries
        each carry the ``spec`` their name stands for (``None``: the
        axis has no named entries -- chaos).
    resolve:
        The axis entry point: anything axis-shaped (registered name,
        spec string, dict, spec object, ``None``) in, the resolved
        object out.  It reaches the spec through :meth:`parse`.
    entry_points:
        Further public callables whose first argument is a spec of this
        axis; with ``resolve`` and ``<spec class>.parse`` these are the
        calls the ``spec-strings`` rule watches.
    keywords:
        Keyword-argument / dict-key names that carry specs of this axis.
    identity:
        The spec string ``resolve(None)`` stands for.
    """

    name: str
    spec: Optional[Type[KindSpec]] = None
    registry: Optional[Callable[[], Registry]] = None
    resolve: Optional[Callable] = None
    entry_points: Tuple[Callable, ...] = ()
    keywords: Tuple[str, ...] = ()
    identity: Optional[str] = None

    def parse(self, value) -> KindSpec:
        """The spec an axis-shaped value stands for: ``None`` is the
        identity, a registered name its entry's spec; any other string
        is parsed once per (spec class, string)."""
        if value is None:
            value = self.identity
        if not isinstance(value, str):
            return self.spec.parse(value)
        if self.registry is not None and value in self.registry():
            return self.registry().get(value).spec
        return _parse_string(self.spec, value)
