"""The canonical wire-protocol spec: model, JSON form, fingerprint.

A :class:`WireSpec` is the machine-readable contract two peer builds
must share to interoperate:

* ``tags`` — the tag-byte table (name → value);
* ``classes`` — every registered frame class, keyed by its *wire name*
  (the string both sides resolve), with its state shape: field names in
  wire order, which fields are an optional widened tail, and the
  attribute that guards each widened field's emission;
* ``verbs`` — every RMI verb the runtime issues as a literal.

The JSON form is canonical — keys sorted, compact separators — so the
``fingerprint`` (a crc32 over the canonical contract body, same choice
obicodec makes for schema hashes) is stable across machines and runs.
Field *order* inside a class is the wire order and is preserved, not
sorted: reordering fields is exactly the breaking change the spec
exists to catch.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

#: Bump on incompatible spec-file changes.
SPEC_VERSION = 1


@dataclass(frozen=True)
class WireField:
    """One positional slot of a class's wire state tuple."""

    name: str
    #: True for widened-tail fields: the getter omits the field while it
    #: is unset, so the common frame stays short.
    optional: bool = False
    #: The attribute whose truthiness gates emission of this optional
    #: field — ``None`` on an optional field is an OBI305 finding.
    guard: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "optional": self.optional}
        if self.guard is not None:
            out["guard"] = self.guard
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "WireField":
        return cls(
            name=str(raw["name"]),
            optional=bool(raw.get("optional", False)),
            guard=raw.get("guard"),
        )


@dataclass(frozen=True)
class WireClass:
    """One registered frame class, as the wire sees it."""

    cls: str  # Python class name
    module: str  # posix display path of the defining module
    #: "tuple" (positional state), "passthrough" (the state *is* one
    #: attribute), or "dict" (default reflective instance-dict state,
    #: keyed by field name — positional order does not matter).
    state: str = "tuple"
    #: Registered with custom get_state/set_state/factory hooks.
    custom_state: bool = False
    #: The setter tolerates shorter-than-full tuples (``*rest`` or
    #: ``len(state)`` branching) — the widened-tail idiom.
    optional_tail: bool = False
    fields: tuple[WireField, ...] = ()

    def to_dict(self) -> dict:
        return {
            "class": self.cls,
            "module": self.module,
            "state": self.state,
            "custom_state": self.custom_state,
            "optional_tail": self.optional_tail,
            "fields": [f.to_dict() for f in self.fields],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "WireClass":
        return cls(
            cls=str(raw["class"]),
            module=str(raw.get("module", "")),
            state=str(raw.get("state", "tuple")),
            custom_state=bool(raw.get("custom_state", False)),
            optional_tail=bool(raw.get("optional_tail", False)),
            fields=tuple(WireField.from_dict(f) for f in raw.get("fields", [])),
        )


@dataclass
class WireSpec:
    """The whole contract of one source tree."""

    tags: dict[str, int] = field(default_factory=dict)
    classes: dict[str, WireClass] = field(default_factory=dict)
    #: Verb names, sorted.
    verbs: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # canonical form
    # ------------------------------------------------------------------
    def contract_dict(self) -> dict:
        """The fingerprinted body: everything except version/fingerprint.

        The defining ``module`` is provenance, not contract — it names
        where a class lives in *this* tree, so it is excluded here to
        keep fingerprints identical across checkouts and path spellings.
        """
        classes: dict = {}
        for name in sorted(self.classes):
            entry = self.classes[name].to_dict()
            entry.pop("module", None)
            classes[name] = entry
        return {
            "tags": {name: value for name, value in sorted(self.tags.items())},
            "classes": classes,
            "verbs": sorted(self.verbs),
        }

    def fingerprint(self) -> str:
        canonical = json.dumps(
            self.contract_dict(), sort_keys=True, separators=(",", ":")
        )
        return f"{zlib.crc32(canonical.encode('utf-8')) & 0xFFFFFFFF:08x}"

    def to_dict(self) -> dict:
        # Unlike contract_dict(), the emitted file keeps each class's
        # defining module — useful to humans reading the spec, ignored
        # by the fingerprint and by diff.
        return {
            "version": SPEC_VERSION,
            "fingerprint": self.fingerprint(),
            "tags": {name: value for name, value in sorted(self.tags.items())},
            "classes": {
                name: self.classes[name].to_dict() for name in sorted(self.classes)
            },
            "verbs": sorted(self.verbs),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: dict) -> "WireSpec":
        version = raw.get("version")
        if version != SPEC_VERSION:
            raise ValueError(
                f"wire spec has version {version!r}; this obiwire expects "
                f"{SPEC_VERSION} — regenerate with 'obiwire spec'"
            )
        return cls(
            tags={str(k): int(v) for k, v in raw.get("tags", {}).items()},
            classes={
                str(k): WireClass.from_dict(v) for k, v in raw.get("classes", {}).items()
            },
            verbs=tuple(sorted(str(verb) for verb in raw.get("verbs", []))),
        )

    @classmethod
    def load(cls, path: str | Path) -> "WireSpec":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
