"""XML serialization of type descriptions (paper Section 5.2).

"Types in our system are represented as XML structures" — this codec turns
a :class:`~repro.describe.description.TypeDescription` into the XML message
that travels between peers, and back.  The format is self-describing and
human-readable, like the paper's; the §7.2 benchmark measures exactly this
create/serialize/deserialize path.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any, Dict, List, Optional

from ..cts.assembly import type_to_wire
from ..cts.registry import BoundedMemo, TypeRegistry
from ..cts.types import TypeInfo
from .description import TypeDescription


class XmlCodecError(ValueError):
    """Malformed type-description XML."""


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def _ref_element(tag: str, ref: Optional[Dict[str, Any]]) -> Optional[ET.Element]:
    if ref is None:
        return None
    element = ET.Element(tag, {"name": ref["name"]})
    if ref.get("guid"):
        element.set("guid", ref["guid"])
    if ref.get("path"):
        element.set("path", ref["path"])
    return element


def description_to_element(description: TypeDescription) -> ET.Element:
    wire = description.wire
    root = ET.Element(
        "TypeDescription",
        {
            "name": wire["full_name"],
            "guid": wire["guid"],
            "kind": wire["kind"],
            "assembly": wire.get("assembly", "default"),
            "language": wire.get("language", "cts"),
        },
    )
    if wire.get("download_path"):
        root.set("path", wire["download_path"])

    element = _ref_element("Element", wire.get("element"))
    if element is not None:
        root.append(element)
    superclass = _ref_element("Superclass", wire.get("superclass"))
    if superclass is not None:
        root.append(superclass)
    for iface in wire.get("interfaces", []):
        element = _ref_element("Interface", iface)
        if element is not None:
            root.append(element)

    for field in wire.get("fields", []):
        fel = ET.SubElement(
            root,
            "Field",
            {"name": field["name"], "visibility": field["visibility"]},
        )
        if field.get("modifiers"):
            fel.set("modifiers", " ".join(field["modifiers"]))
        type_el = _ref_element("Type", field["type"])
        if type_el is not None:
            fel.append(type_el)

    for method in wire.get("methods", []):
        mel = ET.SubElement(
            root,
            "Method",
            {"name": method["name"], "visibility": method["visibility"]},
        )
        if method.get("modifiers"):
            mel.set("modifiers", " ".join(method["modifiers"]))
        returns = _ref_element("Returns", method["return"])
        if returns is not None:
            mel.append(returns)
        for param in method.get("params", []):
            pel = ET.SubElement(mel, "Param", {"name": param["name"]})
            type_el = _ref_element("Type", param["type"])
            if type_el is not None:
                pel.append(type_el)

    for ctor in wire.get("constructors", []):
        cel = ET.SubElement(root, "Constructor", {"visibility": ctor["visibility"]})
        for param in ctor.get("params", []):
            pel = ET.SubElement(cel, "Param", {"name": param["name"]})
            type_el = _ref_element("Type", param["type"])
            if type_el is not None:
                pel.append(type_el)

    return root


def serialize_description(description: TypeDescription) -> str:
    """Description → XML string."""
    return ET.tostring(description_to_element(description), encoding="unicode")


def serialize_description_bytes(description: TypeDescription) -> bytes:
    """Description → UTF-8 XML bytes (what the network accounts)."""
    return ET.tostring(description_to_element(description), encoding="utf-8")


#: GUID -> (body-free wire form, the XML bytes rendered from it).
_RENDERED = BoundedMemo(256)


def description_bytes(info: TypeInfo) -> bytes:
    """The XML bytes of ``info``'s description, rendered once per wire form.

    The body-free wire form is the whole input of the XML: bytes are reused
    only while it equals the form they were rendered from, so a type
    replaced in place, a new download path or a reference resolved since
    (which adds its GUID and path) renders afresh."""
    wire = type_to_wire(info, include_bodies=False)
    stored = _RENDERED.get(wire["guid"])
    if stored is not None and stored[0] == wire:
        return stored[1]
    data = serialize_description_bytes(TypeDescription(wire))
    _RENDERED.put(wire["guid"], (wire, data))
    return data


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def _ref_from_element(element: Optional[ET.Element]) -> Optional[Dict[str, Any]]:
    if element is None:
        return None
    return {
        "name": element.get("name"),
        "guid": element.get("guid"),
        "path": element.get("path"),
    }


def element_to_description(root: ET.Element) -> TypeDescription:
    if root.tag != "TypeDescription":
        raise XmlCodecError("expected <TypeDescription>, found <%s>" % root.tag)
    name = root.get("name")
    guid = root.get("guid")
    if not name or not guid:
        raise XmlCodecError("missing mandatory name/guid attributes")

    fields: List[Dict[str, Any]] = []
    methods: List[Dict[str, Any]] = []
    ctors: List[Dict[str, Any]] = []
    interfaces: List[Dict[str, Any]] = []
    superclass: Optional[Dict[str, Any]] = None
    element: Optional[Dict[str, Any]] = None

    for child in root:
        if child.tag == "Element":
            element = _ref_from_element(child)
        elif child.tag == "Superclass":
            superclass = _ref_from_element(child)
        elif child.tag == "Interface":
            ref = _ref_from_element(child)
            if ref is not None:
                interfaces.append(ref)
        elif child.tag == "Field":
            fields.append(
                {
                    "name": child.get("name"),
                    "visibility": child.get("visibility", "public"),
                    "modifiers": (child.get("modifiers") or "").split() or [],
                    "type": _ref_from_element(child.find("Type")),
                }
            )
        elif child.tag == "Method":
            methods.append(
                {
                    "name": child.get("name"),
                    "visibility": child.get("visibility", "public"),
                    "modifiers": (child.get("modifiers") or "").split() or [],
                    "return": _ref_from_element(child.find("Returns")),
                    "params": [
                        {
                            "name": param.get("name"),
                            "type": _ref_from_element(param.find("Type")),
                        }
                        for param in child.findall("Param")
                    ],
                    "body": None,
                }
            )
        elif child.tag == "Constructor":
            ctors.append(
                {
                    "visibility": child.get("visibility", "public"),
                    "params": [
                        {
                            "name": param.get("name"),
                            "type": _ref_from_element(param.find("Type")),
                        }
                        for param in child.findall("Param")
                    ],
                    "body": None,
                }
            )
        else:
            raise XmlCodecError("unknown element <%s>" % child.tag)

    wire = {
        "full_name": name,
        "kind": root.get("kind", "class"),
        "element": element,
        "guid": guid,
        "assembly": root.get("assembly", "default"),
        "language": root.get("language", "cts"),
        "download_path": root.get("path"),
        "superclass": superclass,
        "interfaces": interfaces,
        "fields": fields,
        "methods": methods,
        "constructors": ctors,
    }
    return TypeDescription(wire)


def deserialize_description(text) -> TypeDescription:
    """XML string or bytes → description."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlCodecError("invalid XML: %s" % exc)
    return element_to_description(root)


def description_type(data: bytes, registry: TypeRegistry) -> TypeInfo:
    """The type a received description names, registered with ``registry``.

    Keyed on the exact bytes, in a memo owned by ``registry``: an epoch
    move empties it, as a stored type's references may have resolved
    against the old state, except registering a type whose name and GUID
    were both unbound, which rebinds nothing.  Only parses that succeed
    and register are stored, so malformed XML raises on every call."""
    memo = registry.described.fresh()
    info = memo.get(data)
    if info is None:
        info = deserialize_description(data).to_type_info()
        added = not (registry.contains_guid(info.guid)
                     or registry.contains_name(info.full_name))
        registry.register(info)
        if added:
            memo.epoch = registry.epoch
        memo.fresh().put(data, info)
    return info
