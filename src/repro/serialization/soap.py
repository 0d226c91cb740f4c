"""SOAP-style XML object serializer.

The verbose payload format of the hybrid scheme: a self-describing XML
envelope encoding the whole object graph, shared references included
(``id``/``href`` in the SOAP-section-5 tradition).  Deliberately more costly
to produce than to parse — the asymmetry the paper measures in §7.3
("creating a SOAP structure from an object is more complex than the
opposite").
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any, Dict, List, Optional

from ..cts.identity import Guid
from ..runtime.loader import Runtime
from ..runtime.objects import CtsInstance
from .errors import UnknownTypeError, UnsupportedValueError, WireFormatError


class SoapSerializer:
    """Object graph ↔ SOAP-like XML."""

    format_name = "soap"

    def __init__(self, runtime: Optional[Runtime] = None):
        self.runtime = runtime

    # -- encode ------------------------------------------------------------

    def serialize(self, value: Any) -> bytes:
        envelope = ET.Element("Envelope")
        body = ET.SubElement(envelope, "Body")
        body.append(self._encode(value, {}))
        # Pretty-printing (indentation) is part of what makes SOAP encoding
        # heavier than decoding, as in the paper's measurements.
        self._indent(envelope, 0)
        return ET.tostring(envelope, encoding="utf-8")

    def _encode(self, value: Any, seen: Dict[int, str]) -> ET.Element:
        if value is None:
            return ET.Element("null")
        if value is True or value is False:
            element = ET.Element("boolean")
            element.text = "true" if value else "false"
            return element
        if isinstance(value, int):
            element = ET.Element("int")
            element.text = str(value)
            return element
        if isinstance(value, float):
            element = ET.Element("double")
            element.text = repr(value)
            return element
        if isinstance(value, str):
            element = ET.Element("string")
            element.text = value
            return element
        if isinstance(value, list):
            element = ET.Element("list")
            for item in value:
                wrapper = ET.SubElement(element, "item")
                wrapper.append(self._encode(item, seen))
            return element
        if isinstance(value, dict):
            element = ET.Element("dict")
            for key, item in value.items():
                if not isinstance(key, str):
                    raise UnsupportedValueError("dict keys must be strings")
                entry = ET.SubElement(element, "entry", {"key": key})
                entry.append(self._encode(item, seen))
            return element
        if isinstance(value, CtsInstance):
            marker = id(value)
            if marker in seen:
                return ET.Element("ref", {"href": "#" + seen[marker]})
            ref_id = "id-%d" % (len(seen) + 1)
            seen[marker] = ref_id
            element = ET.Element(
                "Object",
                {
                    "id": ref_id,
                    "type": value.type_info.full_name,
                    "guid": str(value.type_info.guid),
                },
            )
            for name, item in value.fields.items():
                field = ET.SubElement(element, "Field", {"name": name})
                field.append(self._encode(item, seen))
            return element
        raise UnsupportedValueError(
            "cannot SOAP-serialize value of type %s" % type(value).__name__
        )

    def _indent(self, element: ET.Element, depth: int) -> None:
        pad = "\n" + "  " * (depth + 1)
        if len(element):
            if not element.text or not element.text.strip():
                element.text = pad
            for child in element:
                self._indent(child, depth + 1)
                if not child.tail or not child.tail.strip():
                    child.tail = pad
            last = element[-1]
            last.tail = "\n" + "  " * depth
        # leaf elements keep their text content untouched

    # -- decode ------------------------------------------------------------

    def deserialize(self, data) -> Any:
        try:
            root = ET.fromstring(data)
        except ET.ParseError as exc:
            raise WireFormatError("invalid SOAP XML: %s" % exc)
        if root.tag != "Envelope":
            raise WireFormatError("expected <Envelope>, found <%s>" % root.tag)
        body = root.find("Body")
        if body is None or len(body) != 1:
            raise WireFormatError("<Body> must contain exactly one value")
        return self.deserialize_element(body[0])

    def deserialize_element(self, element: ET.Element) -> Any:
        objects: Dict[str, CtsInstance] = {}
        pending: List = []
        value = self._decode(element, objects, pending)
        for instance, field_name, href in pending:
            target = objects.get(href)
            if target is None:
                raise WireFormatError("dangling href %r" % href)
            instance.fields[field_name] = target
        return value

    def _decode(self, element: ET.Element, objects: Dict[str, CtsInstance], pending: List) -> Any:
        tag = element.tag
        if tag == "null":
            return None
        if tag == "boolean":
            return (element.text or "").strip() == "true"
        if tag == "int":
            try:
                return int((element.text or "").strip())
            except ValueError:
                raise WireFormatError("bad int %r" % element.text)
        if tag == "double":
            try:
                return float((element.text or "").strip())
            except ValueError:
                raise WireFormatError("bad double %r" % element.text)
        if tag == "string":
            return element.text or ""
        if tag == "list":
            out = []
            for item in element.findall("item"):
                if len(item) != 1:
                    raise WireFormatError("<item> must hold exactly one value")
                out.append(self._decode(item[0], objects, pending))
            return out
        if tag == "dict":
            mapping: Dict[str, Any] = {}
            for entry in element.findall("entry"):
                key = entry.get("key")
                if key is None or len(entry) != 1:
                    raise WireFormatError("malformed <entry>")
                mapping[key] = self._decode(entry[0], objects, pending)
            return mapping
        if tag == "Object":
            return self._decode_object(element, objects, pending)
        if tag == "ref":
            href = (element.get("href") or "").lstrip("#")
            target = objects.get(href)
            if target is not None:
                return target
            raise WireFormatError("forward href %r outside an object field" % href)
        raise WireFormatError("unknown element <%s>" % tag)

    def _decode_object(self, element: ET.Element, objects: Dict[str, CtsInstance], pending: List) -> CtsInstance:
        if self.runtime is None:
            raise WireFormatError("payload contains objects but no runtime was provided")
        type_name = element.get("type")
        guid_text = element.get("guid")
        if not type_name:
            raise WireFormatError("<Object> missing type attribute")
        info = None
        guid = Guid.parse(guid_text) if guid_text else None
        if guid is not None:
            info = self.runtime.registry.get_by_guid(guid)
        if info is None:
            candidate = self.runtime.registry.get(type_name)
            if candidate is not None and (guid is None or candidate.guid == guid):
                info = candidate
        if info is None:
            raise UnknownTypeError(type_name, guid_text)
        instance = self.runtime.raw_instance(info, {})
        ref_id = element.get("id")
        if ref_id:
            objects[ref_id] = instance
        for field in element.findall("Field"):
            name = field.get("name")
            if name is None or len(field) != 1:
                raise WireFormatError("malformed <Field>")
            child = field[0]
            if child.tag == "ref":
                href = (child.get("href") or "").lstrip("#")
                if href in objects:
                    instance.fields[name] = objects[href]
                else:
                    pending.append((instance, name, href))
                    instance.fields[name] = None
            else:
                instance.fields[name] = self._decode(child, objects, pending)
        return instance
