"""JMS message types with JMS 1.1 header/property/body semantics.

The paper's workload packs "two integer, five float, two long, three double
and four string values ... in a JMS MapMessage as monitoring data"
(§III.E); our :class:`MapMessage` reproduces both the typed accessors and a
wire-size model so the LAN sees realistic byte counts (the paper observes
750 generators ≈ 75 msg/s at < 50 KB/s, i.e. ≤ ~660 B per message).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.jms.errors import MessageFormatException, MessageNotWriteableException


class DeliveryMode:
    """javax.jms.DeliveryMode constants."""

    NON_PERSISTENT = 1
    PERSISTENT = 2


#: Header overhead on the wire: message id, destination, timestamp, flags...
HEADER_WIRE_BYTES = 96
#: Per-property overhead: name length + type tag.
PROPERTY_OVERHEAD_BYTES = 3

#: JMS property/map value types and their wire sizes.
_TYPE_SIZES = {
    bool: 1,
    int: 8,  # conservatively long-sized
    float: 8,
}


#: Selector identifier → header attribute (JMS 1.1 §3.8.1.1: the headers a
#: selector may reference).  Anything else is a user property.
_SELECTOR_HEADERS = {
    "JMSMessageID": "message_id",
    "JMSCorrelationID": "correlation_id",
    "JMSTimestamp": "timestamp",
    "JMSDeliveryMode": "delivery_mode",
    "JMSPriority": "priority",
    "JMSType": "jms_type",
}


def _value_wire_size(value: Any) -> int:
    if value is None:
        return 1
    if isinstance(value, bool):
        return _TYPE_SIZES[bool]
    if isinstance(value, int):
        return _TYPE_SIZES[int]
    if isinstance(value, float):
        return _TYPE_SIZES[float]
    if isinstance(value, str):
        return 2 + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return 4 + len(value)
    raise MessageFormatException(f"unsupported JMS value type {type(value).__name__}")


class Message:
    """Base message: headers + typed properties + provider bookkeeping."""

    def __init__(self) -> None:
        # Standard JMS headers.
        self.message_id: Optional[str] = None
        self.destination = None
        self.timestamp: Optional[float] = None
        self.correlation_id: Optional[str] = None
        self.reply_to = None
        self.delivery_mode: int = DeliveryMode.NON_PERSISTENT
        self.priority: int = 4
        self.expiration: float = 0.0  # 0 = never expires
        self.redelivered: bool = False
        self.jms_type: Optional[str] = None
        self._properties: dict[str, Any] = {}
        self._writable = True
        # Set by the receiving session so acknowledge() can reach it.
        self._ack_session = None

    # ----------------------------------------------------------- properties
    def set_property(self, name: str, value: Any) -> None:
        if not self._writable:
            raise MessageNotWriteableException("message is in read-only mode")
        if not name:
            raise MessageFormatException("property name must be non-empty")
        _value_wire_size(value)  # type check
        self._properties[name] = value

    def get_property(self, name: str) -> Any:
        return self._properties.get(name)

    def property_names(self) -> list[str]:
        return list(self._properties)

    def property_exists(self, name: str) -> bool:
        return name in self._properties

    def clear_properties(self) -> None:
        self._properties.clear()
        self._writable = True

    # ------------------------------------------------------------ selector
    def selector_value(self, identifier: str) -> Any:
        """Value an SQL selector identifier resolves to on this message.

        JMS selectors see user properties plus the ``JMSx``/``JMS`` headers.
        Unknown identifiers are NULL (SQL unknown), per spec.
        """
        attr = _SELECTOR_HEADERS.get(identifier)
        if attr is None:
            return self._properties.get(identifier)
        value = getattr(self, attr)
        if attr == "delivery_mode":
            return (
                "PERSISTENT"
                if value == DeliveryMode.PERSISTENT
                else "NON_PERSISTENT"
            )
        return value

    # ------------------------------------------------------------ ack/size
    def acknowledge(self) -> None:
        """CLIENT_ACKNOWLEDGE: ack this and all prior messages on the session."""
        if self._ack_session is not None:
            self._ack_session._acknowledge_up_to(self)

    def body_wire_size(self) -> int:
        return 0

    def wire_size(self) -> int:
        """Estimated bytes on the wire for this message."""
        props = sum(
            len(k.encode()) + PROPERTY_OVERHEAD_BYTES + _value_wire_size(v)
            for k, v in self._properties.items()
        )
        dest = len(self.destination.name.encode()) if self.destination else 0
        return HEADER_WIRE_BYTES + dest + props + self.body_wire_size()

    def _set_read_only(self) -> None:
        self._writable = False

    def copy(self) -> "Message":
        """Provider-side copy: what a broker hands to each subscriber."""
        import copy as _copy

        clone = _copy.copy(self)
        clone._properties = dict(self._properties)
        clone._writable = True
        clone._ack_session = None
        return clone


class TextMessage(Message):
    """A string body."""

    def __init__(self, text: str = ""):
        super().__init__()
        self.text = text

    def body_wire_size(self) -> int:
        return 4 + len(self.text.encode("utf-8"))


class ObjectMessage(Message):
    """A serialised object body; ``object_size`` approximates serialised form."""

    def __init__(self, obj: Any = None, object_size: Optional[int] = None):
        super().__init__()
        self.object = obj
        self._object_size = object_size

    def body_wire_size(self) -> int:
        if self._object_size is not None:
            return self._object_size
        return 64 + len(repr(self.object).encode("utf-8"))


class BytesMessage(Message):
    """A raw byte stream body."""

    def __init__(self, data: bytes = b""):
        super().__init__()
        self.data = bytearray(data)

    def write_bytes(self, data: bytes) -> None:
        if not self._writable:
            raise MessageNotWriteableException("message is in read-only mode")
        self.data.extend(data)

    def write_double(self, value: float) -> None:
        self.write_bytes(struct.pack(">d", value))

    def write_long(self, value: int) -> None:
        self.write_bytes(struct.pack(">q", value))

    def body_wire_size(self) -> int:
        return len(self.data)


class MapMessage(Message):
    """Typed name→value body — the paper's monitoring payload container."""

    #: JMS map value type tags, with their wire sizes.
    _SIZES = {
        "boolean": 1,
        "byte": 1,
        "short": 2,
        "char": 2,
        "int": 4,
        "long": 8,
        "float": 4,
        "double": 8,
    }

    def __init__(self) -> None:
        super().__init__()
        self._body: dict[str, tuple[str, Any]] = {}
        #: Memo of :meth:`body_wire_size`; ``None`` after any :meth:`_set`.
        self._body_size: Optional[int] = None

    # Typed setters (subset of javax.jms.MapMessage).  Every body write goes
    # through ``_set`` — it is what keeps the wire-size memo honest.
    def _set(self, jms_type: str, name: str, value: Any) -> None:
        if not self._writable:
            raise MessageNotWriteableException("message is in read-only mode")
        if not name:
            raise MessageFormatException("map entry name must be non-empty")
        self._body[name] = (jms_type, value)
        self._body_size = None

    def set_boolean(self, name: str, value: bool) -> None:
        self._set("boolean", name, bool(value))

    def set_int(self, name: str, value: int) -> None:
        self._set("int", name, int(value))

    def set_long(self, name: str, value: int) -> None:
        self._set("long", name, int(value))

    def set_float(self, name: str, value: float) -> None:
        self._set("float", name, float(value))

    def set_double(self, name: str, value: float) -> None:
        self._set("double", name, float(value))

    def set_string(self, name: str, value: str) -> None:
        self._set("string", name, str(value))

    def set_bytes(self, name: str, value: bytes) -> None:
        self._set("bytes", name, bytes(value))

    # Typed getters with JMS conversion rules (numeric widening only).
    def get(self, name: str) -> Any:
        entry = self._body.get(name)
        return entry[1] if entry else None

    def get_int(self, name: str) -> int:
        return self._coerce(name, int, ("byte", "short", "int"))

    def get_long(self, name: str) -> int:
        return self._coerce(name, int, ("byte", "short", "int", "long"))

    def get_float(self, name: str) -> float:
        return self._coerce(name, float, ("float",))

    def get_double(self, name: str) -> float:
        return self._coerce(name, float, ("float", "double"))

    def get_string(self, name: str) -> str:
        entry = self._body.get(name)
        if entry is None:
            raise MessageFormatException(f"no map entry {name!r}")
        return str(entry[1])

    def _coerce(self, name: str, target: type, allowed: tuple[str, ...]) -> Any:
        entry = self._body.get(name)
        if entry is None:
            raise MessageFormatException(f"no map entry {name!r}")
        jms_type, value = entry
        if jms_type == "string":
            try:
                return target(value)
            except ValueError as exc:
                raise MessageFormatException(str(exc)) from None
        if jms_type not in allowed:
            raise MessageFormatException(
                f"cannot read {jms_type} entry {name!r} as {target.__name__}"
            )
        return target(value)

    def item_names(self) -> list[str]:
        return list(self._body)

    def item_exists(self, name: str) -> bool:
        return name in self._body

    def body_wire_size(self) -> int:
        # Asked for at every hop (client send, broker fan-out, each
        # subscriber copy) while the body changes only in the publisher.
        total = self._body_size
        if total is not None:
            return total
        total = 2  # entry count
        for name, (jms_type, value) in self._body.items():
            total += 1 + len(name.encode("utf-8")) + 1  # name + type tag
            if jms_type == "string":
                total += 2 + len(str(value).encode("utf-8"))
            elif jms_type == "bytes":
                total += 4 + len(value)
            else:
                total += self._SIZES[jms_type]
        self._body_size = total
        return total

    def copy(self) -> "MapMessage":
        clone = super().copy()  # shallow: carries the ``_body_size`` memo
        clone._body = dict(self._body)  # type: ignore[attr-defined]
        return clone  # type: ignore[return-value]
