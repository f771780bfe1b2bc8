"""Tests for JMS message types: typed access, wire sizes, read-only mode."""

import pytest

from repro.jms import (
    BytesMessage,
    DeliveryMode,
    MapMessage,
    Message,
    ObjectMessage,
    TextMessage,
    Topic,
)
from repro.jms.errors import MessageFormatException, MessageNotWriteableException


# ----------------------------------------------------------------- MapMessage
def test_map_message_typed_round_trip():
    m = MapMessage()
    m.set_int("i", 42)
    m.set_long("l", 2**40)
    m.set_float("f", 1.5)
    m.set_double("d", 2.25)
    m.set_string("s", "hello")
    m.set_boolean("b", True)
    assert m.get_int("i") == 42
    assert m.get_long("l") == 2**40
    assert m.get_float("f") == 1.5
    assert m.get_double("d") == 2.25
    assert m.get_string("s") == "hello"
    assert m.get("b") is True


def test_map_message_widening_conversions():
    m = MapMessage()
    m.set_int("i", 7)
    assert m.get_long("i") == 7
    m.set_float("f", 1.5)
    assert m.get_double("f") == 1.5


def test_map_message_narrowing_rejected():
    m = MapMessage()
    m.set_long("l", 5)
    with pytest.raises(MessageFormatException):
        m.get_int("l")
    m.set_double("d", 1.0)
    with pytest.raises(MessageFormatException):
        m.get_float("d")


def test_map_message_string_conversion():
    m = MapMessage()
    m.set_string("n", "123")
    assert m.get_int("n") == 123
    m.set_int("i", 9)
    assert m.get_string("i") == "9"
    m.set_string("bad", "xyz")
    with pytest.raises(MessageFormatException):
        m.get_int("bad")


def test_map_message_missing_entry():
    m = MapMessage()
    with pytest.raises(MessageFormatException):
        m.get_int("missing")
    assert m.get("missing") is None
    assert not m.item_exists("missing")


def test_paper_payload_size_is_consistent_with_throughput():
    """§III.B: 750 generators -> 75 msg/s at < 50 KB/s => <= ~660 B/message.

    Build the paper's exact MapMessage payload (2 int, 5 float, 2 long,
    3 double, 4 string) and check the modelled wire size lands under that
    bound but above a trivial floor.
    """
    m = MapMessage()
    m.destination = Topic("monitoring")
    for k in range(2):
        m.set_int(f"int{k}", k)
    for k in range(5):
        m.set_float(f"float{k}", 1.0 * k)
    for k in range(2):
        m.set_long(f"long{k}", 10**12 + k)
    for k in range(3):
        m.set_double(f"double{k}", 1e-3 * k)
    for k in range(4):
        m.set_string(f"string{k}", "generator-value-" + str(k))
    m.set_property("id", 1234)
    size = m.wire_size()
    assert 300 < size < 660


def test_map_message_body_size_counts_strings():
    a = MapMessage()
    a.set_string("s", "x")
    b = MapMessage()
    b.set_string("s", "x" * 100)
    assert b.body_wire_size() - a.body_wire_size() == 99


def _recomputed_body_size(m):
    """Body size of an entry-for-entry rebuild: never served from m's memo."""
    fresh = MapMessage()
    for name in m.item_names():
        jms_type, value = m._body[name]
        fresh._set(jms_type, name, value)
    return fresh.body_wire_size()


def test_map_message_body_size_memo_follows_every_write():
    m = MapMessage()
    assert m.body_wire_size() == 2
    m.set_int("i", 1)
    assert m.body_wire_size() == 2 + (1 + 1 + 1) + 4
    m.set_string("s", "héllo")
    m.set_bytes("b", b"\x00" * 10)
    assert m.body_wire_size() == m.body_wire_size() == _recomputed_body_size(m)
    m.set_string("s", "a much longer replacement value")  # overwrite
    assert m.body_wire_size() == _recomputed_body_size(m)


def test_map_message_copy_carries_size_and_diverges():
    m = MapMessage()
    m.set_double("d", 1.5)
    size = m.body_wire_size()
    c = m.copy()
    assert c.body_wire_size() == size
    c.set_string("extra", "x" * 40)
    assert c.body_wire_size() == _recomputed_body_size(c) > size
    assert m.body_wire_size() == size


def test_padded_message_size_is_not_stale():
    """Comparison test 5 pads a message whose size may already be cached."""
    from repro.powergrid.workload import _inflate_payload

    m = MapMessage()
    m.set_int("seq", 7)
    m.set_float("power", 3.5)
    m.set_string("status", "CLOSED")
    m.set_property("id", 42)
    base_body, base_wire = m.body_wire_size(), m.wire_size()
    _inflate_payload(m, 3)
    assert len(m.item_names()) == 9
    assert m.body_wire_size() == _recomputed_body_size(m)
    # Each replica adds its entries plus the 3-byte "_xK" name suffix.
    assert m.body_wire_size() == 2 + 3 * (base_body - 2) + 2 * 3 * 3
    assert m.wire_size() - base_wire == m.body_wire_size() - base_body


# -------------------------------------------------------------- other bodies
def test_text_message_size():
    t = TextMessage("hello")
    assert t.body_wire_size() == 4 + 5
    assert t.wire_size() > t.body_wire_size()


def test_bytes_message_write_and_size():
    b = BytesMessage()
    b.write_long(1)
    b.write_double(2.0)
    b.write_bytes(b"abc")
    assert b.body_wire_size() == 8 + 8 + 3


def test_object_message_explicit_size():
    o = ObjectMessage({"a": 1}, object_size=500)
    assert o.body_wire_size() == 500


def test_object_message_estimated_size():
    o = ObjectMessage({"a": 1})
    assert o.body_wire_size() > 64


# ---------------------------------------------------------------- properties
def test_properties_round_trip_and_names():
    m = Message()
    m.set_property("id", 7)
    m.set_property("site", "uk")
    assert m.get_property("id") == 7
    assert sorted(m.property_names()) == ["id", "site"]
    assert m.property_exists("site")
    m.clear_properties()
    assert m.property_names() == []


def test_property_type_validation():
    m = Message()
    with pytest.raises(MessageFormatException):
        m.set_property("bad", object())
    with pytest.raises(MessageFormatException):
        m.set_property("", 1)


# ----------------------------------------------------------------- selectors
def test_selector_value_resolves_headers_and_properties():
    m = Message()
    m.priority = 7
    m.message_id = "ID:x-1"
    m.set_property("id", 99)
    assert m.selector_value("JMSPriority") == 7
    assert m.selector_value("JMSMessageID") == "ID:x-1"
    assert m.selector_value("id") == 99
    assert m.selector_value("unknown") is None


def test_selector_value_every_header_and_header_wins_over_property():
    m = Message()
    m.message_id, m.correlation_id, m.timestamp = "ID:1", "corr", 12.5
    m.priority, m.jms_type = 9, "reading"
    m.set_property("JMSPriority", 0)  # a same-named property never shadows
    assert [
        m.selector_value(name)
        for name in (
            "JMSMessageID",
            "JMSCorrelationID",
            "JMSTimestamp",
            "JMSDeliveryMode",
            "JMSPriority",
            "JMSType",
        )
    ] == ["ID:1", "corr", 12.5, "NON_PERSISTENT", 9, "reading"]
    assert m.selector_value("JMSExpiration") is None  # not selectable


def test_selector_value_delivery_mode_string():
    m = Message()
    assert m.selector_value("JMSDeliveryMode") == "NON_PERSISTENT"
    m.delivery_mode = DeliveryMode.PERSISTENT
    assert m.selector_value("JMSDeliveryMode") == "PERSISTENT"


# ----------------------------------------------------------------- read-only
def test_read_only_blocks_writes():
    m = MapMessage()
    m.set_int("i", 1)
    m._set_read_only()
    with pytest.raises(MessageNotWriteableException):
        m.set_int("j", 2)
    with pytest.raises(MessageNotWriteableException):
        m.set_property("p", 1)
    # clear_properties restores writability per JMS.
    m.clear_properties()
    m.set_property("p", 1)


def test_copy_is_independent_and_writable():
    m = MapMessage()
    m.set_int("i", 1)
    m.set_property("p", "x")
    m._set_read_only()
    c = m.copy()
    c.set_int("j", 2)
    c.set_property("q", "y")
    assert not m.item_exists("j")
    assert not m.property_exists("q")
    assert c.get_int("i") == 1
