"""SQL value types and their storage widths.

Widths drive the page model: a row's byte width is the sum of its column
widths (plus a per-row overhead), and a table's page count is derived
from that. For VARCHAR the declared width is an *average*, normally
refined from statistics.
"""

from __future__ import annotations

import enum

from ..xsd import BaseType


class SQLType(enum.Enum):
    INTEGER = "INTEGER"
    DECIMAL = "DECIMAL"
    VARCHAR = "VARCHAR"
    DATE = "DATE"
    BOOLEAN = "BOOLEAN"

    @property
    def default_width(self) -> int:
        """Average stored byte width of one value."""
        return _DEFAULT_WIDTHS[self]

    @classmethod
    def from_base_type(cls, base: BaseType) -> "SQLType":
        return {
            BaseType.STRING: cls.VARCHAR,
            BaseType.INTEGER: cls.INTEGER,
            BaseType.DECIMAL: cls.DECIMAL,
            BaseType.DATE: cls.DATE,
            BaseType.BOOLEAN: cls.BOOLEAN,
        }[base]

    def coerce(self, value):
        """Convert a string (shredded XML text) to the Python value."""
        if value is None:
            return None
        convert = self.text_coercer()
        return str(value) if convert is None else convert(str(value))

    def text_coercer(self):
        """:meth:`coerce` for ``str`` input as a plain one-argument
        callable, or ``None`` where the text is the value already — what
        a loader binds once per column instead of asking per value."""
        return _TEXT_COERCERS.get(self)


def _text_to_boolean(text: str) -> bool:
    return text.strip() in ("true", "1")


_DEFAULT_WIDTHS = {
    SQLType.INTEGER: 4,
    SQLType.DECIMAL: 8,
    SQLType.VARCHAR: 24,
    SQLType.DATE: 4,
    SQLType.BOOLEAN: 1,
}

# ``int`` and ``float`` skip surrounding white space themselves.
_TEXT_COERCERS = {
    SQLType.INTEGER: int,
    SQLType.DECIMAL: float,
    SQLType.BOOLEAN: _text_to_boolean,
}


# Storage model constants (textbook defaults).
PAGE_SIZE = 8192
ROW_OVERHEAD = 12       # header + null bitmap per stored row
INDEX_ENTRY_OVERHEAD = 8  # pointer + entry header per index entry
PAGE_FILL_FACTOR = 0.7  # usable fraction of a page
