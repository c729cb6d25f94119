"""Column type system.

The engine stores every column as a fixed-width numpy array. Dates are stored
as int32 day offsets from 1970-01-01; low-cardinality strings are stored as
uint8 dictionary codes with the dictionary kept in column metadata. This
mirrors C-Store, where all columns are integer-coded on disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np

from .errors import EncodingError

_EPOCH = date(1970, 1, 1)


@dataclass(frozen=True)
class ColumnType:
    """A logical column type backed by a fixed-width numpy dtype."""

    name: str
    numpy_dtype: np.dtype

    @property
    def itemsize(self) -> int:
        """Width in bytes of one stored value."""
        return self.numpy_dtype.itemsize

    def validate(self, values: np.ndarray) -> np.ndarray:
        """Return *values* as a contiguous array of this type.

        Raises:
            EncodingError: if the values cannot be represented losslessly.
        """
        arr = np.ascontiguousarray(values)
        if arr.dtype == self.numpy_dtype:
            return arr
        cast = arr.astype(self.numpy_dtype)
        if not np.array_equal(cast.astype(arr.dtype, copy=False), arr):
            raise EncodingError(
                f"values of dtype {arr.dtype} do not fit column type {self.name}"
            )
        return cast

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"ColumnType({self.name})"


INT8 = ColumnType("int8", np.dtype("<i1"))
INT16 = ColumnType("int16", np.dtype("<i2"))
INT32 = ColumnType("int32", np.dtype("<i4"))
INT64 = ColumnType("int64", np.dtype("<i8"))
UINT8 = ColumnType("uint8", np.dtype("<u1"))
FLOAT64 = ColumnType("float64", np.dtype("<f8"))
DATE = ColumnType("date", np.dtype("<i4"))

_BY_NAME = {
    t.name: t for t in (INT8, INT16, INT32, INT64, UINT8, FLOAT64, DATE)
}


def type_by_name(name: str) -> ColumnType:
    """Look up a :class:`ColumnType` by its catalog name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise EncodingError(f"unknown column type {name!r}") from None


def date_to_int(d: date) -> int:
    """Encode a :class:`datetime.date` as days since the Unix epoch."""
    return (d - _EPOCH).days


def int_to_date(days: int) -> date:
    """Decode a days-since-epoch integer back to a date."""
    return _EPOCH + timedelta(days=int(days))


@dataclass(frozen=True)
class ColumnSchema:
    """Schema entry for one column of a projection.

    Attributes:
        name: column name, unique within its projection.
        ctype: logical type.
        dictionary: for dictionary-coded string columns, the code->string
            mapping (index = code). Empty for plain numeric columns.
    """

    name: str
    ctype: ColumnType
    dictionary: tuple[str, ...] = field(default=())

    def decode_value(self, raw: int | float):
        """Map a stored value back to its logical value (string for coded columns)."""
        if self.dictionary:
            return self.dictionary[int(raw)]
        if self.ctype is DATE:
            return int_to_date(int(raw))
        return raw

    def encode_value(self, value) -> int | float:
        """Map a logical value to its stored representation."""
        if self.dictionary:
            try:
                return self.dictionary.index(value)
            except ValueError:
                raise EncodingError(
                    f"value {value!r} not in dictionary of column {self.name}"
                ) from None
        if self.ctype is DATE and isinstance(value, date):
            return date_to_int(value)
        return value

    def encode_column(self, values: list) -> np.ndarray:
        """Map logical values to one array of this column's stored type.

        Dictionary strings become codes and dates day offsets, as
        :meth:`encode_value` maps them one by one.

        Raises:
            EncodingError: if a value is not in the dictionary, is not a
                number, or cannot be represented losslessly in ``ctype``.
        """
        if self.dictionary:
            codes = {v: i for i, v in enumerate(self.dictionary)}
            try:
                values = [codes[v] for v in values]
            except (KeyError, TypeError):  # encode_value names the value
                values = [self.encode_value(v) for v in values]
        elif self.ctype is DATE:
            values = [
                date_to_int(v) if isinstance(v, date) else v for v in values
            ]
        arr = np.asarray(values)
        if arr.dtype.kind not in "biuf":
            raise EncodingError(
                f"column {self.name}: values of dtype {arr.dtype} are not "
                f"{self.ctype.name} values"
            )
        try:
            return self.ctype.validate(arr)
        except EncodingError as exc:
            raise EncodingError(f"column {self.name}: {exc}") from None
