"""Exception types shared by all dpsr modules, and the checks that raise them.

The CLI maps these onto process exit codes, so raising the right class
matters: NumericError -> 1, OSError -> 2, ContractError (and subclasses)
-> 3, ConfigError -> 4.

Each argument rule is stated here once, and raises ContractError naming
the argument:
- `check_positive`: a number > 0 (NaN fails), such as a time budget;
- `check_non_negative`: a finite number >= 0, such as a learning rate;
- `positive_int`: an integer > 0, such as a size, count or factor;
- `seed_int`: an integer >= 0, the seed of an RNG.
The two integer rules return a Python int, and let an integral float such
as 2.0 pass as 2; 2.5 fails rather than truncating. A bool fails every
rule: it is a `numbers.Real`, but True is no size, rate or seed.

Each array check for NaN or inf is `first_non_finite`; its callers raise
the class that fits what they guard.
"""

import math
import numbers
import os

import numpy as np


class DpsrError(Exception):
    """Base class for all errors raised by this package."""


class ContractError(DpsrError):
    """A caller violated a documented precondition."""


class ShapeError(ContractError):
    """Operands have incompatible shapes."""


class FormatError(ContractError):
    """A file does not conform to its binary container format."""


class NumericError(DpsrError):
    """A computation produced non-finite values or an invalid scalar."""


class ConfigError(DpsrError):
    """A config file or key=value option could not be parsed."""


def _number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_positive(name, value):
    """ContractError unless `value` is a number > 0; NaN fails too, since
    NaN > 0 is false."""
    if not (_number(value) and value > 0):
        raise ContractError(f"{name} must be > 0, got {value}")


def check_non_negative(name, value):
    """ContractError unless `value` is a finite number >= 0."""
    if not (_number(value) and 0 <= value < math.inf):
        raise ContractError(f"{name} must be finite and >= 0, got {value}")


def _integral(name, value):
    if not float(value).is_integer():
        raise ContractError(f"{name} must be an integer, got {value}")
    return int(value)


def positive_int(name, value):
    """`value` as an int; ContractError unless it is > 0 and integral.

    An integral float such as 2.0 passes; 0.5 or 2.5 fails rather than
    truncating to 0 or 2.
    """
    check_positive(name, value)
    return _integral(name, value)


def seed_int(value):
    """`value` as an int; ContractError unless it is >= 0 and integral, as
    NumPy's `default_rng` needs (it raises ValueError or TypeError otherwise)."""
    check_non_negative("seed", value)
    return _integral("seed", value)


def first_non_finite(a):
    """Index along axis 0 of the first slice of `a` holding a NaN or inf, or
    None when every value is finite."""
    finite = np.isfinite(a)
    if finite.all():
        return None
    return int(np.argmin(finite.all(axis=tuple(range(1, a.ndim)))))


def check_size(fh, need, what):
    """FormatError unless the open file `fh` holds `need` more bytes; loaders
    check a header's sizes with it before they allocate or read them."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if need > left:
        raise FormatError(f"truncated file: the {what} implies {need} more bytes, {left} follow")


def read_exact(fh, n, what):
    """Exactly `n` bytes from `fh`; FormatError naming `what` if the file ends first."""
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file while reading {what}")
    return buf


def read_into(fh, array, what):
    """Fill the C-contiguous `array` with its bytes from `fh`, with no second
    copy; FormatError naming `what` if the file ends first."""
    if fh.readinto(array) != array.nbytes:
        raise FormatError(f"truncated file while reading {what}")
