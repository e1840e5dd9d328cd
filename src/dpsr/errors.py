"""Exception types shared by all dpsr modules, and the checks that raise them.

The CLI maps these onto process exit codes, so raising the right class
matters: NumericError -> 1, OSError -> 2, ContractError (and subclasses)
-> 3, ConfigError -> 4.
"""


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


def check_positive(name, value):
    """ContractError unless `value` > 0; NaN fails too, since NaN > 0 is false."""
    if not value > 0:
        raise ContractError(f"{name} must be > 0, got {value}")


def read_exact(fh, n, what):
    """Exactly `n` bytes from `fh`; FormatError naming `what` if the file ends first."""
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file while reading {what}")
    return buf
