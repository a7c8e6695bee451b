"""Extension platform and the measurement extension."""

from .api import ExtensionBase
from .instrumentation import InstrumentationExtension

__all__ = ["ExtensionBase", "InstrumentationExtension"]
