import sys

from .cli import _entry

sys.exit(_entry())
