"""Fixture: stdlib imports and the one allowed prefix — IMP001 stays quiet.

``from repro import exceptions`` is allowed because ``repro.exceptions``
matches an allowed prefix even though ``repro`` alone does not.
"""

import json

from repro import exceptions
from repro.exceptions import ReproError


def late():
    import os.path

    return json, exceptions, ReproError, os.path
