"""Fixture: third-party and first-party imports in a stdlib-only layer.

The fixtures' pyproject.toml declares this module a stdlib-only layer, so
IMP001 must fire three times: numpy, repro.api and the function-local scipy.
"""

import json
from collections import OrderedDict

import numpy

from repro import api


def late():
    import scipy.sparse

    return json, OrderedDict, numpy, api, scipy.sparse
