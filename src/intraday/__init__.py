"""Closed-form optimal intraday electricity trading with verification tools.

Each name lives in, and is imported from, its own module: parameter
records and production rules (:mod:`intraday.model`), explicit value
functions and feedback rates (:mod:`intraday.closed_form`),
approximation-error bounds (:mod:`intraday.error_bounds`), delayed
production (:mod:`intraday.delay`), Euler Monte Carlo simulation
(:mod:`intraday.simulate`), an independent ODE / quadrature / Monte Carlo
verification oracle (:mod:`intraday.oracle`) and the ``intraday`` command
(:mod:`intraday.cli`).  Importing the package imports none of them.
"""

import logging

__version__ = "0.1.0"

# library code logs under "intraday"; the application chooses the handlers
logging.getLogger("intraday").addHandler(logging.NullHandler())
