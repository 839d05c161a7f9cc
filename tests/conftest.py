"""Hypothesis profiles.

`dev` leaves out hypothesis's explain phase, which reruns a failing example
under a tracer.  CI runs every test once, under `python -X dev -W error`, and
selects it with `--hypothesis-profile dev`; together with that step's filter
for libcst's import-time warning, a failing example there is reported as a
plain failure instead of a pytest INTERNALERROR.
"""

from hypothesis import Phase, settings

settings.register_profile("dev", phases=[p for p in Phase if p is not Phase.explain])
