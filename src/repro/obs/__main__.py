"""``python -m repro.obs FILE...`` — validate trace / metrics JSON.

Auto-detects the document family from its ``schema`` tag
(``repro.trace/v1`` or ``repro.metrics/v1``) and validates accordingly.

Thin wrapper over :func:`repro.obs.schema.main`; preferred over
``python -m repro.obs.schema`` (which works too, but triggers Python's
found-in-sys.modules runpy warning because the package init imports the
schema module).
"""

from __future__ import annotations

import sys

from repro.obs.schema import main

if __name__ == "__main__":
    sys.exit(main())
