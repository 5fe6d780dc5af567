"""A stand-in for reports of values that no journal's counts give.

Kernel tests need negative or arbitrary ``delta_f`` and ``delta_f_rel``,
and ties between them, which a :class:`volatix.metrics.VolatilityReport` of
counts ``(C, N_2Y, c*)`` cannot hold.  A ``GivenReport`` holds the seven
report fields as given and serves them as a report does: the kernels and
writers read only ``journal_id``, ``c_star``, ``n_2y`` and :meth:`_pairs`.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from volatix.metrics import REPORT_FIELDS


@dataclass(frozen=True)
class GivenReport:
    journal_id: str
    f: Fraction
    f_star: Fraction
    c_star: int
    delta_f: Fraction
    delta_f_rel: Optional[Fraction]
    n_2y: int

    def _pairs(self) -> tuple:
        """Each value's reduced numerator and denominator, and ``(0, 0)``
        for an undefined one, eight ints in one tuple."""
        pairs = ()
        for value in (self.f, self.f_star, self.delta_f, self.delta_f_rel):
            pairs += (0, 0) if value is None else Fraction(value).as_integer_ratio()
        return pairs


def fields(report) -> tuple:
    """The seven fields of a report of either class, in ``REPORT_FIELDS`` order."""
    return tuple(getattr(report, name) for name in REPORT_FIELDS)
