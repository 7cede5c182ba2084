"""The names the command line offers before it loads any engine: the two
value families (``genfun.FAMILIES`` holds their records) and the verify
suites in run order (``verify.SUITES``)."""

__all__ = ["FAMILY_NAMES", "SUITES"]

FAMILY_NAMES = ("FKMT", "EMS")

SUITES = (
    "bernoulli",
    "depth1",
    "routes",
    "recurrence",
    "telescope",
    "shuffle",
    "last-entry",
    "inversion",
    "ems-shuffle",
    "conversion",
    "shift-coeffs",
    "words",
)
