"""Reference formulas the tests check reports against; no program code
uses them."""

import math


def ln_t_placement_shift(ratio: float, T: float, interval: tuple[float, float]) -> float:
    """Worst change of a reported ratio if ln T is replaced by ln xi with xi
    anywhere in the integration interval (consequence of the log-stability
    bound; directly checkable against 2 / ln T)."""
    a, b = interval
    lnT = math.log(T)
    return abs(ratio) * max(abs(lnT / math.log(a) - 1.0), abs(lnT / math.log(b) - 1.0))
