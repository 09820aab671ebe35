"""Text entry points cost linear time on adversarial input.

Each family is timed at n and at 4n; a linear pass costs about 4x as much,
so more than 6x fails.  Sizes are chosen so the run at n costs several
milliseconds, well above timer noise, and each timing is the best of five.
"""

import time

import pytest

from rsvl.builders import ImageAnnotation, ObjectAnnotation, validate_caption
from rsvl.markup import Modality, canonical

ANN = ImageAnnotation("img", Modality.OPT, 10, 10, (ObjectAnnotation("x", (0, 0, 1, 1)),))


def _caption(text):
    return validate_caption(text, ANN)


FAMILIES = {
    # unclosed and repeated numeric tags
    "canonical-unclosed-pos": (canonical, "<|pos|>", 50_000),
    "canonical-unclosed-det-lists": (canonical, "<|det|>[[0, 0, 1, 1]] ", 10_000),
    "canonical-mismatched-close": (canonical, "<|pose|>[[1,2]]<|/pos|>", 20_000),
    # long runs of claims
    "caption-there-is": (_caption, "there is 1 x ", 50_000),
    "caption-size-clause-unclosed": (_caption, "There is 1 x in the image, which is y ", 20_000),
    "caption-claims-without-period": (_caption, "There are 2 xs in the image, ", 20_000),
    "caption-claims": (_caption, "There are 2 xs in the image. ", 5_000),
}


def _cpu_seconds(fn, text):
    start = time.process_time()
    fn(text)
    return time.process_time() - start


@pytest.mark.parametrize("family", FAMILIES)
def test_cost_at_4n_is_at_most_6x_the_cost_at_n(family):
    fn, unit, n = FAMILIES[family]
    small_text, large_text = unit * n, unit * (4 * n)
    # interleaved, so a burst of load on a shared machine hits both sizes alike
    runs = [(_cpu_seconds(fn, small_text), _cpu_seconds(fn, large_text)) for _ in range(5)]
    small, large = min(r[0] for r in runs), min(r[1] for r in runs)
    assert large <= 6 * small, f"{family}: {small:.4f} s at n={n}, {large:.4f} s at 4n"
