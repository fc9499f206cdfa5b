"""Boolean matchers for the tractable equivalence classes (Section 4).

One module per equivalence class; every matcher takes the two circuits (or
oracles) and returns a :class:`~repro.core.problem.MatchingResult`.  Each
module also holds ``dispatch_*`` adapters with the uniform
``matcher(oracle1, oracle2, ctx)`` signature, which the dispatch table in
:mod:`repro.core.registry` lists; :mod:`repro.core.matchers.fallback` holds
the opt-in brute-force adapter every nontrivial class ends with.  The
matchers choose the regime (inverse available / unavailable) from the
oracles they are handed, mirroring the rows of Table 1:

====================  =======================================  =====================
class                 inverse available                        inverse unavailable
====================  =======================================  =====================
I-N                   O(1) classical                           O(1) classical
I-P                   O(log n) classical                       O(log n + log 1/eps) randomised
I-NP                  O(log n) classical                       O(log n + log 1/eps) randomised
P-I                   O(log n) classical                       O(n) classical
P-N                   O(log n) classical                       O(n) classical
N-I                   O(1) classical                           O(n log 1/eps) quantum
NP-I                  O(log n) classical                       O(n^2 log 1/eps) quantum
N-P                   O(log n) classical (both inverses)       open problem
====================  =======================================  =====================
"""

from __future__ import annotations

from repro.core.matchers import fallback
from repro.core.matchers.i_i import match_i_i
from repro.core.matchers.i_n import match_i_n
from repro.core.matchers.i_np import match_i_np
from repro.core.matchers.i_p import match_i_p
from repro.core.matchers.n_i import match_n_i, match_n_i_quantum, match_n_i_simon
from repro.core.matchers.n_p import match_n_p
from repro.core.matchers.np_i import match_np_i, match_np_i_quantum
from repro.core.matchers.p_i import match_p_i
from repro.core.matchers.p_n import match_p_n

__all__ = [
    "fallback",
    "match_i_i",
    "match_i_n",
    "match_i_p",
    "match_i_np",
    "match_p_i",
    "match_p_n",
    "match_n_i",
    "match_n_i_quantum",
    "match_n_i_simon",
    "match_np_i",
    "match_np_i_quantum",
    "match_n_p",
]
